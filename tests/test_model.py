import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepplan.errors import ConfigurationError, ContractViolation
from stepplan.model import (
    Footstep,
    RobotModel,
    SafeRegion,
    Scenario,
    coc,
    config_of,
    derive_leg_goals,
    leg_of,
    nominal_position,
    wrap_angle,
)


def hexapod():
    return RobotModel(
        n_legs=6,
        leg_offsets=(0.0, math.pi / 3, 2 * math.pi / 3, -math.pi, -2 * math.pi / 3, -math.pi / 3),
        l_leg=0.25,
        l_bnd=0.13,
        d_lim=0.26,
        dz_max=0.08,
    )


def quadruped():
    return RobotModel(
        n_legs=4,
        leg_offsets=(math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4, -math.pi / 4),
        l_leg=0.2 * math.sqrt(2.0),
        l_bnd=0.13,
        d_lim=0.22,
        dz_max=0.08,
    )


class TestRobotModel:
    def test_rejects_single_leg(self):
        with pytest.raises(ConfigurationError):
            RobotModel(1, (0.0,), 0.3, 0.1, 0.2, 0.1)

    def test_rejects_wrong_offset_count(self):
        with pytest.raises(ConfigurationError):
            RobotModel(4, (0.0, 1.0), 0.3, 0.1, 0.2, 0.1)

    def test_rejects_offset_outside_range(self):
        with pytest.raises(ConfigurationError):
            RobotModel(2, (0.0, math.pi), 0.3, 0.1, 0.2, 0.1)

    def test_rejects_nonpositive_dimensions(self):
        for field in ("l_leg", "l_bnd", "d_lim"):
            kw = dict(n_legs=2, leg_offsets=(0.0, -math.pi), l_leg=0.3, l_bnd=0.1, d_lim=0.2, dz_max=0.1)
            kw[field] = 0.0
            with pytest.raises(ConfigurationError):
                RobotModel(**kw)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["l_leg", "l_bnd", "d_lim", "dz_max"])
    def test_rejects_non_finite_dimensions(self, field, value):
        kw = dict(n_legs=2, leg_offsets=(0.0, -math.pi), l_leg=0.3, l_bnd=0.1, d_lim=0.2, dz_max=0.1)
        kw[field] = value
        with pytest.raises(ConfigurationError, match=field):
            RobotModel(**kw)


class TestCoc:
    def test_square_is_centered(self):
        pts = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        assert np.allclose(coc(pts), [0.0, 0.0])

    def test_single_point_identity(self):
        assert np.allclose(coc([(3.5, -2.25)]), [3.5, -2.25])

    def test_six_step_window_mean(self):
        # independent summation: x = (0+2+2+0+1+1)/6 = 1, y = (0+0+2+2+1-1)/6 = 2/3
        pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, -1)]
        assert np.allclose(coc(pts), [1.0, 2.0 / 3.0])

    def test_empty_window_rejected(self):
        with pytest.raises(ContractViolation):
            coc([])

    def test_accepts_footsteps(self):
        steps = [Footstep(1.0, 2.0, 0.0, 0.0, 1), Footstep(3.0, 4.0, 0.0, 0.0, 2)]
        assert np.allclose(coc(steps), [2.0, 3.0])

    @given(
        st.lists(
            st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=8
        ),
        st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    )
    @settings(max_examples=60, deadline=None)
    def test_translation_equivariant(self, pts, offset):
        moved = [(x + offset[0], y + offset[1]) for x, y in pts]
        assert np.allclose(coc(moved), coc(pts) + np.array(offset), atol=1e-9)


class TestNominalPosition:
    def test_axis_aligned(self):
        robot = hexapod()
        p = nominal_position((0.0, 0.0), 0.0, 1, RobotModel(2, (0.0, -math.pi), 0.3, 0.1, 0.2, 0.1))
        assert np.allclose(p, [0.3, 0.0])

    def test_quarter_turn(self):
        robot = RobotModel(2, (0.0, -math.pi), 0.3, 0.1, 0.2, 0.1)
        p = nominal_position((1.0, 1.0), math.pi / 2, 1, robot)
        assert np.allclose(p, [1.0, 1.3])

    def test_angle_addition(self):
        robot = RobotModel(2, (math.pi / 4, -math.pi), 1.0, 0.1, 0.2, 0.1)
        p = nominal_position((0.0, 0.0), math.pi / 4, 1, robot)
        assert np.allclose(p, [0.0, 1.0], atol=1e-12)

    def test_leg_out_of_range(self):
        with pytest.raises(ContractViolation):
            nominal_position((0, 0), 0.0, 7, hexapod())

    @given(st.floats(-math.pi, math.pi), st.floats(-1.5, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_rotation_consistency(self, theta, alpha):
        # rotating the frame and the yaw by alpha rotates the result about the CoC
        robot = hexapod()
        base = np.array([0.4, -0.2])
        rot = np.array([[math.cos(alpha), -math.sin(alpha)], [math.sin(alpha), math.cos(alpha)]])
        for leg in (1, 4):
            p0 = nominal_position(base, theta, leg, robot)
            p1 = nominal_position(base, theta + alpha, leg, robot)
            assert np.allclose(p1 - base, rot @ (p0 - base), atol=1e-9)


class TestLegIndexing:
    def test_first_step_first_leg(self):
        assert leg_of(1, 6) == 1

    def test_wraps_after_full_configuration(self):
        assert leg_of(7, 6) == 1

    def test_last_leg_of_configuration(self):
        assert leg_of(12, quadruped().n_legs) == 4

    def test_config_of(self):
        assert config_of(1, 6) == 1
        assert config_of(6, 6) == 1
        assert config_of(7, 6) == 2

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ContractViolation):
            leg_of(0, 6)

    @given(st.integers(1, 500), st.integers(2, 8))
    @settings(max_examples=80, deadline=None)
    def test_periodicity(self, i, n):
        assert leg_of(i, n) == leg_of(i + n, n)


class TestDeriveLegGoals:
    def test_hexapod_circle(self):
        robot = hexapod()
        goals = derive_leg_goals(np.array([0.0, 0.0, 0.0]), 0.0, robot)
        radii = np.linalg.norm(goals[:, :2], axis=1)
        assert np.allclose(radii, robot.l_leg, atol=1e-12)

    def test_coc_recovers_goal(self):
        robot = hexapod()
        goals = derive_leg_goals(np.array([0.7, -0.4, 0.1]), 0.3, robot)
        assert np.allclose(coc(goals[:, :2]), [0.7, -0.4], atol=1e-12)
        assert np.allclose(goals[:, 2], 0.1)

    def test_quadruped_example(self):
        # direct evaluation of the exact nominal-position oracle
        robot = quadruped()
        goals = derive_leg_goals(np.array([1.0, 1.0, 0.0]), 0.0, robot)
        expected = np.array(
            [[1.2, 1.2, 0.0], [0.8, 1.2, 0.0], [0.8, 0.8, 0.0], [1.2, 0.8, 0.0]]
        )
        assert np.allclose(goals, expected, atol=1e-12)


class TestSafeRegion:
    def test_containment(self):
        region = SafeRegion(
            np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]),
            np.array([1.0, 0.0, 1.0, 0.0, 0.1, 0.1]),
            "unit",
        )
        assert region.contains((0.5, 0.5, 0.0))
        assert not region.contains((1.5, 0.5, 0.0))
        assert region.violation((1.5, 0.5, 0.0)) == pytest.approx(0.5)

    def test_shape_check(self):
        with pytest.raises(ConfigurationError):
            SafeRegion(np.array([[1.0, 0.0]]), np.array([1.0]), "bad")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["A", "b"])
    def test_rejects_non_finite_halfspaces(self, field, value):
        a, b = np.eye(3), np.ones(3)
        (a if field == "A" else b)[1, ...] = value
        with pytest.raises(ConfigurationError, match=f"'bad': {field} has a non-finite"):
            SafeRegion(a, b, "bad")


class TestScenario:
    def make(self, **overrides):
        robot = quadruped()
        holds = np.array(
            [list(nominal_position((0, 0), 0.0, j + 1, robot)) + [0.0] for j in range(4)]
        )
        region = SafeRegion(
            np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]),
            np.array([2.0, 1.0, 1.0, 1.0, 0.05, 0.05]),
            "ground",
        )
        kw = dict(
            robot=robot,
            regions=(region,),
            start_footholds=holds,
            start_yaw=0.0,
            goal_position=np.array([1.0, 0.0, 0.0]),
            goal_yaw=0.0,
            max_steps=8,
            theta_range=(-0.8, 0.8),
            n_segments=4,
            q_goal=np.diag([8.0, 8.0, 8.0, 3.0]),
            q_t=-0.2,
            q_r=0.05 * np.eye(2),
            workspace_box=(np.array([-1.0, -1.0, -0.1]), np.array([2.0, 1.0, 0.1])),
        )
        kw.update(overrides)
        return Scenario(**kw)

    def test_valid_scenario_builds(self):
        scn = self.make()
        assert (scn.robot.n_legs, scn.max_steps) == (4, 8)

    def test_max_steps_multiple_of_legs(self):
        with pytest.raises(ConfigurationError):
            self.make(max_steps=7)

    def test_q_t_must_be_negative(self):
        with pytest.raises(ConfigurationError):
            self.make(q_t=0.1)

    def test_goal_inside_box(self):
        with pytest.raises(ConfigurationError):
            self.make(goal_position=np.array([5.0, 0.0, 0.0]))

    def test_start_holds_inside_box(self):
        holds = np.array([[9.0, 0, 0], [0, 1, 0], [0, -1, 0], [1, 0, 0]])
        with pytest.raises(ConfigurationError):
            self.make(start_footholds=holds)

    def test_psd_weights_required(self):
        with pytest.raises(ConfigurationError):
            self.make(q_goal=np.diag([1.0, 1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field", ["start_footholds", "start_yaw", "goal_position", "goal_yaw", "workspace_box", "q_goal", "q_r", "q_t"]
    )
    def test_rejects_non_finite_numbers(self, field, value):
        # one entry of the field is replaced; a NaN there would pass every
        # check written as  x <= bound
        scn = self.make()
        if field in ("start_yaw", "goal_yaw", "q_t"):
            override = value
        elif field == "workspace_box":
            override = (scn.workspace_box[0], np.array([2.0, value, 0.1]))
        else:
            override = getattr(scn, field).copy()
            override[(0,) * override.ndim] = value
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            self.make(**{field: override})


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(-3 * math.pi) == pytest.approx(-math.pi)
