import copy
import math

import numpy as np
import pytest

from oracles import random_miqp
from stepplan.bnb import MiqpSolution, solve_miqp
from stepplan.errors import ContractViolation
from stepplan.formulation import MiqpProblem, assemble, validate_assignment
from stepplan.model import (
    Footstep,
    RobotModel,
    SafeRegion,
    Scenario,
    derive_leg_goals,
    nominal_position,
)
from stepplan.planner import (
    ChunkRecord,
    FootstepPlan,
    _drop_standing_tail,
    plan,
    validate_plan,
)
from stepplan.pwl import PwlTable, build_table
from stepplan.qp import BoxQp, QpSolution, _Reduced


def quadruped():
    return RobotModel(
        n_legs=4,
        leg_offsets=(math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4, -math.pi / 4),
        l_leg=0.2 * math.sqrt(2.0),
        l_bnd=0.13,
        d_lim=0.22,
        dz_max=0.1,
    )


def nominal_stance(robot, coc_xy=(0.0, 0.0), yaw=0.0, z=0.0):
    return np.array(
        [list(nominal_position(coc_xy, yaw, j + 1, robot)) + [z] for j in range(robot.n_legs)]
    )


def ground_region(x0=-0.7, x1=1.8, y0=-0.8, y1=0.8):
    a = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    b = np.array([x1, -x0, y1, -y0, 0.05, 0.05])
    return SafeRegion(a, b, "ground", bbox=(np.array([x0, y0, -0.05]), np.array([x1, y1, 0.05])))


def simple_scenario(goal_x=0.5, max_steps=16, **overrides):
    robot = quadruped()
    kw = dict(
        robot=robot,
        regions=(ground_region(),),
        start_footholds=nominal_stance(robot),
        start_yaw=0.0,
        goal_position=np.array([goal_x, 0.0, 0.0]),
        goal_yaw=0.0,
        max_steps=max_steps,
        theta_range=(-0.8, 0.8),
        n_segments=4,
        q_goal=np.diag([8.0, 8.0, 8.0, 3.0]),
        q_t=-0.2,
        q_r=0.05 * np.eye(2),
        workspace_box=(np.array([-0.75, -0.85, -0.06]), np.array([1.85, 0.85, 0.06])),
    )
    kw.update(overrides)
    return Scenario(**kw)


class TestPlan:
    def test_start_equals_goal_is_empty_plan(self):
        robot = quadruped()
        goals = derive_leg_goals(np.array([0.0, 0.0, 0.0]), 0.0, robot)
        scn = simple_scenario(goal_x=0.0, start_footholds=goals)
        result = plan(scn)
        assert result.converged
        assert result.termination == "goal"
        assert result.n_steps == 0
        assert result.chunks == ()

    def test_short_hop_converges(self):
        scn = simple_scenario(goal_x=0.3, max_steps=16)
        result = plan(scn, chunk_multiplier=2)
        assert result.converged, result.termination
        assert result.coc_error <= 0.05
        assert result.yaw_error <= 0.05
        # complete configurations with shared yaw
        n = scn.robot.n_legs
        assert result.n_steps % n == 0
        for c in range(result.n_steps // n):
            block = result.steps[c * n : (c + 1) * n]
            assert len({s.theta for s in block}) == 1
            assert [s.leg for s in block] == [1, 2, 3, 4]

    def test_chunk_must_fit_budget(self):
        scn = simple_scenario(max_steps=8)
        with pytest.raises(ContractViolation):
            plan(scn, chunk_multiplier=4)

    @pytest.mark.parametrize("multiplier", [2.0, 0, -1, True, "2", None])
    def test_chunk_multiplier_must_be_a_positive_integer(self, multiplier):
        scn = simple_scenario(max_steps=16)
        with pytest.raises(ContractViolation, match="chunk_multiplier"):
            plan(scn, chunk_multiplier=multiplier)

    def test_numpy_integer_chunk_multiplier_plans_as_an_int(self):
        scn = simple_scenario(goal_x=0.3, max_steps=16)
        result, ref = plan(scn, chunk_multiplier=np.int64(2)), plan(scn, chunk_multiplier=2)
        assert result.steps == ref.steps and [c.chunk_steps for c in result.chunks] == [8] * len(ref.chunks)

    def test_handoff_is_bitwise(self):
        scn = simple_scenario(goal_x=0.8, max_steps=24)
        result = plan(scn, chunk_multiplier=2)
        n = scn.robot.n_legs
        if len(result.chunks) >= 2:
            first = result.chunks[0]
            boundary = result.steps[first.kept_count - n : first.kept_count]
            nxt = result.chunks[1]
            for s in boundary:
                assert np.array_equal(nxt.start_footholds[s.leg - 1], s.xyz())
            assert nxt.start_yaw == boundary[-1].theta

    def test_chunk_solutions_validate(self):
        scn = simple_scenario(goal_x=0.45, max_steps=16)
        result = plan(scn, chunk_multiplier=2)
        for chunk in result.chunks:
            prob = assemble(chunk.scenario)
            report = validate_assignment(prob, chunk.solution.x, 1e-6)
            assert report.ok, report.summary()

    def test_trimmed_arrival_matches_leg_goals(self):
        scn = simple_scenario(goal_x=0.25, max_steps=16)
        result = plan(scn, chunk_multiplier=4)
        assert result.converged
        goals = derive_leg_goals(scn.goal_position, scn.goal_yaw, scn.robot)
        trimmed = [s for s in result.steps if s.trimmed]
        for s in trimmed:
            assert np.max(np.abs(s.xyz() - goals[s.leg - 1])) <= 1e-6


class TestDropStandingTail:
    def make_config(self, positions, trimmed, theta=0.0):
        return [
            Footstep(x=p[0], y=p[1], z=p[2], theta=theta, leg=j + 1, trimmed=trimmed)
            for j, p in enumerate(positions)
        ]

    def test_drops_pure_standing_configs(self):
        start = np.array([[0.2, 0.2, 0], [-0.2, 0.2, 0], [-0.2, -0.2, 0], [0.2, -0.2, 0]])
        moved = start + np.array([0.1, 0, 0])
        steps = (
            self.make_config(moved, trimmed=True)
            + self.make_config(moved, trimmed=True)
            + self.make_config(moved, trimmed=True)
        )
        kept = _drop_standing_tail(steps, start, 4)
        # first trimmed config moves the feet: kept; later standing ones dropped
        assert len(kept) == 4

    def test_keeps_untrimmed_standing(self):
        start = np.array([[0.2, 0.2, 0], [-0.2, 0.2, 0], [-0.2, -0.2, 0], [0.2, -0.2, 0]])
        steps = self.make_config(start, trimmed=False)
        kept = _drop_standing_tail(steps, start, 4)
        assert len(kept) == 4

    def test_drops_everything_when_never_moving(self):
        start = np.array([[0.2, 0.2, 0], [-0.2, 0.2, 0], [-0.2, -0.2, 0], [0.2, -0.2, 0]])
        steps = self.make_config(start, trimmed=True) + self.make_config(start, trimmed=True)
        kept = _drop_standing_tail(steps, start, 4)
        assert kept == []


class TestValidatePlan:
    def plan_fixture(self):
        scn = simple_scenario(goal_x=0.4, max_steps=16)
        return scn, plan(scn, chunk_multiplier=2)

    def test_clean_plan_passes(self):
        scn, result = self.plan_fixture()
        report = validate_plan(result, scn)
        assert report.ok, report.summary()

    def test_region_violation_detected(self):
        scn, result = self.plan_fixture()
        if not result.steps:
            pytest.skip("empty plan")
        steps = list(result.steps)
        bad = steps[0]
        steps[0] = Footstep(
            x=bad.x, y=scn.regions[0].bbox[1][1] + 0.01, z=bad.z,
            theta=bad.theta, leg=bad.leg, trimmed=bad.trimmed, region=bad.region,
        )
        moved = FootstepPlan(tuple(steps), result.chunks, result.converged,
                             result.termination, result.coc_error, result.yaw_error)
        report = validate_plan(moved, scn)
        assert any(i.family == "region" for i in report.issues)

    def test_yaw_perturbation_detected(self):
        scn, result = self.plan_fixture()
        if not result.steps:
            pytest.skip("empty plan")
        steps = list(result.steps)
        bad = steps[0]
        steps[0] = Footstep(
            x=bad.x, y=bad.y, z=bad.z, theta=bad.theta + 0.45,
            leg=bad.leg, trimmed=bad.trimmed, region=bad.region,
        )
        moved = FootstepPlan(tuple(steps), result.chunks, result.converged,
                             result.termination, result.coc_error, result.yaw_error)
        report = validate_plan(moved, scn)
        assert any(i.family in ("yaw-sharing", "geometric") for i in report.issues)

    def test_geometry_shift_scales_with_theta_error(self):
        # moving one configuration's yaw by a segment width shifts the exact
        # nominal position by about l_leg * h
        scn, result = self.plan_fixture()
        if result.n_steps < scn.robot.n_legs:
            pytest.skip("not enough steps")
        h = (scn.theta_range[1] - scn.theta_range[0]) / scn.n_segments
        n = scn.robot.n_legs
        steps = list(result.steps)
        for i in range(n):
            s = steps[i]
            steps[i] = Footstep(x=s.x, y=s.y, z=s.z, theta=s.theta + h,
                                leg=s.leg, trimmed=s.trimmed, region=s.region)
        moved = FootstepPlan(tuple(steps), result.chunks, result.converged,
                             result.termination, result.coc_error, result.yaw_error)
        report = validate_plan(moved, scn)
        worst = report.family_worst["geometric"]
        base = validate_plan(result, scn).family_worst["geometric"]
        assert worst > base
        assert worst - base <= scn.robot.l_leg * h * 2.5 + 1e-6


class TestPresetRelaxations:
    def test_presets_make_no_max_iteration_solve(self, preset_plans):
        from pathlib import Path

        from stepplan import qp

        statuses = []
        presets = sorted((Path(qp.__file__).parent / "scenarios").glob("*.json"))
        assert len(presets) == 5
        for path in presets:
            run = preset_plans[path.stem]
            assert run.result.converged, path.stem
            statuses.extend(run.statuses)
        assert statuses and "max-iterations" not in statuses


#: plan steps and chunk objectives at default ``plan()`` limits, as trims-first
#: branching with node rounding at a cap of 2 nodes gives them; a change may
#: improve on them but not fall behind
PRESET_FLOOR = {
    "hexapod_rotation": (48, (24.90611892498015, 0.0034866142434850644)),
    "hexapod_stepping_stones": (
        78, (82.84387695348171, 30.68658255259055, 0.29425850024426836, -3.5997858244890324)
    ),
    "hexapod_tilted_terrain": (72, (46.83197463787077, 3.1457280971448824, 0.0007620373278030002)),
    "quadruped_stepping_stones": (48, (21.70732936426343, 3.4783507123601822, 0.001356542086512036)),
    "quadruped_tilted_terrain": (40, (19.5713356096699, 0.7604234676043973, -2.249430610796921)),
}


class TestPresetQualityFloor:
    @pytest.mark.parametrize("preset", sorted(PRESET_FLOOR))
    def test_plans_are_no_worse(self, preset_plans, preset):
        result = preset_plans[preset].result
        steps, objectives = PRESET_FLOOR[preset]
        assert result.n_steps <= steps
        assert len(result.chunks) <= len(objectives)
        for chunk, floor in zip(result.chunks, objectives):
            assert chunk.objective <= floor + 1e-6 * max(1.0, abs(floor)), chunk.index

    def test_quadruped_tilted_terrain_closes_its_last_chunk(self, preset_plans):
        chunk = preset_plans["quadruped_tilted_terrain"].result.chunks[2]
        assert chunk.status == "optimal"


class TestRecordsCompareByIdentity:
    """The records that hold arrays compare and hash by identity: ``==``
    between two equal records never reaches an array's ambiguous truth value."""

    @pytest.fixture(scope="class")
    def records(self, preset_plans):
        run = preset_plans["quadruped_tilted_terrain"]
        chunk = run.result.chunks[-1]
        prob = assemble(chunk.scenario)
        ws = BoxQp.from_miqp(prob)
        return {
            Scenario: run.scenario, SafeRegion: run.scenario.regions[0], ChunkRecord: chunk,
            FootstepPlan: run.result, PwlTable: build_table("sin", chunk.theta_range, chunk.n_segments),
            MiqpProblem: prob, QpSolution: ws.solve(), _Reduced: ws._presolve(None),
            MiqpSolution: solve_miqp(random_miqp(np.random.default_rng(1))),
        }

    @pytest.mark.parametrize("cls", [Scenario, SafeRegion, ChunkRecord, FootstepPlan, PwlTable, MiqpProblem,
                                     QpSolution, _Reduced, MiqpSolution], ids=lambda cls: cls.__name__)
    def test_equal_records_compare_without_raising(self, records, cls):
        record = records[cls]
        twin = copy.deepcopy(record)
        assert type(record) is cls
        assert record == record and not record != record
        assert record != twin and not record == twin
        assert len({record, twin, record}) == 2
