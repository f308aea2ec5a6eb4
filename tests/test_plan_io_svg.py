import math
from xml.etree import ElementTree

import numpy as np
import pytest

from stepplan.errors import ScenarioParseError
from stepplan.model import RobotModel, SafeRegion, Scenario, nominal_position
from stepplan.plan_io import load_plan, plan_from_dict, plan_to_dict, plan_to_json, save_plan
from stepplan.planner import plan, validate_plan
from stepplan.svg import region_xy_polygon, render_plan_svg


def quadruped():
    return RobotModel(
        n_legs=4,
        leg_offsets=(math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4, -math.pi / 4),
        l_leg=0.2 * math.sqrt(2.0),
        l_bnd=0.13,
        d_lim=0.22,
        dz_max=0.1,
    )


@pytest.fixture(scope="module")
def planned():
    robot = quadruped()
    holds = np.array(
        [list(nominal_position((0, 0), 0.0, j + 1, robot)) + [0.0] for j in range(4)]
    )
    region = SafeRegion(
        np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]),
        np.array([1.5, 0.7, 0.8, 0.8, 0.05, 0.05]),
        "ground",
        bbox=(np.array([-0.7, -0.8, -0.05]), np.array([1.5, 0.8, 0.05])),
    )
    scn = Scenario(
        robot=robot,
        regions=(region,),
        start_footholds=holds,
        start_yaw=0.0,
        goal_position=np.array([0.4, 0.0, 0.0]),
        goal_yaw=0.0,
        max_steps=16,
        theta_range=(-0.8, 0.8),
        n_segments=4,
        q_goal=np.diag([8.0, 8.0, 8.0, 3.0]),
        q_t=-0.2,
        q_r=0.05 * np.eye(2),
        workspace_box=(np.array([-0.75, -0.85, -0.06]), np.array([1.55, 0.85, 0.06])),
        name="hop",
    )
    return scn, plan(scn, chunk_multiplier=2)


class TestPlanFile:
    def test_round_trip(self, planned, tmp_path):
        scn, result = planned
        path = tmp_path / "plan.json"
        save_plan(result, scn, path)
        loaded = load_plan(path, scn)
        assert loaded.n_steps == result.n_steps
        assert loaded.converged == result.converged
        assert loaded.termination == result.termination
        for a, b in zip(loaded.steps, result.steps):
            assert a == b
        for a, b in zip(loaded.chunks, result.chunks):
            assert a.kept_count == b.kept_count
            assert a.theta_range == b.theta_range
            assert np.array_equal(a.start_footholds, b.start_footholds)

    def test_reloaded_plan_validates(self, planned, tmp_path):
        scn, result = planned
        path = tmp_path / "plan.json"
        save_plan(result, scn, path)
        loaded = load_plan(path, scn)
        report = validate_plan(loaded, scn)
        assert report.ok, report.summary()

    def test_timings_excluded_by_default(self, planned):
        scn, result = planned
        doc = plan_to_dict(result, scn)
        assert all(c["time_s"] is None for c in doc["chunks"])
        doc2 = plan_to_dict(result, scn, include_timings=True)
        assert all(isinstance(c["time_s"], float) for c in doc2["chunks"])

    def test_robot_mismatch_rejected(self, planned):
        scn, result = planned
        malformed = (
            ("n_legs", 6), ("n_legs", "4"), ("leg_offsets", [0.0, 1.0]), ("leg_offsets", "0 1 2 3"),
            ("leg_offsets", [None] * scn.robot.n_legs), ("leg_offsets", None),
            ("l_leg", "long"), ("l_leg", None),
            # a plan saved for another reach box or height limit
            ("l_bnd", scn.robot.l_bnd * 1.5), ("d_lim", scn.robot.d_lim * 1.5), ("dz_max", scn.robot.dz_max + 0.1),
        )
        for key, value in malformed:
            doc = plan_to_dict(result, scn)
            doc["robot"][key] = value
            with pytest.raises(ScenarioParseError):
                plan_from_dict(doc, scn)
        for key in ("l_leg", "l_bnd", "d_lim", "dz_max"):
            doc = plan_to_dict(result, scn)
            del doc["robot"][key]
            with pytest.raises(ScenarioParseError, match="robot"):
                plan_from_dict(doc, scn)

    def test_inconsistent_step_count_rejected(self, planned):
        scn, result = planned
        if not result.steps:
            pytest.skip("empty plan")
        doc = plan_to_dict(result, scn)
        doc["steps"] = doc["steps"][:-1]
        with pytest.raises(ScenarioParseError):
            plan_from_dict(doc, scn)

    def test_mistyped_chunk_value_names_its_path(self, planned):
        scn, result = planned
        mistyped = (
            ("chunks", "gap", "wide"), ("steps", "leg", 1.9), ("steps", "x", "0.1"), ("steps", "region", ["a"]),
        )
        for where, key, value in mistyped:
            doc = plan_to_dict(result, scn)
            doc[where][0][key] = value
            with pytest.raises(ScenarioParseError, match=rf"{where}\[0\]\.{key}"):
                plan_from_dict(doc, scn)

    def test_bad_yaw_table_names_its_path(self, planned):
        scn, result = planned
        bad = (
            ("n_segments", 0), ("n_segments", 1), ("n_segments", -2),
            ("theta_range", [0.8, -0.8]), ("theta_range", [0.5, 0.5]), ("theta_range", [float("nan"), 0.8]),
        )
        for key, value in bad:
            doc = plan_to_dict(result, scn)
            doc["chunks"][0][key] = value
            with pytest.raises(ScenarioParseError, match=rf"chunks\[0\]\.{key}"):
                plan_from_dict(doc, scn)

    def test_malformed_chunk_record_names_its_path(self, planned):
        # each of these once reached validate_plan: one start foothold raised
        # an IndexError there, none emptied a CoC window, and a negative
        # chunk size validated clean
        scn, result = planned
        n = scn.robot.n_legs
        first = plan_to_dict(result, scn)["chunks"][0]
        bad = (
            ("start_footholds", first["start_footholds"][:1]), ("start_footholds", []),
            ("start_footholds", first["start_footholds"] * 2),
            ("chunk_steps", -n), ("chunk_steps", 0), ("chunk_steps", first["chunk_steps"] + 1),
        )
        for key, value in bad:
            doc = plan_to_dict(result, scn)
            doc["chunks"][0][key] = value
            with pytest.raises(ScenarioParseError, match=rf"chunks\[0\]\.{key}"):
                plan_from_dict(doc, scn)

    def test_chunk_smaller_than_its_kept_steps_rejected(self, planned):
        scn, result = planned
        doc = plan_to_dict(result, scn)
        chunk = doc["chunks"][0]
        chunk["kept"] = chunk["chunk_steps"] + scn.robot.n_legs
        with pytest.raises(ScenarioParseError, match=r"chunks\[0\]\.chunk_steps"):
            plan_from_dict(doc, scn)

    def test_byte_identical_output(self, planned):
        scn, result = planned
        assert plan_to_json(result, scn) == plan_to_json(result, scn)


class TestSvg:
    def test_render_deterministic(self, planned):
        scn, result = planned
        a = render_plan_svg(result, scn)
        b = render_plan_svg(result, scn)
        assert a == b
        assert a.startswith("<svg")
        assert a.rstrip().endswith("</svg>")

    def test_contains_all_steps_and_regions(self, planned):
        scn, result = planned
        svg = render_plan_svg(result, scn)
        assert svg.count("<circle") >= result.n_steps
        assert svg.count("<polygon") == len(scn.regions)
        assert "ground" in svg

    def test_region_names_are_escaped(self, planned):
        scn, result = planned
        region = scn.regions[0]
        renamed = SafeRegion(region.a_matrix, region.b_vector, "ramp <A&B>", bbox=region.bbox)
        svg = render_plan_svg(result, scn.with_overrides(regions=(renamed,)))
        root = ElementTree.fromstring(svg)
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts == ["ramp <A&B>"]

    def test_region_polygon_extraction(self):
        region = SafeRegion(
            np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]),
            np.array([2.0, 1.0, 0.5, 0.5, 0.05, 0.05]),
            "rect",
            bbox=(np.array([-1.0, -0.5, -0.05]), np.array([2.0, 0.5, 0.05])),
        )
        poly = region_xy_polygon(region)
        assert len(poly) == 4
        xs = sorted(p[0] for p in poly)
        assert xs[0] == pytest.approx(-1.0)
        assert xs[-1] == pytest.approx(2.0)
