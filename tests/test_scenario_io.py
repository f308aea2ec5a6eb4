import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import Bounds, LinearConstraint, milp

from stepplan.errors import ConfigurationError, ScenarioParseError
from stepplan.scenario_io import (
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_json,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "stepplan" / "scenarios"
PRESETS = [
    "hexapod_stepping_stones",
    "hexapod_rotation",
    "hexapod_tilted_terrain",
    "quadruped_stepping_stones",
    "quadruped_tilted_terrain",
]
CUBE = {
    "name": "cube",
    "halfspaces": {
        "a": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        "b": [1.0, 0.8, 0.6, 0.6, 0.05, 0.05],
    },
}


def minimal_doc():
    return {
        "version": 1,
        "name": "mini",
        "robot": {
            "n_legs": 4,
            "leg_offsets": [math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4, -math.pi / 4],
            "l_leg": 0.2 * math.sqrt(2.0),
            "l_bnd": 0.13,
            "d_lim": 0.22,
            "dz_max": 0.08,
        },
        "regions": [
            {"name": "ground", "polygon": [[-0.7, -0.6], [1.4, -0.6], [1.4, 0.6], [-0.7, 0.6]], "z": 0.0}
        ],
        "start": {
            "footholds": [[0.2, 0.2, 0.0], [-0.2, 0.2, 0.0], [-0.2, -0.2, 0.0], [0.2, -0.2, 0.0]],
            "yaw": 0.0,
        },
        "goal": {"position": [0.8, 0.0, 0.0], "yaw": 0.0},
        "max_steps": 8,
        "theta_range": [-0.8, 0.8],
        "n_segments": 4,
        "weights": {"q_goal": [8.0, 8.0, 8.0, 3.0], "q_t": -0.2, "q_r": [0.05, 0.05]},
        "workspace_box": {"min": [-0.8, -0.7, -0.06], "max": [1.5, 0.7, 0.06]},
    }


class TestParse:
    def test_minimal_document(self):
        scn = parse_scenario(json.dumps(minimal_doc()))
        assert scn.robot.n_legs == 4
        assert len(scn.regions) == 1
        assert scn.regions[0].bbox is not None

    def test_unknown_top_key_rejected_with_location(self):
        doc = minimal_doc()
        doc["surprise"] = 1
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(json.dumps(doc))
        assert "surprise" in str(exc.value)

    def test_unknown_nested_key_has_path(self):
        doc = minimal_doc()
        doc["robot"]["color"] = "red"
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(json.dumps(doc))
        assert "robot" in str(exc.value) and "color" in str(exc.value)

    def test_missing_robot_key(self):
        doc = minimal_doc()
        del doc["robot"]
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(json.dumps(doc))
        assert "robot" in str(exc.value)

    def test_invalid_json_reported(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("{not json")

    def test_bad_version(self):
        doc = minimal_doc()
        doc["version"] = 99
        with pytest.raises(ScenarioParseError):
            parse_scenario(json.dumps(doc))

    def test_nonconvex_polygon_rejected(self):
        doc = minimal_doc()
        doc["regions"][0]["polygon"] = [[0, 0], [1, 0], [0.2, 0.2], [0, 1]]
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(json.dumps(doc))
        assert "convex" in str(exc.value)

    def test_clockwise_polygon_accepted(self):
        doc = minimal_doc()
        doc["regions"][0]["polygon"] = list(reversed(doc["regions"][0]["polygon"]))
        scn = parse_scenario(json.dumps(doc))
        assert scn.regions[0].contains((0.5, 0.0, 0.0))

    def test_tilted_plane_region(self):
        doc = minimal_doc()
        doc["regions"].append(
            {
                "name": "ramp",
                "polygon": [[1.0, -0.5], [1.4, -0.5], [1.4, 0.5], [1.0, 0.5]],
                "plane": [0.1, 0.0, -0.1],
                "thickness": 0.04,
            }
        )
        scn = parse_scenario(json.dumps(doc))
        ramp = scn.regions[1]
        # plane z = 0.1 x - 0.1 at x = 1.2 gives z = 0.02
        assert ramp.contains((1.2, 0.0, 0.02))
        assert not ramp.contains((1.2, 0.0, 0.08))

    def test_duplicate_region_names_rejected(self):
        doc = minimal_doc()
        doc["regions"].append(dict(doc["regions"][0]))
        with pytest.raises(ScenarioParseError):
            parse_scenario(json.dumps(doc))

    def test_segment_count_nudged_to_zero_knot(self):
        doc = minimal_doc()
        doc["n_segments"] = 5  # symmetric range: bumped to 6 so 0 is a knot
        scn = parse_scenario(json.dumps(doc))
        assert scn.n_segments == 6

    def test_halfspace_region_passthrough(self):
        doc = minimal_doc()
        doc["regions"] = [CUBE]
        scn = parse_scenario(json.dumps(doc))
        assert scn.regions[0].n_rows == 6

    # the bad region goes in at this index of [ground, cube]: first, after one
    # valid region, last
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_empty_region_rejected(self, position):
        doc = minimal_doc()
        doc["regions"] = [doc["regions"][0], CUBE]
        doc["regions"].insert(
            position,
            {
                "name": "void",
                "halfspaces": {
                    # a bounded box made empty by a contradictory extra row
                    "a": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                          [0, 0, 1], [0, 0, -1], [1, 0, 0]],
                    "b": [1.0, 1.0, 1.0, 1.0, 0.05, 0.05, -2.0],
                },
            },
        )
        with pytest.raises(ConfigurationError) as exc:
            parse_scenario(json.dumps(doc))
        assert str(exc.value) == "region 'void' is empty"

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_unbounded_region_rejected(self, position):
        doc = minimal_doc()
        doc["regions"] = [doc["regions"][0], CUBE]
        doc["regions"].insert(
            position,
            {
                "name": "slab",
                "halfspaces": {"a": [[0, 0, 1], [0, 0, -1]], "b": [0.05, 0.05]},
            },
        )
        with pytest.raises(ConfigurationError) as exc:
            parse_scenario(json.dumps(doc))
        assert str(exc.value) == "region 'slab' is unbounded (direction x)"


class TestCocWindowKey:
    """Files saved while the CoC window was a setting carry "coc_convention"."""

    def test_the_one_window_parses_as_if_absent(self):
        doc = minimal_doc()
        without = parse_scenario(json.dumps(doc))
        doc["coc_convention"] = "exclude-current"
        named = parse_scenario(json.dumps(doc))
        assert scenario_to_json(named) == scenario_to_json(without)
        for a, b in zip(named.regions, without.regions):
            assert np.array_equal(a.bbox[0], b.bbox[0]) and np.array_equal(a.bbox[1], b.bbox[1])

    @pytest.mark.parametrize("value", ["include-current", "sideways", None, 1])
    def test_any_other_window_is_rejected_at_the_key(self, value):
        doc = minimal_doc()
        doc["coc_convention"] = value
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(json.dumps(doc))
        assert exc.value.location == "coc_convention"
        assert '"exclude-current"' in str(exc.value)

    def test_serialization_omits_the_key(self):
        assert "coc_convention" not in scenario_to_json(parse_scenario(json.dumps(minimal_doc())))


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        first = parse_scenario(json.dumps(minimal_doc()))
        text = scenario_to_json(first)
        second = parse_scenario(text)
        assert second.robot == first.robot
        assert second.max_steps == first.max_steps
        assert second.n_segments == first.n_segments
        assert np.array_equal(second.start_footholds, first.start_footholds)
        assert np.array_equal(second.goal_position, first.goal_position)
        assert np.array_equal(second.q_goal, first.q_goal)
        assert len(second.regions) == len(first.regions)
        for a, b in zip(first.regions, second.regions):
            assert a.name == b.name
            assert np.array_equal(a.a_matrix, b.a_matrix)
            assert np.array_equal(a.b_vector, b.b_vector)
        # serialization is stable too
        assert scenario_to_json(second) == text

    def test_save_and_load(self, tmp_path):
        scn = parse_scenario(json.dumps(minimal_doc()))
        path = tmp_path / "scn.json"
        save_scenario(scn, path)
        again = load_scenario(path)
        assert again.name == scn.name
        assert np.array_equal(again.start_footholds, scn.start_footholds)


def per_side_lps(region):
    """The region's box, one LP per side over its own rows, solved here."""
    lo, hi = np.empty(3), np.empty(3)
    rows = LinearConstraint(region.a_matrix, -np.inf, region.b_vector)
    for comp in range(3):
        for sign, store in ((1.0, hi), (-1.0, lo)):
            cost = np.zeros(3)
            cost[comp] = -sign
            res = milp(cost, constraints=rows, bounds=Bounds(-np.inf, np.inf))
            assert res.status == 0
            store[comp] = -sign * res.fun
    return lo, hi


def prism_box(entry):
    """A polygon prism's box by its definition: vertex extremes in x and y, and
    the plane's extremes over the vertices, less and plus half the thickness."""
    pts = np.array(entry["polygon"], dtype=float)
    a, b, c = entry["plane"] if "plane" in entry else (0.0, 0.0, entry["z"])
    z = a * pts[:, 0] + b * pts[:, 1] + c
    half = 0.5 * entry.get("thickness", 0.04)
    return (np.array([*pts.min(axis=0), z.min() - half]),
            np.array([*pts.max(axis=0), z.max() + half]))


def assert_polygon_boxes(doc, scn):
    """Each polygon region's box has the bytes of its definition and lies
    within 2 ulp of one LP per side over the region's rows."""
    for entry, region in zip(doc["regions"], scn.regions):
        if "polygon" not in entry:
            continue
        for got, want, lp in zip(region.bbox, prism_box(entry), per_side_lps(region)):
            assert got.tobytes() == want.tobytes(), region.name
            assert np.all(np.abs(got - lp) <= 2 * np.spacing(np.abs(lp))), region.name


def round_tripped(name):
    """A preset saved and parsed again: every region is a halfspace system."""
    return parse_scenario(scenario_to_json(load_scenario(SCENARIO_DIR / f"{name}.json")))


def tilted_ramp(**changes):
    return {
        "name": "ramp",
        "polygon": [[1.0, -0.5], [1.4, -0.5], [1.4, 0.5], [1.0, 0.5]],
        "plane": [0.1, -0.05, -0.1],
        "thickness": 0.04,
        **changes,
    }


@pytest.fixture
def milp_calls(monkeypatch):
    """Count the calls of scipy.optimize.milp, which the loader looks up there."""
    calls = []
    real = scipy.optimize.milp

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", spy)
    return calls


class TestRegionExtent:
    def test_extent_of_box(self):
        doc = minimal_doc()
        scn = parse_scenario(json.dumps(doc))
        lo, hi = scn.regions[0].bbox
        assert np.allclose(lo[:2], [-0.7, -0.6], atol=1e-5)
        assert np.allclose(hi[:2], [1.4, 0.6], atol=1e-5)
        assert np.allclose([lo[2], hi[2]], [-0.02, 0.02], atol=1e-5)

    @pytest.mark.parametrize("name", PRESETS)
    def test_boxes_equal_per_side_lps(self, name):
        """The batched boxes of halfspace regions keep every bit of one LP per
        side. A round-tripped preset's regions are halfspaces, so its boxes are
        the batched LP's."""
        scn = round_tripped(name)
        for region in scn.regions:
            lo, hi = per_side_lps(region)
            assert region.bbox[0].tobytes() == lo.tobytes(), region.name
            assert region.bbox[1].tobytes() == hi.tobytes(), region.name

    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_polygon_boxes_by_definition(self, name):
        path = SCENARIO_DIR / f"{name}.json"
        assert_polygon_boxes(json.loads(path.read_text()), load_scenario(path))

    @pytest.mark.parametrize(
        "ramp",
        [tilted_ramp(), tilted_ramp(thickness=0.0), tilted_ramp(plane=[0.0, 0.0, 0.03], thickness=0.0)],
        ids=["tilted", "tilted-zero-thickness", "flat-zero-thickness"],
    )
    def test_polygon_box_by_definition(self, ramp):
        doc = minimal_doc()
        doc["regions"].append(ramp)
        assert_polygon_boxes(doc, parse_scenario(json.dumps(doc)))

    def test_clockwise_vertices_give_the_same_box(self):
        doc = minimal_doc()
        doc["regions"].append(tilted_ramp())
        ccw = parse_scenario(json.dumps(doc))
        for entry in doc["regions"]:
            entry["polygon"].reverse()
        cw = parse_scenario(json.dumps(doc))
        assert_polygon_boxes(doc, cw)
        for a, b in zip(ccw.regions, cw.regions):
            assert a.bbox[0].tobytes() == b.bbox[0].tobytes()
            assert a.bbox[1].tobytes() == b.bbox[1].tobytes()

    def test_mixed_document_keeps_region_order(self, milp_calls):
        doc = minimal_doc()
        doc["regions"] = [CUBE, doc["regions"][0], tilted_ramp()]
        scn = parse_scenario(json.dumps(doc))
        assert [r.name for r in scn.regions] == ["cube", "ground", "ramp"]
        assert len(milp_calls) == 1  # the cube's six sides, one batched LP
        lo, hi = per_side_lps(scn.regions[0])
        assert scn.regions[0].bbox[0].tobytes() == lo.tobytes()
        assert scn.regions[0].bbox[1].tobytes() == hi.tobytes()
        assert_polygon_boxes(doc, scn)

    def test_bad_halfspace_region_among_polygons_is_named(self):
        doc = minimal_doc()
        slab = {"name": "slab", "halfspaces": {"a": [[0, 0, 1], [0, 0, -1]], "b": [0.05, 0.05]}}
        doc["regions"] = [doc["regions"][0], CUBE, slab, tilted_ramp()]
        with pytest.raises(ConfigurationError) as exc:
            parse_scenario(json.dumps(doc))
        assert str(exc.value) == "region 'slab' is unbounded (direction x)"

    def test_nan_vertex_rejected(self):
        doc = minimal_doc()
        doc["regions"][0]["polygon"][1][0] = float("nan")
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(json.dumps(doc))
        assert str(exc.value) == "regions[0].polygon[1]: vertex [nan, -0.6] is not finite"

    @pytest.mark.parametrize("value", [float("inf"), -float("inf")])
    def test_infinite_vertex_is_named(self, value):
        # named before the area and edge-normal arithmetic, which would warn
        # "invalid value encountered in divide" on it
        doc = minimal_doc()
        doc["regions"][0]["polygon"][2][1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioParseError) as exc:
                parse_scenario(json.dumps(doc))
        assert exc.value.location == "regions[0].polygon[2]"
        assert str(exc.value) == f"regions[0].polygon[2]: vertex [1.4, {value}] is not finite"

    def test_infinite_thickness_rejected(self):
        doc = minimal_doc()
        doc["regions"][0]["thickness"] = float("inf")
        with pytest.raises(ConfigurationError) as exc:
            parse_scenario(json.dumps(doc))
        assert str(exc.value) == "region 'ground': b has a non-finite entry"

    def test_one_lp_per_load(self, milp_calls):
        """Polygon regions take no LP; a load with halfspace regions takes one."""
        for name in PRESETS:
            load_scenario(SCENARIO_DIR / f"{name}.json")
        parse_scenario(json.dumps(minimal_doc()))
        assert len(milp_calls) == 0
        text = scenario_to_json(load_scenario(SCENARIO_DIR / f"{PRESETS[0]}.json"))
        parse_scenario(text)
        assert len(milp_calls) == 1


class TestBundledPresets:
    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_parses(self, name):
        scn = load_scenario(SCENARIO_DIR / f"{name}.json")
        assert scn.max_steps % scn.robot.n_legs == 0
        assert all(r.bbox is not None for r in scn.regions)

    def test_stepping_stones_has_thirteen_regions(self):
        scn = load_scenario(SCENARIO_DIR / "hexapod_stepping_stones.json")
        assert len(scn.regions) == 13
