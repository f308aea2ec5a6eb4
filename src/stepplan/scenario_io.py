"""Scenario file parsing, validation and serialization.

Scenario files are versioned JSON documents. Safe regions may be authored
directly as halfspace systems or as convex 2D polygons with a z-plane
(optionally tilted) and thickness, which the loader expands to halfspaces.
Every region's bounding box is attached to it for use by the formulation and
the renderer. A polygon's box is a closed form of its vertices: the parser's
checks (convex, nonzero area, thickness >= 0) already prove the prism
nonempty and bounded. A halfspace region is proven nonempty and bounded at
load time: the six sides of its box are exact LPs, solved by HiGHS as one
block-diagonal LP per scenario. Only that LP imports ``scipy.optimize``, so a
scenario of polygons alone never loads it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ScenarioParseError
from .model import RobotModel, SafeRegion, Scenario
from .pwl import segment_count_with_zero_knot

SCENARIO_VERSION = 1

_TOP_KEYS = {
    "version", "name", "robot", "regions", "start", "goal", "max_steps",
    "theta_range", "n_segments", "weights", "workspace_box", "coc_convention",
}
_ROBOT_KEYS = {"n_legs", "leg_offsets", "l_leg", "l_bnd", "d_lim", "dz_max"}
_REGION_KEYS = {"name", "halfspaces", "polygon", "z", "plane", "thickness"}


def _fail(msg: str, path: str):
    raise ScenarioParseError(msg, path)


def _check_keys(d: dict, allowed: set, required: set, path: str) -> None:
    if not isinstance(d, dict):
        _fail(f"expected an object, got {type(d).__name__}", path)
    for k in d:
        if k not in allowed:
            _fail(f"unknown key {k!r}", path)
    missing = sorted(k for k in required if k not in d)
    if missing:
        _fail("missing key(s): " + ", ".join(repr(k) for k in missing), path)


def _as_float(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"expected a number, got {v!r}", path)
    return float(v)


def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"expected an integer, got {v!r}", path)
    return int(v)


def _as_floats(v, count: int | None, path: str) -> list[float]:
    if not isinstance(v, list):
        _fail(f"expected an array, got {v!r}", path)
    if count is not None and len(v) != count:
        _fail(f"expected {count} entries, got {len(v)}", path)
    return [_as_float(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _as_matrix(v, size: int, path: str) -> np.ndarray:
    """Accept a diagonal shorthand [d0..dn] or a full nested matrix."""
    if not isinstance(v, list) or not v:
        _fail(f"expected a matrix or diagonal array, got {v!r}", path)
    if isinstance(v[0], list):
        rows = [_as_floats(r, size, f"{path}[{i}]") for i, r in enumerate(v)]
        if len(rows) != size:
            _fail(f"expected {size} rows, got {len(rows)}", path)
        return np.array(rows)
    return np.diag(_as_floats(v, size, path))


def _polygon_region(entry: dict, path: str, name: str) -> SafeRegion:
    """The halfspaces of a polygon prism, with its box as a closed form of the vertices."""
    poly = entry["polygon"]
    if not isinstance(poly, list) or len(poly) < 3:
        _fail("polygon needs at least 3 vertices", f"{path}.polygon")
    pts = [_as_floats(p, 2, f"{path}.polygon[{i}]") for i, p in enumerate(poly)]
    # checked before any arithmetic: an infinite vertex turns the edge normals into NaN
    for i, p in enumerate(pts):
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            _fail(f"vertex {p} is not finite", f"{path}.polygon[{i}]")
    pts = np.array(pts)
    area2 = 0.0
    for i in range(len(pts)):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % len(pts)]
        area2 += x0 * y1 - x1 * y0
    if abs(area2) < 1e-12:
        _fail("polygon is degenerate", f"{path}.polygon")
    if area2 < 0:
        pts = pts[::-1]
    scale = float(np.max(np.abs(pts))) + 1.0
    rows = []
    rhs = []
    for i in range(len(pts)):
        v0 = pts[i]
        v1 = pts[(i + 1) % len(pts)]
        d = v1 - v0
        nrm = np.array([d[1], -d[0]])
        length = float(np.linalg.norm(nrm))
        if length < 1e-12:
            _fail(f"repeated vertex near index {i}", f"{path}.polygon")
        nrm = nrm / length
        rows.append([nrm[0], nrm[1], 0.0])
        rhs.append(float(nrm @ v0))
        # convexity: every other vertex on the inner side of this edge
        if np.any(pts @ nrm > nrm @ v0 + 1e-9 * scale):
            _fail("polygon is not convex", f"{path}.polygon")
    if "plane" in entry and "z" in entry:
        _fail("give either 'z' or 'plane', not both", path)
    if "plane" in entry:
        alpha, beta, gamma = _as_floats(entry["plane"], 3, f"{path}.plane")
    elif "z" in entry:
        alpha, beta, gamma = 0.0, 0.0, _as_float(entry["z"], f"{path}.z")
    else:
        _fail("polygon region needs 'z' or 'plane'", path)
    thickness = _as_float(entry.get("thickness", 0.04), f"{path}.thickness")
    if thickness < 0:
        _fail("thickness must be nonnegative", f"{path}.thickness")
    nz = math.sqrt(alpha * alpha + beta * beta + 1.0)
    rows.append([-alpha / nz, -beta / nz, 1.0 / nz])
    rhs.append((gamma + 0.5 * thickness) / nz)
    rows.append([alpha / nz, beta / nz, -1.0 / nz])
    rhs.append((-gamma + 0.5 * thickness) / nz)
    # Python floats, so a non-finite plane or thickness raises no warning
    # here: SafeRegion names it through A or b before the box is used
    xs, ys = pts.T.tolist()
    zs = [alpha * x + beta * y + gamma for x, y in zip(xs, ys)]
    bbox = (np.array([min(xs), min(ys), min(zs) - 0.5 * thickness]),
            np.array([max(xs), max(ys), max(zs) + 0.5 * thickness]))
    return SafeRegion(a_matrix=np.array(rows), b_vector=np.array(rhs), name=name, bbox=bbox)


def _parse_region(entry, index: int) -> SafeRegion:
    path = f"regions[{index}]"
    _check_keys(entry, _REGION_KEYS, {"name"}, path)
    name = entry["name"]
    if not isinstance(name, str) or not name:
        _fail("region name must be a nonempty string", f"{path}.name")
    if "halfspaces" in entry:
        for k in ("polygon", "z", "plane", "thickness"):
            if k in entry:
                _fail(f"'halfspaces' excludes {k!r}", path)
        hs = entry["halfspaces"]
        _check_keys(hs, {"a", "b"}, {"a", "b"}, f"{path}.halfspaces")
        b = _as_floats(hs["b"], None, f"{path}.halfspaces.b")
        if not isinstance(hs["a"], list) or len(hs["a"]) != len(b):
            _fail("'a' must have one 3-vector row per entry of 'b'", f"{path}.halfspaces.a")
        a = np.array(
            [_as_floats(r, 3, f"{path}.halfspaces.a[{i}]") for i, r in enumerate(hs["a"])]
        )
        return SafeRegion(a_matrix=a, b_vector=np.array(b), name=name)
    if "polygon" in entry:
        return _polygon_region(entry, path, name)
    _fail("region needs 'halfspaces' or 'polygon'", path)


# The six sides of a box, in the order a side that fails is reported:
# x maximum, x minimum, y maximum, y minimum, z maximum, z minimum.
_SIDES = tuple((comp, sign) for comp in range(3) for sign in (1.0, -1.0))


def _solve_sides(
    sides: list[tuple[SafeRegion, int, float]],
) -> tuple[int, np.ndarray | None]:
    """Maximize ``sign * p[comp]`` for every ``(region, comp, sign)`` in one LP.

    Side k owns the variables ``3k .. 3k+2`` and its own copy of its region's
    rows ``A p <= b``. No two sides share a variable, so the LP is block
    diagonal and each side's optimum is its own coordinate of the solution.
    Returns the ``milp`` status and, when it is 0 (optimal), the side values
    in order.
    """
    import scipy.sparse as sp
    from scipy.optimize import Bounds, LinearConstraint, milp

    a = np.concatenate([r.a_matrix for r, _, _ in sides])
    b = np.concatenate([r.b_vector for r, _, _ in sides])
    owner = np.repeat(np.arange(len(sides)), [r.n_rows for r, _, _ in sides])
    keep = a != 0.0  # the entries scipy keeps when it converts a dense A
    rows = sp.csr_array(
        (a[keep], (3 * owner[:, None] + np.arange(3))[keep],
         np.concatenate(([0], np.cumsum(keep.sum(axis=1))))),
        shape=(len(b), 3 * len(sides)),
    )
    picked = 3 * np.arange(len(sides)) + [comp for _, comp, _ in sides]
    cost = np.zeros(3 * len(sides))
    cost[picked] = [-sign for _, _, sign in sides]
    res = milp(cost, constraints=LinearConstraint(rows, -np.inf, b),
               bounds=Bounds(-np.inf, np.inf))
    return res.status, (res.x[picked] if res.status == 0 else None)


def _side_value(side: tuple[SafeRegion, int, float]) -> float:
    """Solve one side alone; an LP that is not optimal names its region's fault."""
    region, comp, _ = side
    status, values = _solve_sides([side])
    if status == 2:
        raise ConfigurationError(f"region {region.name!r} is empty")
    if status == 3:
        raise ConfigurationError(
            f"region {region.name!r} is unbounded (direction {'xyz'[comp]})"
        )
    if status != 0:
        raise ConfigurationError(f"region {region.name!r}: extent solve did not converge")
    return values[0]


def region_extent(regions: list[SafeRegion]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Prove every region nonempty and bounded; return each one's bounding box.

    Each side of a box is an exact LP that maximizes or minimizes one
    coordinate over the region. All sides of all regions are solved by HiGHS
    as one block-diagonal LP, in a single call. If that LP is not optimal,
    the sides are solved again one at a time: regions in order, then x, y, z,
    each maximum before its minimum. The first side that fails names its
    region: an infeasible LP means the region is empty; an unbounded one
    gives a direction in which it is unbounded.
    Returns ``(lo, hi)`` per region, in order. The loader calls it for
    halfspace regions only: a polygon's box is a closed form of its vertices.
    """
    sides = [(r, comp, sign) for r in regions for comp, sign in _SIDES]
    status, values = _solve_sides(sides)
    if status != 0:
        values = [_side_value(side) for side in sides]
    boxes = np.reshape(values, (len(regions), 3, 2))
    return [(box[:, 1].copy(), box[:, 0].copy()) for box in boxes]


def parse_scenario(text: str, source: str = "") -> Scenario:
    """Parse and validate a scenario document from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON: {exc}", source) from exc
    _check_keys(
        doc,
        _TOP_KEYS,
        {"version", "robot", "regions", "start", "goal", "max_steps",
         "theta_range", "n_segments", "weights", "workspace_box"},
        source or "$",
    )
    if doc["version"] != SCENARIO_VERSION:
        _fail(f"unsupported version {doc['version']!r}", "version")

    rb = doc["robot"]
    _check_keys(rb, _ROBOT_KEYS, _ROBOT_KEYS, "robot")
    robot = RobotModel(
        n_legs=_as_int(rb["n_legs"], "robot.n_legs"),
        leg_offsets=tuple(_as_floats(rb["leg_offsets"], None, "robot.leg_offsets")),
        l_leg=_as_float(rb["l_leg"], "robot.l_leg"),
        l_bnd=_as_float(rb["l_bnd"], "robot.l_bnd"),
        d_lim=_as_float(rb["d_lim"], "robot.d_lim"),
        dz_max=_as_float(rb["dz_max"], "robot.dz_max"),
    )

    if not isinstance(doc["regions"], list) or not doc["regions"]:
        _fail("at least one region is required", "regions")
    regions = [_parse_region(e, i) for i, e in enumerate(doc["regions"])]
    names = [r.name for r in regions]
    if len(set(names)) != len(names):
        _fail("region names must be unique", "regions")

    box = doc["workspace_box"]
    _check_keys(box, {"min", "max"}, {"min", "max"}, "workspace_box")
    box_lo = np.array(_as_floats(box["min"], 3, "workspace_box.min"))
    box_hi = np.array(_as_floats(box["max"], 3, "workspace_box.max"))

    # polygons come with their boxes; the halfspace regions' boxes are LPs
    pending = [r for r in regions if r.bbox is None]
    if pending:
        boxes = iter(region_extent(pending))
        regions = [
            SafeRegion(r.a_matrix, r.b_vector, r.name, bbox=next(boxes)) if r.bbox is None else r
            for r in regions
        ]

    st = doc["start"]
    _check_keys(st, {"footholds", "yaw"}, {"footholds", "yaw"}, "start")
    if not isinstance(st["footholds"], list) or len(st["footholds"]) != robot.n_legs:
        _fail(f"expected {robot.n_legs} footholds", "start.footholds")
    holds = np.array(
        [_as_floats(p, 3, f"start.footholds[{i}]") for i, p in enumerate(st["footholds"])]
    )

    gl = doc["goal"]
    _check_keys(gl, {"position", "yaw"}, {"position", "yaw"}, "goal")

    wt = doc["weights"]
    _check_keys(wt, {"q_goal", "q_t", "q_r"}, {"q_goal", "q_t", "q_r"}, "weights")

    theta_range = tuple(_as_floats(doc["theta_range"], 2, "theta_range"))
    n_segments = segment_count_with_zero_knot(
        theta_range, _as_int(doc["n_segments"], "n_segments")
    )
    name = doc.get("name", Path(source).stem if source else "scenario")
    if not isinstance(name, str):
        _fail("name must be a string", "name")
    # files saved while the CoC window was a setting name it; only the one window loads
    convention = doc.get("coc_convention", "exclude-current")
    if convention != "exclude-current":
        _fail(
            f'expected "exclude-current", the one CoC window (the n_legs - 1 steps '
            f"before each step), got {convention!r}",
            "coc_convention",
        )

    return Scenario(
        robot=robot,
        regions=tuple(regions),
        start_footholds=holds,
        start_yaw=_as_float(st["yaw"], "start.yaw"),
        goal_position=np.array(_as_floats(gl["position"], 3, "goal.position")),
        goal_yaw=_as_float(gl["yaw"], "goal.yaw"),
        max_steps=_as_int(doc["max_steps"], "max_steps"),
        theta_range=theta_range,
        n_segments=n_segments,
        q_goal=_as_matrix(wt["q_goal"], 4, "weights.q_goal"),
        q_t=_as_float(wt["q_t"], "weights.q_t"),
        q_r=_as_matrix(wt["q_r"], 2, "weights.q_r"),
        workspace_box=(box_lo, box_hi),
        name=name,
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read file: {exc}", str(path)) from exc
    return parse_scenario(text, source=str(path))


def robot_to_dict(robot: RobotModel) -> dict:
    """The robot block shared by scenario and plan files."""
    return {
        "n_legs": robot.n_legs,
        "leg_offsets": list(robot.leg_offsets),
        "l_leg": robot.l_leg,
        "l_bnd": robot.l_bnd,
        "d_lim": robot.d_lim,
        "dz_max": robot.dz_max,
    }


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical document for a scenario; regions serialize as halfspaces."""
    return {
        "version": SCENARIO_VERSION,
        "name": scenario.name,
        "robot": robot_to_dict(scenario.robot),
        "regions": [
            {
                "name": r.name,
                "halfspaces": {
                    "a": [list(map(float, row)) for row in r.a_matrix],
                    "b": [float(v) for v in r.b_vector],
                },
            }
            for r in scenario.regions
        ],
        "start": {
            "footholds": [list(map(float, p)) for p in scenario.start_footholds],
            "yaw": scenario.start_yaw,
        },
        "goal": {
            "position": list(map(float, scenario.goal_position)),
            "yaw": scenario.goal_yaw,
        },
        "max_steps": scenario.max_steps,
        "theta_range": list(scenario.theta_range),
        "n_segments": scenario.n_segments,
        "weights": {
            "q_goal": [list(map(float, row)) for row in scenario.q_goal],
            "q_t": scenario.q_t,
            "q_r": [list(map(float, row)) for row in scenario.q_r],
        },
        "workspace_box": {
            "min": list(map(float, scenario.workspace_box[0])),
            "max": list(map(float, scenario.workspace_box[1])),
        },
    }


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(scenario_to_json(scenario))
