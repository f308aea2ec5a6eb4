"""Plan file reading and writing.

Plan files are JSON documents carrying the concatenated footsteps, enough
per-chunk context (start stance, yaw range) to re-validate the plan against
exact geometry, and solver statistics. Solve times are written as null by
default so identical runs produce byte-identical files; pass
``include_timings=True`` for measured wall times.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ScenarioParseError
from .model import Footstep, Scenario
from .planner import ChunkRecord, FootstepPlan
from .scenario_io import _as_float, _as_floats, _as_int, _fail, robot_to_dict

PLAN_VERSION = 1


def plan_to_dict(plan: FootstepPlan, scenario: Scenario, include_timings: bool = False) -> dict:
    return {
        "version": PLAN_VERSION,
        "scenario": scenario.name,
        "robot": robot_to_dict(scenario.robot),
        "convergence": {
            "converged": plan.converged,
            "termination": plan.termination,
            "coc_error": plan.coc_error,
            "yaw_error": plan.yaw_error,
        },
        "steps": [
            {
                "index": i + 1,
                "leg": s.leg,
                "x": s.x,
                "y": s.y,
                "z": s.z,
                "theta": s.theta,
                "region": s.region,
                "trimmed": s.trimmed,
            }
            for i, s in enumerate(plan.steps)
        ],
        "chunks": [
            {
                "index": c.index,
                "start_footholds": [list(map(float, p)) for p in c.start_footholds],
                "start_yaw": c.start_yaw,
                "theta_range": list(c.theta_range),
                "n_segments": c.n_segments,
                "chunk_steps": c.chunk_steps,
                "kept": c.kept_count,
                "variables": c.n_variables,
                "binaries": c.n_binaries,
                "nodes": c.nodes,
                "gap": c.gap,
                "objective": c.objective,
                "status": c.status,
                "time_s": round(c.solve_time, 3) if include_timings else None,
            }
            for c in plan.chunks
        ],
    }


def plan_to_json(plan: FootstepPlan, scenario: Scenario, include_timings: bool = False) -> str:
    return json.dumps(plan_to_dict(plan, scenario, include_timings), indent=2, sort_keys=True) + "\n"


def save_plan(plan: FootstepPlan, scenario: Scenario, path, include_timings: bool = False) -> None:
    Path(path).write_text(plan_to_json(plan, scenario, include_timings))


def _field(doc, key: str, path: str, kind=None):
    """``doc[key]``, read by ``kind(value, path)`` when given; a missing key or
    a value ``kind`` rejects raises ScenarioParseError naming its JSON path."""
    if not isinstance(doc, dict):
        _fail(f"expected an object, got {type(doc).__name__}", path)
    if key not in doc:
        _fail(f"missing key {key!r}", path)
    return doc[key] if kind is None else kind(doc[key], f"{path}.{key}")


def _typed(kind: type, expected: str):
    """Reader of a value that must be a JSON ``expected``, i.e. a Python ``kind``."""
    return lambda v, path: v if isinstance(v, kind) else _fail(f"expected {expected}, got {v!r}", path)


_flag = _typed(bool, "true or false")
_text = _typed(str, "a string")
_array = _typed(list, "an array")


def _points(v, path: str) -> np.ndarray:
    return np.array([_as_floats(p, 3, f"{path}[{k}]") for k, p in enumerate(_array(v, path))])


def _yaw_range(v, path: str) -> tuple[float, float]:
    lo, hi = _as_floats(v, 2, path)
    return (lo, hi) if lo < hi else _fail(f"expected a nonempty interval, got {v!r}", path)


def _segment_count(v, path: str) -> int:
    n = _as_int(v, path)
    return n if n >= 2 else _fail(f"expected an integer >= 2, got {v!r}", path)


def plan_from_dict(doc: dict, scenario: Scenario, source: str = "") -> FootstepPlan:
    """Rebuild a FootstepPlan (without solver state) and cross-check the robot block."""
    where = f"{source}: " if source else ""
    if _field(doc, "version", source) != PLAN_VERSION:
        raise ScenarioParseError(f"unsupported plan version {doc['version']!r}", source)
    rb = _field(doc, "robot", source)
    at = f"{where}robot"
    robot = scenario.robot
    offsets = _field(rb, "leg_offsets", at, lambda v, p: _as_floats(v, None, p))
    same = (
        _field(rb, "n_legs", at, _as_int) == robot.n_legs
        and len(offsets) == robot.n_legs
        and np.allclose(offsets, robot.leg_offsets)
        and all(np.isclose(_field(rb, key, at, _as_float), getattr(robot, key))
                for key in ("l_leg", "l_bnd", "d_lim", "dz_max"))
    )
    if not same:
        raise ScenarioParseError("plan robot block does not match the scenario robot", source)
    n = robot.n_legs

    def footholds(v, path: str) -> np.ndarray:
        holds = _points(v, path)
        return holds if len(holds) == n else _fail(f"expected {n} footholds, one per leg, got {len(holds)}", path)

    steps = []
    for i, s in enumerate(_field(doc, "steps", source, _array)):
        at = f"{where}steps[{i}]"
        steps.append(
            Footstep(
                x=_field(s, "x", at, _as_float), y=_field(s, "y", at, _as_float),
                z=_field(s, "z", at, _as_float), theta=_field(s, "theta", at, _as_float),
                leg=_field(s, "leg", at, _as_int), trimmed=_field(s, "trimmed", at, _flag),
                region=_field(s, "region", at, _text) if s.get("region") is not None else None,
            )
        )
    chunks = []
    for i, c in enumerate(_field(doc, "chunks", source, _array)):
        at = f"{where}chunks[{i}]"
        chunks.append(
            ChunkRecord(
                index=_field(c, "index", at, _as_int),
                start_footholds=_field(c, "start_footholds", at, footholds),
                start_yaw=_field(c, "start_yaw", at, _as_float),
                theta_range=_field(c, "theta_range", at, _yaw_range),
                n_segments=_field(c, "n_segments", at, _segment_count),
                chunk_steps=_field(c, "chunk_steps", at, _as_int),
                kept_count=_field(c, "kept", at, _as_int),
                n_variables=_field(c, "variables", at, _as_int),
                n_binaries=_field(c, "binaries", at, _as_int),
                nodes=_field(c, "nodes", at, _as_int),
                gap=_field(c, "gap", at, _as_float),
                objective=_field(c, "objective", at, _as_float),
                status=_field(c, "status", at, _text),
                solve_time=_field(c, "time_s", at, _as_float) if c.get("time_s") is not None else 0.0,
            )
        )
        size, kept = chunks[-1].chunk_steps, chunks[-1].kept_count
        if size <= 0 or size % n or size < kept:
            _fail(f"expected a positive multiple of {n} steps, at least kept ({kept}), got {size}", f"{at}.chunk_steps")
    if sum(c.kept_count for c in chunks) != len(steps):
        raise ScenarioParseError("chunk kept counts do not match the step list", source)
    if len(steps) % n != 0:
        raise ScenarioParseError("steps are not grouped in complete configurations", source)
    for i, s in enumerate(steps):
        if s.leg != i % n + 1:
            raise ScenarioParseError(f"step {i + 1} breaks the cyclic leg order", source)
    conv = _field(doc, "convergence", source)
    at = f"{where}convergence"
    return FootstepPlan(
        steps=tuple(steps),
        chunks=tuple(chunks),
        converged=_field(conv, "converged", at, _flag),
        termination=_field(conv, "termination", at, _text),
        coc_error=_field(conv, "coc_error", at, _as_float),
        yaw_error=_field(conv, "yaw_error", at, _as_float),
    )


def load_plan(path, scenario: Scenario) -> FootstepPlan:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioParseError(f"cannot read file: {exc}", str(path)) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON: {exc}", str(path)) from exc
    return plan_from_dict(doc, scenario, source=str(path))
