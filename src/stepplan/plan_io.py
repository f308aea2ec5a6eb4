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
from .scenario_io import robot_to_dict

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
    """``doc[key]``, converted by ``kind`` when given; a missing key or a
    value ``kind`` rejects raises ScenarioParseError naming its JSON path."""
    if not isinstance(doc, dict):
        raise ScenarioParseError(f"expected an object, got {type(doc).__name__}", path)
    if key not in doc:
        raise ScenarioParseError(f"missing key {key!r}", path)
    if kind is None:
        return doc[key]
    try:
        return kind(doc[key])
    except (TypeError, ValueError, LookupError) as exc:
        raise ScenarioParseError(f"bad value {doc[key]!r}", f"{path}.{key}") from exc


def _flag(v) -> bool:
    if not isinstance(v, bool):
        raise TypeError("expected true or false")
    return v


def plan_from_dict(doc: dict, scenario: Scenario, source: str = "") -> FootstepPlan:
    """Rebuild a FootstepPlan (without solver state) and cross-check the robot block."""
    where = f"{source}: " if source else ""
    if _field(doc, "version", source) != PLAN_VERSION:
        raise ScenarioParseError(f"unsupported plan version {doc['version']!r}", source)
    rb = _field(doc, "robot", source)
    robot = scenario.robot
    same = isinstance(rb, dict) and (
        rb.get("n_legs") == robot.n_legs
        and np.allclose(rb.get("leg_offsets", []), robot.leg_offsets)
        and np.isclose(rb.get("l_leg", -1), robot.l_leg)
    )
    if not same:
        raise ScenarioParseError("plan robot block does not match the scenario robot", source)
    steps = []
    for i, s in enumerate(_field(doc, "steps", source, list)):
        at = f"{where}steps[{i}]"
        steps.append(
            Footstep(
                x=_field(s, "x", at, float), y=_field(s, "y", at, float),
                z=_field(s, "z", at, float), theta=_field(s, "theta", at, float),
                leg=_field(s, "leg", at, int), trimmed=_field(s, "trimmed", at, _flag),
                region=s.get("region"),
            )
        )
    chunks = []
    for i, c in enumerate(_field(doc, "chunks", source, list)):
        at = f"{where}chunks[{i}]"
        chunks.append(
            ChunkRecord(
                index=_field(c, "index", at, int),
                start_footholds=_field(c, "start_footholds", at, lambda v: np.array(v, dtype=float)),
                start_yaw=_field(c, "start_yaw", at, float),
                theta_range=_field(c, "theta_range", at, lambda v: (float(v[0]), float(v[1]))),
                n_segments=_field(c, "n_segments", at, int),
                chunk_steps=_field(c, "chunk_steps", at, int),
                kept_count=_field(c, "kept", at, int),
                n_variables=_field(c, "variables", at, int),
                n_binaries=_field(c, "binaries", at, int),
                nodes=_field(c, "nodes", at, int),
                gap=_field(c, "gap", at, float),
                objective=_field(c, "objective", at, float),
                status=_field(c, "status", at, str),
                solve_time=_field(c, "time_s", at, float) if c.get("time_s") is not None else 0.0,
            )
        )
    if sum(c.kept_count for c in chunks) != len(steps):
        raise ScenarioParseError("chunk kept counts do not match the step list", source)
    if len(steps) % robot.n_legs != 0:
        raise ScenarioParseError("steps are not grouped in complete configurations", source)
    for i, s in enumerate(steps):
        if s.leg != i % robot.n_legs + 1:
            raise ScenarioParseError(f"step {i + 1} breaks the cyclic leg order", source)
    conv = _field(doc, "convergence", source)
    at = f"{where}convergence"
    return FootstepPlan(
        steps=tuple(steps),
        chunks=tuple(chunks),
        converged=_field(conv, "converged", at, _flag),
        termination=_field(conv, "termination", at, str),
        coc_error=_field(conv, "coc_error", at, float),
        yaw_error=_field(conv, "yaw_error", at, float),
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
