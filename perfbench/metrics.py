"""Metric names, units and the per-layer figures derived from a traced run.

Every workload prints the same metric names; a layer a workload does not
reach reads 0. ``BENCHMARK.json`` lists the same names and units.
"""

from __future__ import annotations

import statistics

from probe import LAYERS, Probe

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ok_ratio": "ratio",
    "objective": "cost",
    "gap_max": "ratio",
    "peak_rss_mb": "MB",
    "solve_p50_ms": "ms",
    "solve_p95_ms": "ms",
}

PER_LAYER = {
    "qp.iterations": "count",
    "qp.solves": "count",
    "qp.iterations_per_solve": "count",
    "qp.solve_s": "s",
    "qp.self_s": "s",
    "qp.setups": "count",
    "qp.setup_s": "s",
    "qp.factorizations": "count",
    "qp.polished_ratio": "ratio",
    "qp.max_iter_solves": "count",
    "qp.infeasible_solves": "count",
    "bnb.solve_s": "s",
    "bnb.self_s": "s",
    "bnb.nodes": "count",
    "bnb.refix_solves": "count",
    "bnb.refix_share": "ratio",
    "bnb.status.optimal": "count",
    "bnb.status.gap-limit": "count",
    "bnb.status.node-limit": "count",
    "bnb.status.time-limit": "count",
    "bnb.status.infeasible": "count",
    "formulation.assemble_s": "s",
    "formulation.assemble_calls": "count",
    "formulation.n_vars": "count",
    "formulation.n_binaries": "count",
    "formulation.nnz": "count",
    "formulation.rounding_s": "s",
    "formulation.rounding_calls": "count",
    "formulation.rounding_candidates": "count",
    "formulation.self_s": "s",
    "scenario_io.load_s": "s",
    "scenario_io.region_extent_s": "s",
    "scenario_io.region_extent_calls": "count",
    "scenario_io.self_s": "s",
    "planner.plan_s": "s",
    "planner.self_s": "s",
    "planner.chunks": "count",
    "planner.validate_s": "s",
    "plan_io.to_json_s": "s",
    "plan_io.bytes": "bytes",
    "plan_io.self_s": "s",
    "svg.render_s": "s",
    "svg.bytes": "bytes",
    "svg.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}

def counter_block(c, objective: float) -> dict:
    """The counters that must repeat exactly between repetitions of one run."""
    return {
        "qp.iterations": c["qp.iterations"],
        "qp.solves": c["qp.solve"],
        "qp.factorizations": c["qp.factorize"],
        "bnb.nodes": c["bnb.nodes"],
        "objective": float(f"{objective:.9g}"),
    }


def percentile(values: list[float], pct: int) -> float:
    """Inclusive percentile (linear interpolation between order statistics)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(
    probe: Probe,
    setup_op: int,
    run_op: int,
    setup_counts,
    run_counts,
    untraced_wall: float,
    sizes: dict,
) -> dict[str, float]:
    """Per-layer figures of one traced set-up (``setup_op``) and one traced
    repetition (``run_op``). Self time of a layer sums its spans' durations
    minus their direct children; the root span's self time is the
    benchmark's own glue and is reported as ``trace.unattributed_s``."""
    selfs = probe.self_times()
    spans = probe.spans

    def total(name: str, op: int) -> float:
        return sum(s.duration for s in spans if s.name == name and s.op == op)

    def layer_self(layer: str, op: int) -> float:
        return sum(selfs[s.id] for s in spans if s.layer == layer and s.op == op)

    (root,) = [s for s in spans if s.op == run_op and s.parent is None]
    c = run_counts
    solves = c["qp.solve"]
    out = {
        "qp.iterations": c["qp.iterations"],
        "qp.solves": solves,
        "qp.iterations_per_solve": c["qp.iterations"] / solves if solves else 0.0,
        "qp.solve_s": total("qp.solve", run_op),
        "qp.setups": c["qp.setup"],
        "qp.setup_s": total("qp.setup", run_op),
        "qp.factorizations": c["qp.factorize"],
        "qp.polished_ratio": c["qp.polished"] / solves if solves else 0.0,
        "qp.max_iter_solves": c["qp.max_iter_solves"],
        "qp.infeasible_solves": c["qp.infeasible_solves"],
        "bnb.solve_s": total("bnb.solve_miqp", run_op),
        "bnb.nodes": c["bnb.nodes"],
        "bnb.refix_solves": c["bnb.refix_solves"],
        "bnb.refix_share": c["bnb.refix_solves"] / solves if solves else 0.0,
        "formulation.assemble_s": total("formulation.assemble", run_op),
        "formulation.assemble_calls": c["formulation.assemble"],
        "formulation.n_vars": c["formulation.n_vars"],
        "formulation.n_binaries": c["formulation.n_binaries"],
        "formulation.nnz": c["formulation.nnz"],
        "formulation.rounding_s": total("formulation.rounding", run_op),
        "formulation.rounding_calls": c["formulation.rounding"],
        "formulation.rounding_candidates": c["formulation.rounding_candidates"],
        "scenario_io.load_s": total("scenario_io.load", setup_op),
        "scenario_io.region_extent_s": total("scenario_io.region_extent", setup_op),
        "scenario_io.region_extent_calls": setup_counts["scenario_io.region_extent"],
        "planner.plan_s": total("planner.plan", run_op),
        "planner.chunks": c["bnb.solve_miqp"] if c["planner.plan"] else 0,
        "planner.validate_s": total("planner.validate", run_op),
        "plan_io.to_json_s": total("plan_io.to_json", run_op),
        "plan_io.bytes": sizes.get("plan_io.bytes", 0),
        "svg.render_s": total("svg.render", run_op),
        "svg.bytes": sizes.get("svg.bytes", 0),
    }
    for status in ("optimal", "gap-limit", "node-limit", "time-limit", "infeasible"):
        out[f"bnb.status.{status}"] = c[f"bnb.status.{status}"]
    self_sum = 0.0
    for layer in LAYERS:
        op = setup_op if layer == "scenario_io" else run_op
        out[f"{layer}.self_s"] = layer_self(layer, op)
        if op == run_op:
            self_sum += out[f"{layer}.self_s"]
    out["trace.wall_s"] = root.duration
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = root.duration - untraced_wall
    out["trace.self_sum_s"] = self_sum
    out["trace.unattributed_s"] = selfs[root.id]
    out["trace.spans"] = sum(1 for s in spans if s.op == run_op)
    return {name: out[name] for name in PER_LAYER}
