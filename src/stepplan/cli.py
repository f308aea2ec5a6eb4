"""Command-line interface: plan, bench, validate, export-mip.

Exit codes: 0 ok, 2 parse/configuration error or an unwritable output,
3 infeasible, 4 not converged, 5 solver limits hit without a usable plan.
The commands raise; ``main`` alone maps an error to its exit code, the same
for every command.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from pathlib import Path

from .bnb import MiqpLimits, solve_miqp
from .errors import ContractViolation, InfeasibleScenarioError, PlanningError, StepPlanError
from .formulation import assemble, make_rounding_heuristic
from .lp_export import save_lp
from .plan_io import load_plan, save_plan
from .planner import DEFAULT_CHUNK_GAP, DEFAULT_CHUNK_NODES, plan, validate_plan
from .scenario_io import load_scenario
from .svg import render_plan_svg

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_NOT_CONVERGED = 4
EXIT_LIMITS = 5

#: Mixed-integer variable counts reported for 12/24/36 steps by an external
#: baseline implementation of this formulation (solver- and scenario-config
#: dependent; printed for reference, never asserted).
BENCH_REFERENCE = {12: 312, 24: 552, 36: 828}


def _limits(args) -> MiqpLimits:
    """The limits the flags set; a meaningless one is a ContractViolation naming its flag."""
    values = {"gap": args.gap, "max_nodes": args.node_limit, "time_limit": args.time_limit}
    for (field, value), flag in zip(values.items(), ("--gap", "--node-limit", "--time-limit")):
        try:
            MiqpLimits(**{field: value})
        except ContractViolation as exc:
            raise ContractViolation(f"{flag}: {exc}") from exc
    return MiqpLimits(**values)


def _check_outputs(*paths) -> None:
    """Raise, before any loading or solving, the error that writing an
    output would raise later: its directory is missing, or it is one."""
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def cmd_plan(args) -> int:
    limits = _limits(args)
    _check_outputs(args.output, args.svg)
    scenario = load_scenario(args.scenario)
    result = plan(scenario, chunk_multiplier=args.chunk, limits=limits)
    if args.output:
        save_plan(result, scenario, args.output, include_timings=args.timings)
    if args.svg:
        Path(args.svg).write_text(render_plan_svg(result, scenario))
    state = "converged" if result.converged else f"not converged ({result.termination})"
    report = validate_plan(result, scenario)
    print(
        f"{scenario.name}: {state}, {result.n_steps} steps in {len(result.chunks)} chunk(s), "
        f"final CoC error {result.coc_error:.3f} m, yaw error {result.yaw_error:.3f} rad, "
        f"validation {'clean' if report.ok else f'{len(report.issues)} issue(s)'}"
    )
    for c in result.chunks:
        print(
            f"  chunk {c.index}: {c.status}, objective {c.objective:.3f}, gap {c.gap:.4f}, "
            f"{c.nodes} nodes, kept {c.kept_count}/{c.chunk_steps} steps"
        )
    if not report.ok:
        print(report.summary(), file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_bench(args) -> int:
    limits = _limits(args)
    _check_outputs(args.output)
    scenario = load_scenario(args.scenario)
    try:
        horizons = [int(h) for h in args.horizons.split(",") if h.strip()]
    except ValueError as exc:
        raise ContractViolation("--horizons expects a comma-separated integer list") from exc
    if not horizons:
        raise ContractViolation("--horizons list is empty")
    # built and assembled before the header, so a bad horizon or an
    # infeasible scenario is rejected with nothing printed
    scenarios = [scenario.with_overrides(max_steps=h) for h in horizons]
    problems = [assemble(scn) for scn in scenarios]
    rows = []
    header = f"{'steps':>6} {'binaries':>9} {'continuous':>11} {'nodes':>6} {'gap':>8} {'time_s':>8} {'status':>11}"
    print(header)
    print("-" * len(header))
    for h, scn, problem in zip(horizons, scenarios, problems):
        n_bin = len(problem.binary_indices)
        n_cont = problem.n_vars - n_bin
        t0 = time.perf_counter()
        sol = solve_miqp(problem, limits=limits, rounding=make_rounding_heuristic(scn, problem))
        elapsed = time.perf_counter() - t0
        gap = sol.gap if sol.feasible else float("inf")
        print(f"{h:>6} {n_bin:>9} {n_cont:>11} {sol.nodes:>6} {gap:>8.4f} {elapsed:>8.2f} {sol.status:>11}")
        rows.append((h, n_bin, n_cont, sol.nodes, gap, elapsed, sol.status))
    ref = ", ".join(f"{k}:{v}" for k, v in sorted(BENCH_REFERENCE.items()))
    print(f"# external baseline mixed-integer variable counts for comparison: {ref}")
    if args.output:
        lines = ["steps,binaries,continuous,nodes,gap,time_s,status"]
        lines += [
            f"{h},{b},{c},{nd},{g:.6f},{t:.3f},{st}" for h, b, c, nd, g, t, st in rows
        ]
        Path(args.output).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    loaded = load_plan(args.plan, scenario)
    report = validate_plan(loaded, scenario)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_INFEASIBLE


def cmd_export_mip(args) -> int:
    _check_outputs(args.output)
    scenario = load_scenario(args.scenario)
    if args.horizon is not None:
        scenario = scenario.with_overrides(max_steps=args.horizon)
    problem = assemble(scenario)
    save_lp(problem, args.output, name=scenario.name)
    print(
        f"wrote {args.output}: {problem.n_vars} variables "
        f"({len(problem.binary_indices)} binary), {problem.n_ineq} inequalities, "
        f"{problem.n_eq} equalities"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepplan",
        description="Footstep planning for multilegged robots via mixed-integer QP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan footsteps for a scenario")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", help="write the plan file here")
    p.add_argument("--svg", help="render the plan to this SVG file")
    p.add_argument("--chunk", type=int, default=4, help="chunk size in configurations (default 4)")
    p.add_argument("--gap", type=float, default=DEFAULT_CHUNK_GAP, help="per-chunk optimality gap")
    p.add_argument("--node-limit", type=int, default=DEFAULT_CHUNK_NODES,
                   help="per-chunk branch-and-bound node cap; checked before each "
                   "pop, which solves both children, so a chunk can report one node "
                   "more than the cap")
    p.add_argument("--time-limit", type=float, default=None,
                   help="per-chunk wall-clock cap in seconds (breaks determinism)")
    p.add_argument("--timings", action="store_true",
                   help="embed measured solve times in the plan file (breaks determinism)")
    p.set_defaults(func=cmd_plan)

    b = sub.add_parser("bench", help="assemble and solve one problem per horizon")
    b.add_argument("scenario")
    b.add_argument("--horizons", required=True, help="comma-separated step counts, e.g. 12,24,36")
    b.add_argument("-o", "--output", help="write machine-readable CSV here")
    b.add_argument("--gap", type=float, default=DEFAULT_CHUNK_GAP)
    b.add_argument("--node-limit", type=int, default=DEFAULT_CHUNK_NODES)
    b.add_argument("--time-limit", type=float, default=None)
    b.set_defaults(func=cmd_bench)

    v = sub.add_parser("validate", help="re-check a plan file against exact geometry")
    v.add_argument("plan")
    v.add_argument("scenario")
    v.set_defaults(func=cmd_validate)

    e = sub.add_parser("export-mip", help="write the assembled problem in LP format")
    e.add_argument("scenario")
    e.add_argument("-o", "--output", required=True)
    e.add_argument("--horizon", type=int, default=None, help="override max_steps")
    e.set_defaults(func=cmd_export_mip)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StepPlanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, PlanningError):
            return EXIT_LIMITS if exc.reason == "limits" else EXIT_INFEASIBLE
        return EXIT_INFEASIBLE if isinstance(exc, InfeasibleScenarioError) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
