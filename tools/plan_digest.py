#!/usr/bin/env python3
"""Print digests that show whether a change altered any plan or solution.

For each bundled preset, planned at default ``plan()`` limits, it prints the
number of plan steps, the chunk statuses, the node count of each chunk, the
number of ``BoxQp.solve`` calls, their total interior-point iterations, how
many ended at the incumbent cutoff (status "cutoff") and how many at an
active-set solve (``QpSolution.polished``), how many KKT systems the
active-set step solved (calls of ``qp._active_set_point``), how many ended
undecided (status "max-iterations": neither converged nor proved infeasible), the
total ``MiqpSolution.refix_solves`` of its chunks (the relaxations the incumbent
path asked for), how many calls were warm-started, how many Newton
factorizations failed (calls of ``_CholeskyNewton.factor`` or
``_LuNewton.factor`` that returned False, each of which ends its interior
point), the equality rows the
CSR Newton systems eliminated through a pivot column, summed over calls,
how many CSR calls had a row without one and ran on the dense LU path
instead, each chunk's objective and ``best_bound`` (both ``%.9g``) and the
sha256 of the plan JSON followed by the plan SVG, so a change that moves a
plan shows its quality delta. Two more lines per preset digest outputs that no
plan bit shows: the sha256 of the plan's ``validate_plan`` report (every
issue's fields and every family's worst, floats as ``float.hex``), and the
sha256 of every candidate list the rounding hook returned while planning, in
call order (each candidate's items in order, values as ``float.hex``), so a
change that moves a candidate or a report bit shows even when no plan moves. A change that moves only
the last bits of a plan keeps the steps, statuses, nodes, iterations,
objectives and bounds and shows a new sha256; one that only ends more
relaxations at the cutoff changes the iterations and cutoffs alone. A
second line per preset gives the sha256 of every field of the problems
``assemble`` builds from it at 1, 2 and 4 configurations, with the one CoC
window (see ``problem_fields``), so a change to ``assemble`` that moves
one bit shows even when no plan moves, then the sha256 of the
``problem_to_lp`` text of those problems, so a change to the variable names
or the LP writer shows too. One more line gives the sha256 of
every preset's region boxes (``lo`` then ``hi`` bytes, presets and regions in
order), so a change to the load path that moves a box shows even when no plan
moves. Then a proof census: each preset's first chunk of 4 configurations,
solved with its rounding hook to gap 1e-4 under a cap of 400 nodes (no time
limit, so the run is deterministic), prints one line with its status, nodes,
incumbent (``%.9g``), gap, solves, iterations and failed factorizations; the
deep nodes of a proof reach weights far wider than a plan's. For each seed
given to ``--tree-seed`` it runs the ``tree_random_miqp`` benchmark workload
on the batch of that seed and prints the total node count, the solve,
iteration, cutoff, polished, KKT-solve, undecided, refix, warm and
failed-factorization counts and the sha256 of every solution ``x`` (bytes in
batch order). Run it from the repository root on two commits and compare the
outputs; only the solve, iteration, cutoff, polished, KKT-solve, refix, warm,
failed-factorization, eliminated and dense counts may differ between two
commits that keep every plan (and the proof census's gaps in their last
digits). A tree's sha256
also moves when its solutions move in their last bits, as they do when
calls end at an active-set solve instead of the interior point's own test:

    python tools/plan_digest.py --tree-seed 1 2 3
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from contextlib import contextmanager
from pathlib import Path

# one BLAS thread, as in the benchmark: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

from stepplan import bnb, planner, qp  # noqa: E402
from stepplan.formulation import assemble, make_rounding_heuristic  # noqa: E402
from stepplan.lp_export import problem_to_lp  # noqa: E402
from stepplan.plan_io import plan_to_json  # noqa: E402
from stepplan.planner import plan, validate_plan  # noqa: E402
from stepplan.scenario_io import load_scenario  # noqa: E402
from stepplan.svg import render_plan_svg  # noqa: E402

SCENARIOS = ROOT / "src" / "stepplan" / "scenarios"
#: the proof census: each preset's first chunk of this many configurations,
#: to this gap under this node cap
PROOF_CONFIGS, PROOF_GAP, PROOF_NODES = 4, 1e-4, 400


def _array_bytes(a: np.ndarray) -> bytes:
    return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()


def problem_fields(problem) -> list[tuple[str, bytes]]:
    """(name, bytes) of every field of an ``MiqpProblem``: an array's dtype,
    shape and bytes; a sparse matrix's type and shape, then its ``data``,
    ``indices`` and ``indptr`` as arrays; the objective constant's float64
    bytes; the layout's field values and each tuple of families or labels."""
    out = []
    for field in dataclasses.fields(problem):
        value = getattr(problem, field.name)
        if sp.issparse(value):
            out.append((field.name, f"{type(value).__name__}{value.shape}".encode()))
            out += [(f"{field.name}.{part}", _array_bytes(getattr(value, part)))
                    for part in ("data", "indices", "indptr")]
        elif isinstance(value, np.ndarray):
            out.append((field.name, _array_bytes(value)))
        elif dataclasses.is_dataclass(value):
            out.append((field.name, repr(dataclasses.astuple(value)).encode()))
        elif isinstance(value, float):
            out.append((field.name, np.float64(value).tobytes()))
        else:
            out.append((field.name, repr(value).encode()))
    return out


@dataclasses.dataclass
class Solves:
    """The ``QpSolution`` of each ``BoxQp.solve`` call, the KKT systems
    the active-set step solved, how many calls had a warm start, how many Newton
    factorizations failed, the equality rows the calls' CSR Newton systems
    eliminated and the CSR calls that ran on the dense LU path."""

    solutions: list = dataclasses.field(default_factory=list)
    kkt: int = 0
    warm: int = 0
    factor_failures: int = 0
    eliminated: int = 0
    dense: int = 0


@contextmanager
def recorded_solves():
    """Yield a ``Solves`` that records the ``BoxQp.solve`` calls made inside."""
    solves = Solves()
    real_solve, real_presolve, real_point = qp.BoxQp.solve, qp.BoxQp._presolve, qp._active_set_point
    systems = qp._CholeskyNewton, qp._LuNewton
    real_factors = [cls.factor for cls in systems]

    def recording(ws, *args, **kwargs):
        sol = real_solve(ws, *args, **kwargs)
        solves.solutions.append(sol)
        solves.warm += kwargs.get("start") is not None
        return sol

    def counted(real_factor):
        def factor(system, w):
            ok = real_factor(system, w)
            solves.factor_failures += not ok
            return ok

        return factor

    def point(kkt, rhs, keep):
        solves.kkt += 1
        return real_point(kkt, rhs, keep)

    def presolve(ws, fixings):
        red = real_presolve(ws, fixings)
        if red is not None and ws.sparse:
            if red.newton is None:
                solves.dense += 1
            else:
                solves.eliminated += red.newton.nf - red.newton.nr
        return red

    qp.BoxQp.solve, qp.BoxQp._presolve, qp._active_set_point = recording, presolve, point
    for cls, real_factor in zip(systems, real_factors):
        cls.factor = counted(real_factor)
    try:
        yield solves
    finally:
        qp.BoxQp.solve, qp.BoxQp._presolve, qp._active_set_point = real_solve, real_presolve, real_point
        for cls, real_factor in zip(systems, real_factors):
            cls.factor = real_factor


@contextmanager
def recorded_candidates():
    """Yield a list that receives the bytes of each rounding-hook call's
    candidate list, in call order, for the hooks ``plan()`` makes inside."""
    calls = []
    real = planner.make_rounding_heuristic

    def make(*args, **kwargs):
        hook = real(*args, **kwargs)

        def recording(x, fixings):
            out = hook(x, fixings)
            calls.append("\n".join(
                " ".join(f"{k}:{float(v).hex()}" for k, v in cand.items()) for cand in out
            ).encode() + b"\n\n")
            return out

        return recording

    planner.make_rounding_heuristic = make
    try:
        yield calls
    finally:
        planner.make_rounding_heuristic = real


def report_bytes(report) -> bytes:
    """Every field of a ``PlanValidationReport``, floats as ``float.hex``."""
    lines = [f"{i.family}|{i.chunk}|{i.step}|{float(i.amount).hex()}|{float(i.allowed).hex()}|{i.detail}"
             for i in report.issues]
    lines += [f"{family}|{float(worst).hex()}" for family, worst in report.family_worst.items()]
    return "\n".join(lines).encode()


def solve_counts(solves: Solves, results) -> str:
    """The number of solves, their total iterations, how many ended at the
    cutoff, how many at an active-set solve, the KKT systems the active-set
    step solved, how many undecided ("max-iterations"), the total ``refix_solves``
    of the ``MiqpSolution`` results, the warm-started solves and the failed
    Newton factorizations."""
    sols = solves.solutions
    cutoffs = sum(sol.status == "cutoff" for sol in sols)
    undecided = sum(sol.status == "max-iterations" for sol in sols)
    return (
        f"solves={len(sols)} iterations={sum(sol.iterations for sol in sols)} cutoffs={cutoffs} "
        f"polished={sum(sol.polished for sol in sols)} kkt={solves.kkt} undecided={undecided} "
        f"refix={sum(r.refix_solves for r in results)} "
        f"warm={solves.warm} factor_failures={solves.factor_failures}"
    )


def preset_digest(path: Path) -> str:
    scenario = load_scenario(path)
    with recorded_solves() as solves, recorded_candidates() as candidates:
        result = plan(scenario)
    report = validate_plan(result, scenario)
    text = plan_to_json(result, scenario) + render_plan_svg(result, scenario)
    chunk_statuses = ",".join(c.solution.status for c in result.chunks)
    nodes = ",".join(str(c.solution.nodes) for c in result.chunks)
    objectives = ",".join("%.9g" % c.solution.objective for c in result.chunks)
    bounds = ",".join("%.9g" % c.solution.best_bound for c in result.chunks)
    return (
        f"{path.stem}: steps={result.n_steps} status={chunk_statuses} nodes={nodes} "
        f"{solve_counts(solves, [c.solution for c in result.chunks])} "
        f"eliminated={solves.eliminated} dense={solves.dense} "
        f"objectives={objectives} bounds={bounds} sha256={hashlib.sha256(text.encode()).hexdigest()}\n"
        f"{path.stem} validation: issues={len(report.issues)} "
        f"sha256={hashlib.sha256(report_bytes(report)).hexdigest()}\n"
        f"{path.stem} rounding: calls={len(candidates)} "
        f"sha256={hashlib.sha256(b''.join(candidates)).hexdigest()}"
    )


def problem_digest(path: Path) -> str:
    scenario = load_scenario(path)
    digest, lp_digest = hashlib.sha256(), hashlib.sha256()
    for n_configs in (1, 2, 4):
        problem = assemble(scenario.with_overrides(max_steps=n_configs * scenario.robot.n_legs))
        for name, data in problem_fields(problem):
            digest.update(name.encode() + data)
        lp_digest.update(problem_to_lp(problem).encode())
    return (
        f"{path.stem} problems: configs=1,2,4 sha256={digest.hexdigest()} "
        f"lp_sha256={lp_digest.hexdigest()}"
    )


def box_digest(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    count = 0
    for path in paths:
        for region in load_scenario(path).regions:
            lo, hi = region.bbox
            digest.update(lo.tobytes() + hi.tobytes())
            count += 1
    return f"region boxes: presets={len(paths)} regions={count} sha256={digest.hexdigest()}"


def proof_census(path: Path) -> str:
    scenario = load_scenario(path)
    chunk = scenario.with_overrides(max_steps=PROOF_CONFIGS * scenario.robot.n_legs)
    problem = assemble(chunk)
    rounding = make_rounding_heuristic(chunk, problem)
    with recorded_solves() as solves:
        sol = bnb.solve_miqp(problem, bnb.MiqpLimits(gap=PROOF_GAP, max_nodes=PROOF_NODES), rounding)
    sols = solves.solutions
    return (
        f"{path.stem} proof: configs={PROOF_CONFIGS} gap_limit={PROOF_GAP:g} max_nodes={PROOF_NODES} "
        f"status={sol.status} nodes={sol.nodes} incumbent={'%.9g' % sol.objective} gap={'%.9g' % sol.gap} "
        f"solves={len(sols)} iterations={sum(s.iterations for s in sols)} "
        f"factor_failures={solves.factor_failures}"
    )


def tree_digest(seed: int) -> str:
    from perfbench.workloads import TreeRandomMiqp

    workload = TreeRandomMiqp(ROOT, seed, False)
    problems = workload.setup(bnb)
    with recorded_solves() as solves:
        sols = workload.run(bnb, problems).payload
    digest = hashlib.sha256()
    for sol in sols:
        digest.update(sol.x.tobytes() if sol.x is not None else b"infeasible")
    return (
        f"tree_random_miqp seed {seed}: problems={len(problems)} "
        f"nodes={sum(s.nodes for s in sols)} {solve_counts(solves, sols)} "
        f"sha256={digest.hexdigest()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree-seed", type=int, nargs="*", default=[], metavar="SEED")
    args = parser.parse_args(argv)
    paths = sorted(SCENARIOS.glob("*.json"))
    for path in paths:
        print(preset_digest(path), flush=True)
        print(problem_digest(path), flush=True)
    print(box_digest(paths), flush=True)
    for path in paths:
        print(proof_census(path), flush=True)
    for seed in args.tree_seed:
        print(tree_digest(seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
