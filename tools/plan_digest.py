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
path asked for), how many calls were warm-started and how many of those were solved again cold
(their warm interior point ended "max-iterations"), the equality rows the
CSR Newton systems eliminated through a pivot column, summed over calls,
how many CSR calls had a row without one and ran on the dense LU path
instead, each chunk's objective and ``best_bound`` (both ``%.9g``) and the
sha256 of the plan JSON followed by the plan SVG, so a change that moves a
plan shows its quality delta. A change that moves only
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
moves. For each seed given to ``--tree-seed`` it runs the ``tree_random_miqp``
benchmark workload on the batch of that seed and prints the total node
count, the solve, iteration, cutoff, polished, KKT-solve, undecided, refix,
warm and retry counts and the sha256 of every solution ``x`` (bytes in batch order). Run it from
the repository root on two commits and compare the outputs; only the solve,
iteration, cutoff, polished, KKT-solve, refix, warm, retry, eliminated and
dense counts may differ between two commits that keep every plan. A tree's sha256
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

from stepplan import bnb, qp  # noqa: E402
from stepplan.formulation import assemble  # noqa: E402
from stepplan.lp_export import problem_to_lp  # noqa: E402
from stepplan.plan_io import plan_to_json  # noqa: E402
from stepplan.planner import plan  # noqa: E402
from stepplan.scenario_io import load_scenario  # noqa: E402
from stepplan.svg import render_plan_svg  # noqa: E402

SCENARIOS = ROOT / "src" / "stepplan" / "scenarios"


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
    the active-set step solved, how many calls had a warm start, how many warm interior points ended "max-iterations", so
    that their call was solved again cold, the equality rows the calls' CSR Newton systems
    eliminated and the CSR calls that ran on the dense LU path."""

    solutions: list = dataclasses.field(default_factory=list)
    kkt: int = 0
    warm: int = 0
    retries: int = 0
    eliminated: int = 0
    dense: int = 0


@contextmanager
def recorded_solves():
    """Yield a ``Solves`` that records the ``BoxQp.solve`` calls made inside."""
    solves = Solves()
    real_solve, real_interior_point, real_presolve = qp.BoxQp.solve, qp._interior_point, qp.BoxQp._presolve
    real_point = qp._active_set_point

    def recording(ws, *args, **kwargs):
        sol = real_solve(ws, *args, **kwargs)
        solves.solutions.append(sol)
        solves.warm += kwargs.get("start") is not None
        return sol

    def interior_point(red, cutoff, start=None):
        out = real_interior_point(red, cutoff, start)
        solves.retries += start is not None and out[5] == "max-iterations"
        return out

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

    qp.BoxQp.solve, qp._interior_point, qp.BoxQp._presolve = recording, interior_point, presolve
    qp._active_set_point = point
    try:
        yield solves
    finally:
        qp.BoxQp.solve, qp._interior_point, qp.BoxQp._presolve = real_solve, real_interior_point, real_presolve
        qp._active_set_point = real_point


def solve_counts(solves: Solves, results) -> str:
    """The number of solves, their total iterations, how many ended at the
    cutoff, how many at an active-set solve, the KKT systems the active-set
    step solved, how many undecided ("max-iterations"), the total ``refix_solves``
    of the ``MiqpSolution`` results, and the warm-started solves and cold
    retries."""
    sols = solves.solutions
    cutoffs = sum(sol.status == "cutoff" for sol in sols)
    undecided = sum(sol.status == "max-iterations" for sol in sols)
    return (
        f"solves={len(sols)} iterations={sum(sol.iterations for sol in sols)} cutoffs={cutoffs} "
        f"polished={sum(sol.polished for sol in sols)} kkt={solves.kkt} undecided={undecided} "
        f"refix={sum(r.refix_solves for r in results)} "
        f"warm={solves.warm} retries={solves.retries}"
    )


def preset_digest(path: Path) -> str:
    scenario = load_scenario(path)
    with recorded_solves() as solves:
        result = plan(scenario)
    text = plan_to_json(result, scenario) + render_plan_svg(result, scenario)
    chunk_statuses = ",".join(c.solution.status for c in result.chunks)
    nodes = ",".join(str(c.solution.nodes) for c in result.chunks)
    objectives = ",".join("%.9g" % c.solution.objective for c in result.chunks)
    bounds = ",".join("%.9g" % c.solution.best_bound for c in result.chunks)
    return (
        f"{path.stem}: steps={result.n_steps} status={chunk_statuses} nodes={nodes} "
        f"{solve_counts(solves, [c.solution for c in result.chunks])} "
        f"eliminated={solves.eliminated} dense={solves.dense} "
        f"objectives={objectives} bounds={bounds} sha256={hashlib.sha256(text.encode()).hexdigest()}"
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
    for seed in args.tree_seed:
        print(tree_digest(seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
