#!/usr/bin/env python3
"""In-process A/B of ``BoxQp`` set-up and solves between another checkout and this one.

Records every workspace and every ``BoxQp.solve`` call of the
``tree_random_miqp`` benchmark workload on the batch of one seed, or of
``plan()`` on each bundled preset named with ``--preset`` (the workspace's
problem and the call's fixings, cutoff and warm start, the latter as the
earlier call whose solution it is). It then replays them through the ``qp``
module of PARENT_DIR and through this checkout's, over ``--rounds`` rounds:
first ``BoxQp.from_miqp`` workspace by workspace, then the solves call by
call, with the first of the two alternating. Both checkouts replay each call
with its cutoff, and a warm call starts from its start call's replayed
solution in each. The two checkouts' workspaces must find the same opposite
row pairs and pair groups and agree on whether their presolve tests rows.
Every ``QpSolution`` of this checkout must equal the parent's bit for bit in
every field, with its lazily computed ``y``, ``prim_res`` and ``dual_res``
(read after the timed replay). One that ended at the cutoff (status
"cutoff") holds a certified lower bound as its objective: unless the
parent's solve of that call without a cutoff is infeasible, the parent's
objective must not lie below that bound by more than ``BOUND_TOL`` relative.
The parent solves those calls once more without a cutoff for this, on the
first round and untimed. The tool prints the number of cutoff solves, the
unsound ones and the smallest relative margin of a parent objective over its
bound, the number of warm calls, the ratio of this checkout's total
interior-point iterations to the parent's (a warm call's cold retry
included), how many solves of each checkout ended at an active-set solve
(``QpSolution.polished``), how many KKT systems each checkout's
active-set step solved (calls of ``_active_set_point``) and how many LU
factorizations each made on the LU path, those KKT solves and the Newton
steps' (``_LuNewton.factor`` calls), all on the first round; a checkout
whose ``qp`` has no such step solves none. A change that trades KKT solves
for Newton steps shows its net in the factorizations. It also prints the
median over rounds of this checkout's set-up time and solve time over the
parent's, and, for each checkout, the sum over
workspaces and over calls of each one's minimum time across rounds, with the
ratio of those sums: a per-round ratio moves by several percent with the
host, while a call's minimum keeps only the noise that slows every round of
that call. The same sums are printed for each call's presolve
(``BoxQp._presolve``, the part of a solve before its interior point), run
alone after each round's solves, to show which part of a solve a
difference comes from. Both modules run in one process, so a drift in host speed between
processes does not enter the ratios.

For a deterministic counter next to those ratios, the tool replays the
calls once more through each checkout, untimed, under ``sys.setprofile``,
and prints per solve and per interior-point iteration how often they go
through numpy's slow entry points: ``ufunc.reduce`` calls (a min, max, any
or all reduction; ``_lagrangian_bound`` keeps one ``np.add.reduce`` for
its bits) and calls of any Python function under ``numpy/``, such as the
dispatchers of ``np.dot`` and ``np.concatenate``, ``np.count_nonzero`` or
fromnumeric's wrappers, with the functions called most:

    python tools/ab_qp.py ../parent-checkout --seed 1 --rounds 7
    python tools/ab_qp.py ../parent-checkout --preset quadruped_tilted_terrain hexapod_rotation

The tree workspaces are all dense and test no row; a preset's are all CSR
and test every row. The tool prints how many workspaces test rows in each
checkout. When solutions differ, it also prints how many changed status,
by parent and new status, with how many of the new "optimal" ones lie at or
above their call's cutoff (a caller discards them as it discards a cutoff),
how many changed iteration count, and, over the solutions whose status is
unchanged, the largest relative objective difference and the largest
entry of |x - x_parent|: a change that moves only last bits shows 0 status
and 0 iteration changes and differences near rounding.

Exits 1 if any workspace structure or solution differs, or any cutoff bound
is unsound.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import importlib
import importlib.util
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# one BLAS thread, as in the benchmark: tiny products gain nothing from threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from stepplan import bnb, qp  # noqa: E402

#: how far, relative to max(1, |bound|), a parent objective may lie below a
#: cutoff bound: the parent's converged objective is itself inexact
BOUND_TOL = 1e-7


def load_module(root: Path, alias: str, name: str):
    """Module ``name`` of the ``stepplan`` package under ``root``, the package imported as ``alias``."""
    pkg_dir = root / "src" / "stepplan"
    spec = importlib.util.spec_from_file_location(
        alias, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[alias] = pkg
    spec.loader.exec_module(pkg)
    return importlib.import_module(f"{alias}.{name}")


def tree_batch(seed: int):
    """A callable that solves the ``tree_random_miqp`` batch of ``seed``."""
    from perfbench.workloads import TreeRandomMiqp

    workload = TreeRandomMiqp(ROOT, seed, False)
    problems = workload.setup(bnb)
    return lambda: workload.run(bnb, problems)


def preset_plan(name: str):
    """A callable that plans the bundled preset ``name`` at default limits."""
    from stepplan.planner import plan
    from stepplan.scenario_io import load_scenario

    scenario = load_scenario(ROOT / "src" / "stepplan" / "scenarios" / f"{name}.json")
    return lambda: plan(scenario)


@contextmanager
def counted_factorizations(modules):
    """Yield one ``Counter`` per module of the LU factorizations that
    module makes inside on the LU path: "kkt", the KKT systems its
    active-set step solves (``_active_set_point``), and "newton", its
    Newton steps' ``_LuNewton.factor`` calls. A module without the step
    counts no "kkt"."""
    counts = [collections.Counter() for _ in modules]
    real = [
        (owner, name, key, count, getattr(owner, name))
        for m, count in zip(modules, counts)
        for owner, name, key in ((m, "_active_set_point", "kkt"), (m._LuNewton, "factor", "newton"))
        if hasattr(owner, name)
    ]

    def counting(count, key, fn):
        return lambda *args: count.update((key,)) or fn(*args)

    for owner, name, key, count, fn in real:
        setattr(owner, name, counting(count, key, fn))
    try:
        yield counts
    finally:
        for owner, name, _, _, fn in real:
            setattr(owner, name, fn)


def record_calls(run):
    """The problems of the workspaces ``run()`` builds and each solve as
    (workspace, fixings, cutoff, start), the start as the index of the call
    that returned it, or None."""
    spaces, calls, index = [], [], {}
    made, kept = {}, []  # the call of each solution, which is kept so that its id stays its own
    from_miqp, solve = qp.BoxQp.from_miqp, qp.BoxQp.solve

    def recording_from_miqp(cls, problem):
        ws = from_miqp(problem)
        index[id(ws)] = len(spaces)
        spaces.append(problem)
        return ws

    def recording_solve(ws, fixings=None, cutoff=math.inf, start=None):
        calls.append((index[id(ws)], dict(fixings or {}), cutoff, None if start is None else made[id(start)]))
        sol = solve(ws, fixings, cutoff, start)
        made[id(sol)] = len(calls) - 1
        kept.append(sol)
        return sol

    qp.BoxQp.from_miqp = classmethod(recording_from_miqp)
    qp.BoxQp.solve = recording_solve
    try:
        run()
    finally:
        qp.BoxQp.from_miqp, qp.BoxQp.solve = classmethod(from_miqp.__func__), solve
    return spaces, calls


def replay(modules, spaces, calls, first: int):
    """Build every workspace and solve every call, with its cutoff, through
    both modules, alternating which goes first. A warm call starts from its
    start call's solution in each module. Then run each call's presolve
    (``BoxQp._presolve``) alone, the part of a solve before its interior
    point, again alternating.

    Returns each module's set-up time per workspace, workspaces, time per
    solve, solutions and time per presolve, the times as arrays."""
    setup, workspaces = np.zeros((2, len(spaces))), [[], []]
    for i, problem in enumerate(spaces):
        for j in (0, 1) if (i + first) % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            workspaces[j].append(modules[j].BoxQp.from_miqp(problem))
            setup[j, i] = time.perf_counter() - t0
    seconds, sols = np.zeros((2, len(calls))), [[], []]
    for i, (k, fixings, cutoff, start) in enumerate(calls):
        for j in (0, 1) if (i + first) % 2 == 0 else (1, 0):
            warm = None if start is None else sols[j][start]
            t0 = time.perf_counter()
            sols[j].append(workspaces[j][k].solve(fixings=fixings, cutoff=cutoff, start=warm))
            seconds[j, i] = time.perf_counter() - t0
    presolve = np.zeros((2, len(calls)))
    for i, (k, fixings, _, _) in enumerate(calls):
        for j in (0, 1) if (i + first) % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            workspaces[j][k]._presolve(fixings)
            presolve[j, i] = time.perf_counter() - t0
    return setup, workspaces, seconds, sols, presolve


def entry_census(workspaces, calls) -> tuple[collections.Counter, collections.Counter, int]:
    """Replay ``calls`` through ``workspaces`` under ``sys.setprofile``:
    the ``ufunc.reduce`` calls they make, the calls of Python functions
    under ``numpy/`` by name, and their iterations."""
    seen, numpy_calls, sols = collections.Counter(), collections.Counter(), []

    def profile(frame, event, arg):
        if event == "c_call":
            if arg.__name__ == "reduce" and isinstance(getattr(arg, "__self__", None), np.ufunc):
                seen["ufunc.reduce"] += 1
        elif event == "call" and "numpy" in Path(frame.f_code.co_filename).parts:
            seen["numpy Python calls"] += 1
            numpy_calls[f"{Path(frame.f_code.co_filename).name}:{frame.f_code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        for k, fixings, cutoff, start in calls:
            warm = None if start is None else sols[start]
            sols.append(workspaces[k].solve(fixings=fixings, cutoff=cutoff, start=warm))
    finally:
        sys.setprofile(None)
    return seen, numpy_calls, sum(sol.iterations for sol in sols)


def structure(ws) -> list[np.ndarray]:
    """A workspace's opposite pairs, their groups and whether it tests rows."""
    return [ws._pairs, ws._pair_groups, np.array(ws._tests_rows)]


def same_arrays(u: np.ndarray, v: np.ndarray) -> bool:
    return u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


def same(a, b) -> bool:
    """Whether two solutions agree bit for bit in every public field and in
    the lazily computed ``y``, ``prim_res`` and ``dual_res``."""
    public = [f.name for f in dataclasses.fields(a) if not f.name.startswith("_")]
    for name in dict.fromkeys(public + ["y", "prim_res", "dual_res"]):
        u, v = getattr(a, name), getattr(b, name)
        if isinstance(u, np.ndarray):
            if not same_arrays(u, v):
                return False
        elif np.asarray(u).tobytes() != np.asarray(v).tobytes():
            return False
    return True


def differences(old, new, cutoffs) -> str:
    """How the differing solutions differ: status changes, by parent and
    this status, with how many of those to "optimal" have an objective at
    or above the call's cutoff (``cutoffs``, by call), which the caller
    discards as it discards a cutoff; iteration changes; and over unchanged
    statuses the largest relative objective difference and the largest
    |x - x_parent| entry (infeasible solutions have neither, cutoff
    solutions no x)."""
    changed = [
        (a.status, b.status, b.objective >= cut) for a, b, cut in zip(old, new, cutoffs) if a.status != b.status
    ]
    status = len(changed)
    kinds = collections.Counter((was, now) for was, now, _ in changed)
    above = sum(now == "optimal" and over for _, now, over in changed)
    iterations = sum(a.iterations != b.iterations for a, b in zip(old, new))
    rel_obj = max_dx = 0.0
    for a, b in zip(old, new):
        if a.status != b.status or a.status in ("infeasible", "cutoff"):
            continue
        if a.objective != b.objective:
            rel_obj = max(rel_obj, abs(b.objective - a.objective) / max(abs(a.objective), abs(b.objective)))
        max_dx = max(max_dx, float(np.max(np.abs(b.x - a.x), initial=0.0)))
    return (
        f"status changed: {status} ("
        + ", ".join(f"{was} to {now} {count}" for (was, now), count in sorted(kinds.items()))
        + f"; to optimal at or above the cutoff {above}); iterations changed: {iterations}; "
        f"largest relative objective difference: {rel_obj:.3g}; largest |dx|: {max_dx:.3g}"
    )


def bound_margins(uncut, new) -> list[float]:
    """Per cutoff solve of ``new`` whose parent solve without a cutoff (in
    ``uncut``, by call index) is not infeasible, how far the parent's
    objective lies above the bound, relative to max(1, |bound|)."""
    return [
        (uncut[i].objective - b.objective) / max(1.0, abs(b.objective))
        for i, b in enumerate(new)
        if b.status == "cutoff" and uncut[i].status != "infeasible"
    ]


def compare(label: str, run, parent, rounds: int) -> bool:
    """Record ``run()``, replay it through both modules; whether all agree."""
    spaces, calls = record_calls(run)
    print(f"{label}: {len(spaces)} workspaces, {len(calls)} solves", flush=True)
    setup_ratios, ratios, differ, structures, how = [], [], 0, 0, ""
    cutoffs, unsound, margin = 0, 0, math.inf
    least_setup, least = np.full((2, len(spaces)), np.inf), np.full((2, len(calls)), np.inf)
    least_presolve = np.full((2, len(calls)), np.inf)
    for r in range(rounds):
        # counted on the first round alone, so that the other rounds' times carry no counting
        with counted_factorizations((parent, qp) if r == 0 else ()) as lu:
            setup, (ws_old, ws_new), seconds, (old, new), presolve = replay((parent, qp), spaces, calls, r)
        np.minimum(least_setup, setup, out=least_setup)
        np.minimum(least, seconds, out=least)
        np.minimum(least_presolve, presolve, out=least_presolve)
        (s_parent, s_new), (t_parent, t_new) = setup.sum(axis=1), seconds.sum(axis=1)
        if r == 0:  # a workspace is a function of its problem, a solve of its fixings and cutoff
            structures = sum(
                not all(map(same_arrays, structure(a), structure(b))) for a, b in zip(ws_old, ws_new)
            )
            print(
                f"workspaces testing rows: parent {sum(ws._tests_rows for ws in ws_old)}, "
                f"this {sum(ws._tests_rows for ws in ws_new)} of {len(spaces)}",
                flush=True,
            )
            cut = [b.status == "cutoff" for b in new]
            cutoffs = sum(cut)
            uncut = {
                i: ws_old[calls[i][0]].solve(fixings=calls[i][1]) for i, c in enumerate(cut) if c
            }
            margins = bound_margins(uncut, new)
            unsound = sum(m < -BOUND_TOL for m in margins)
            margin = min(margins, default=math.inf)
            iterations = [sum(sol.iterations for sol in sols) for sols in (old, new)]
            polished = [sum(sol.polished for sol in sols) for sols in (old, new)]
            kkt_counts = [count["kkt"] for count in lu]
            lu_counts = [count["kkt"] + count["newton"] for count in lu]
        differing = sum(not same(a, b) for a, b in zip(old, new))
        if differing > differ:
            differ, how = differing, differences(old, new, [c[2] for c in calls])
        setup_ratios.append(s_new / s_parent)
        ratios.append(t_new / t_parent)
        print(
            f"round {r + 1}: set-up parent {s_parent:.4f} s, this {s_new:.4f} s, "
            f"ratio {setup_ratios[-1]:.3f}; "
            f"solves parent {t_parent:.3f} s, this {t_new:.3f} s, ratio {ratios[-1]:.3f}",
            flush=True,
        )
    (s_parent, s_new), (t_parent, t_new) = least_setup.sum(axis=1), least.sum(axis=1)
    p_parent, p_new = least_presolve.sum(axis=1)
    print(
        f"sum of per-call minima: set-up parent {s_parent:.4f} s, this {s_new:.4f} s, "
        f"ratio {s_new / s_parent:.3f}; solves parent {t_parent:.3f} s, this {t_new:.3f} s, "
        f"ratio {t_new / t_parent:.3f}; presolves parent {p_parent:.3f} s, this {p_new:.3f} s, "
        f"ratio {p_new / p_parent:.3f}"
    )
    print(
        f"median set-up ratio {statistics.median(setup_ratios):.3f}, median solve ratio "
        f"{statistics.median(ratios):.3f}; workspace structures differing: {structures} of {len(spaces)}; "
        f"solutions differing: {differ} of {len(calls)}"
    )
    print(
        f"cutoff solves: {cutoffs} of {len(calls)}; unsound bounds: {unsound}; "
        f"smallest relative margin of a parent objective over its bound: {margin:.3g}"
    )
    print(
        f"warm calls: {sum(c[3] is not None for c in calls)} of {len(calls)}; "
        f"iterations parent {iterations[0]}, this {iterations[1]}, ratio {iterations[1] / iterations[0]:.3f}; "
        f"polished solves parent {polished[0]}, this {polished[1]}; "
        f"KKT solves parent {kkt_counts[0]}, this {kkt_counts[1]}; "
        f"LU factorizations parent {lu_counts[0]}, this {lu_counts[1]}"
    )
    for name, workspaces in (("parent", ws_old), ("this", ws_new)):
        seen, numpy_calls, its = entry_census(workspaces, calls)
        counts = [(key, seen[key]) for key in ("ufunc.reduce", "numpy Python calls")]
        print(
            f"entry census, {name} (untimed): per solve "
            + ", ".join(f"{key} {count / len(calls):.2f}" for key, count in counts)
            + "; per iteration "
            + ", ".join(f"{key} {count / max(its, 1):.3f}" for key, count in counts)
            + "; most called, per solve: "
            + ", ".join(f"{fn} {count / len(calls):.2f}" for fn, count in numpy_calls.most_common(3))
        )
    if differ:
        print(f"differing solutions: {how}")
    return not (differ or structures or unsound)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--preset", nargs="+", metavar="NAME",
        choices=sorted(p.stem for p in (ROOT / "src" / "stepplan" / "scenarios").glob("*.json")),
        help="replay the solves of plan() on these bundled presets instead of the tree batch",
    )
    args = parser.parse_args(argv)
    parent = load_module(args.parent.resolve(), "parent_stepplan", "qp")
    if args.preset:
        runs = [(name, preset_plan(name)) for name in args.preset]
    else:
        runs = [(f"seed {args.seed}", tree_batch(args.seed))]
    agree = [compare(label, run, parent, args.rounds) for label, run in runs]
    return 0 if all(agree) else 1


if __name__ == "__main__":
    sys.exit(main())
