#!/usr/bin/env python3
"""In-process A/B of ``assemble`` between another checkout and this one.

Records every chunk scenario that ``plan()`` assembles on each bundled
preset (or on the presets named with ``--preset``), then assembles each
one, with the one CoC window, through the ``formulation`` module of
PARENT_DIR and through this checkout's, over ``--rounds`` rounds, with the
first of the two alternating call by call. Every field of the two ``MiqpProblem`` results must be
bit-identical: each array's dtype, shape and bytes, each CSR matrix's type,
shape, ``data``, ``indices`` and ``indptr``, the objective constant, the
layout, and every family and label. The tool prints, per round, each
checkout's total time and their ratio, and at the end the sum over calls of
each call's minimum time across rounds, with the ratio of those sums. Both
modules run in one process, so a drift in host speed between processes
does not enter the ratios:

    python tools/ab_assemble.py ../parent-checkout --rounds 9
    python tools/ab_assemble.py ../parent-checkout --preset quadruped_tilted_terrain

The chunk scenarios are this checkout's ``Scenario`` objects. A checkout
whose ``assemble`` reads a field they lack (one from before the CoC window
was fixed reads ``coc_convention``) cannot assemble them, so run the tool
inside that checkout, with this one as PARENT_DIR.

Exits 1 if any problem differs.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

# one BLAS thread, as in the benchmark
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from ab_qp import load_module  # noqa: E402
from plan_digest import problem_fields  # noqa: E402
from stepplan import formulation, planner  # noqa: E402
from stepplan.scenario_io import load_scenario  # noqa: E402

SCENARIOS = ROOT / "src" / "stepplan" / "scenarios"


def record_chunks(name: str) -> list:
    """The chunk scenarios ``plan()`` assembles on the bundled preset ``name``."""
    scenarios = []
    real = planner.assemble

    def recording(scenario):
        scenarios.append(scenario)
        return real(scenario)

    planner.assemble = recording
    try:
        planner.plan(load_scenario(SCENARIOS / f"{name}.json"))
    finally:
        planner.assemble = real
    return scenarios


def replay(modules, scenarios, first: int):
    """Assemble every scenario through both modules, alternating which goes
    first; each module's seconds per call (an array) and problems."""
    seconds, problems = np.zeros((2, len(scenarios))), [[], []]
    for i, scenario in enumerate(scenarios):
        for j in (0, 1) if (i + first) % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            problems[j].append(modules[j].assemble(scenario))
            seconds[j, i] = time.perf_counter() - t0
    return seconds, problems


def differing_fields(a, b) -> list[str]:
    """Names of the fields in which two problems differ."""
    fa, fb = dict(problem_fields(a)), dict(problem_fields(b))
    return [name for name in dict.fromkeys([*fa, *fb]) if fa.get(name) != fb.get(name)]


def main(argv=None) -> int:
    presets = sorted(p.stem for p in SCENARIOS.glob("*.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--preset", nargs="+", metavar="NAME", choices=presets, default=presets)
    args = parser.parse_args(argv)
    parent = load_module(args.parent.resolve(), "parent_stepplan", "formulation")
    labels, scenarios = [], []
    for name in args.preset:
        chunks = record_chunks(name)
        labels += [f"{name} chunk {k}" for k in range(len(chunks))]
        scenarios += chunks
    print(f"{len(args.preset)} presets, {len(scenarios)} chunk scenarios", flush=True)
    ratios, differ = [], {}
    least = np.full((2, len(scenarios)), np.inf)
    for r in range(args.rounds):
        seconds, (old, new) = replay((parent, formulation), scenarios, r)
        np.minimum(least, seconds, out=least)
        for label, a, b in zip(labels, old, new):
            fields = differing_fields(a, b)
            if fields:
                differ[label] = fields
        t_parent, t_new = seconds.sum(axis=1)
        ratios.append(t_new / t_parent)
        print(
            f"round {r + 1}: parent {t_parent * 1e3:.2f} ms, this {t_new * 1e3:.2f} ms, "
            f"ratio {ratios[-1]:.3f}",
            flush=True,
        )
    for label, fields in differ.items():
        print(f"{label}: differs in {', '.join(fields)}")
    t_parent, t_new = least.sum(axis=1)
    print(
        f"sum of per-call minima: parent {t_parent * 1e3:.2f} ms, this {t_new * 1e3:.2f} ms, "
        f"ratio {t_new / t_parent:.3f}; median round ratio {statistics.median(ratios):.3f}; "
        f"problems differing: {len(differ)} of {len(scenarios)}"
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
