"""stepplan benchmark: one workload per run, in a single process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Set-up is repeated and its median reported as ``setup_s``; an untimed
warm-up follows; then the workload repeats until ``--seconds`` have passed,
at least twice, and ``wall_s`` is the median repetition. Untraced times are
scaled to the host's reference speed by an interleaved calibration kernel
(``calibrate.py``); the raw times are printed as ``info`` lines. Every output is
checked, and the deterministic counter block must repeat exactly across
repetitions. With ``--trace 1`` one untraced and one traced repetition run
and the per-layer metrics are printed instead. The last line of standard
output is the JSON result; the full record, spans included, is written to
``.perfbench_out/``. See ``perfbench/README.md``.
"""

import os

# one BLAS thread: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MIN_REPS = 2
MAX_REPS = 25


@dataclass
class Rep:
    """One timed repetition: its wall time (scaled and raw), output and counters."""

    wall: float
    raw_wall: float
    outcome: object
    counts: Counter
    solve_s: list[float]


def timed(cal, fn, *args):
    """Run ``fn(*args)``; return its result, then its seconds scaled to the
    reference speed and raw, both without calibration time. Inactive
    calibration leaves the time unscaled."""
    if cal.active:
        cal.sample()
    spent = cal.spent
    t0 = time.perf_counter()
    result = fn(*args)
    t1 = time.perf_counter()
    raw = t1 - t0 - (cal.spent - spent)
    if not cal.active:
        return result, raw, raw
    cal.sample()
    return result, raw * cal.scale(t0, t1), raw


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true", help="reduced inputs, for checking the benchmark itself"
    )
    return ap.parse_args(argv)


def conditions(load_at_start) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    load_at_start = list(os.getloadavg())
    args = parse_args(argv)
    if not (SRC / "stepplan" / "__init__.py").is_file():
        print(f"perfbench: no stepplan sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stepplan

    if Path(stepplan.__file__).resolve().parent != SRC / "stepplan":
        print(f"perfbench: imported stepplan from {stepplan.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from calibrate import Calibrator
    from metrics import END_TO_END, PER_LAYER, counter_block, layer_metrics, percentile
    from probe import Probe, install
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT, args.seed, args.smoke)
    cond = conditions(load_at_start)
    print(f"conditions: {json.dumps(cond)}")

    cal = Calibrator()
    probe = Probe(cal)
    attempted = 0
    failures: list[str] = []
    with install(probe) as api:
        # spans are timed raw: calibration would land inside them
        cal.active = args.trace == 0
        setup_times, raw_setup_times = [], []
        for _ in range(workload.setup_repeats):
            probe.reset()
            inputs, scaled, raw = timed(cal, workload.setup, api)
            setup_times.append(scaled)
            raw_setup_times.append(raw)
        workload.warm_up(api, inputs)

        reps: list[Rep] = []
        started = time.perf_counter()
        while True:
            if args.trace == 1 and len(reps) == 1:
                # a traced run's second repetition is traced, from a traced set-up on
                probe.recording = True
                probe.op = 1
                probe.reset()
                with probe.span("bench.setup"):
                    inputs = workload.setup(api)
                setup_counts = probe.counts
                probe.op = 2
            probe.reset()
            with probe.span("bench.run"):
                outcome, wall, raw_wall = timed(cal, workload.run, api, inputs)
            probe.recording = False
            solve_s = [
                sec * cal.scale(a, b) if cal.active else sec
                for a, b, sec in probe.durations["bnb.solve_miqp"]
            ]
            reps.append(Rep(wall, raw_wall, outcome, probe.counts, solve_s))
            probe.reset()  # the checks below must not count into the repetition
            n, fails = workload.check(inputs, outcome)
            if len(reps) == 1:
                n_oracle, oracle_fails = workload.oracle(inputs, outcome)
                n += n_oracle
                fails += oracle_fails
            attempted += n
            failures += fails
            if args.trace == 1:
                if len(reps) == 2:
                    break
                continue
            elapsed = time.perf_counter() - started
            median = statistics.median(r.raw_wall for r in reps)
            if len(reps) >= MIN_REPS and (elapsed + median > args.seconds or len(reps) >= MAX_REPS):
                break

    blocks = [counter_block(r.counts, r.outcome.objective) for r in reps]
    for k, block in enumerate(blocks, start=1):
        print(f"counters rep {k}: {json.dumps(block)}")
    if any(b != blocks[0] for b in blocks[1:]):
        attempted += 1
        failures.append("counter block differs between repetitions")
    walls = [r.wall for r in reps]
    raw_walls = [r.raw_wall for r in reps]
    # each call's time is its mean over the repetitions, which repeat the same calls
    solve_s = [statistics.fmean(ts) for ts in zip(*(r.solve_s for r in reps))]
    first = reps[0].outcome

    if args.trace == 0:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "ok_ratio": 1.0 - len(failures) / attempted,
            "objective": first.objective,
            "gap_max": first.gap_max,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "solve_p50_ms": 1e3 * percentile(solve_s, 50),
            "solve_p95_ms": 1e3 * percentile(solve_s, 95),
        }
        units = END_TO_END
    else:
        traced = reps[1]
        metrics = layer_metrics(
            probe, 1, 2, setup_counts, traced.counts, raw_walls[0], traced.outcome.sizes
        )
        units = PER_LAYER
        within = metrics["trace.unattributed_s"] <= abs(metrics["trace.overhead_s"])
        print(f"self times sum to the traced wall within the tracing overhead: {within}")

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"repetitions: {len(reps)} walls_s={[round(w, 4) for w in walls]} "
          f"setup_s={[round(t, 4) for t in setup_times]} solve samples={len(solve_s)} "
          f"(each the mean of {len(reps)} repetitions)")
    info = {
        "raw_wall_s": statistics.median(raw_walls),
        "raw_setup_s": statistics.median(raw_setup_times),
        "calibration_samples": len(cal.costs),
    }
    if cal.costs:
        info["host_slowdown"] = statistics.fmean(cal.costs) / cal.REF_S
    info.update(workload.info(statistics.median(raw_walls)))
    for key, value in info.items():
        print(f"info {key} = {value:.6g}")
    for f in failures:
        print(f"FAILED: {f}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "conditions": cond,
        "counter_blocks": blocks, "walls_s": walls, "raw_walls_s": raw_walls,
        "setup_s": setup_times, "raw_setup_s": raw_setup_times, "solve_s": [r.solve_s for r in reps],
        "calibration": {"ref_s": cal.REF_S, "times": cal.times, "costs": cal.costs},
        "failures": failures, "info": info, "result": result,
        "spans": [vars(s) for s in probe.spans],
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
