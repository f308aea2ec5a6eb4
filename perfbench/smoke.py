"""Smoke test of the benchmark itself, at reduced input size.

    python3 perfbench/smoke.py

Runs every workload with ``--smoke`` untraced and traced, including
``chunk_hexapod_stones``, which ``BENCHMARK.json`` does not list. Each run must
exit 0 and end with the JSON result. It must print and return exactly the
metrics ``BENCHMARK.json`` lists, each with its unit, with every output
correct. Its counter block must repeat across repetitions. Finally, a copy
of the benchmark without the program's sources must exit non-zero and
print no result. Exits 1 if any check fails.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(cwd: Path, script: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(proc, expected: dict) -> list[str]:
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"not correct: {[line for line in lines if line.startswith('FAILED')]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    for name, unit in expected.items():
        if not any(re.fullmatch(rf"{re.escape(name)} = \S+ {re.escape(unit)}", line) for line in lines):
            problems.append(f"{name} not printed with unit {unit}")
    blocks = [line.split(":", 1)[1] for line in lines if line.startswith("counters rep ")]
    if len(blocks) < 2 or any(b != blocks[0] for b in blocks):
        problems.append(f"counter blocks do not repeat: {blocks}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    failed = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check_run(run(ROOT, HERE / "run.py", workload, trace), expected[trace])
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'PASS'} {workload} --trace {trace}")
            for p in problems:
                print(f"    {p}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, bare / HERE.name / "run.py", spec["workloads"][0]["name"], 0, smoke=False)
    shutil.rmtree(bare)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    failed |= not ok
    print(f"{'PASS' if ok else 'FAIL'} without sources: exit {proc.returncode}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
