"""Check perfbench's seed-7 work counters and result digests against pins.

Usage (from the repository root)::

    python3 tools/check_perf_pins.py                      # every pinned workload
    python3 tools/check_perf_pins.py --workload grid_gh200

For each workload this runs::

    python3 perfbench/run.py --workload W --seed 7 --trace 1 --seconds 1

and compares the run's ``exact_counters`` and the result digests of every
repetition with ``tools/perf_pins.json``, exactly.  Counters (normals
drawn, passes speculated and evaluated, rollbacks, fsyncs, events, cache
hits and misses, ...) and digests do not depend on the host, so a change
that does more work or changes a result fails on any machine.  The run
must also report ``"correct": true`` with no failed operations.

The pins were recorded from this command's output; a change that is meant
to alter them must update the file and say why.  Exit status: 0 when
every workload matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tools" / "perf_pins.json"


def run_traced(workload: str, seed: int) -> tuple[dict, dict]:
    """The ``{"context"}`` object and the final result line of one run."""
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--trace", "1", "--seconds", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    context = next(line["context"] for line in lines if "context" in line)
    return context, lines[-1]


def compare(workload: str, pinned: dict, context: dict, result: dict) -> list[str]:
    """Every way the run differs from its pins (empty when it matches)."""
    problems = []
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(
            f"results not correct (failed={result.get('failed')}): {context.get('failures')}"
        )
    counters = context.get("exact_counters") or {}
    for name in sorted(set(pinned["exact_counters"]) | set(counters)):
        want = pinned["exact_counters"].get(name)
        got = counters.get(name)
        if want != got:
            problems.append(f"counter {name}: pinned {want}, got {got}")
    for i, digests in enumerate(context.get("digests", [])):
        if digests != pinned["digests"]:
            problems.append(f"repetition {i} digests: pinned {pinned['digests']}, got {digests}")
    return [f"{workload}: {p}" for p in problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", help="workload to check (repeatable; default: all)"
    )
    args = parser.parse_args(argv)
    pins = json.loads(PINS.read_text())
    workloads = args.workload or list(pins["workloads"])
    problems = []
    for workload in workloads:
        if workload not in pins["workloads"]:
            problems.append(f"{workload}: no pins in {PINS.name}")
            continue
        context, result = run_traced(workload, pins["seed"])
        found = compare(workload, pins["workloads"][workload], context, result)
        print(f"{workload}: {'ok' if not found else 'MISMATCH'}")
        problems.extend(found)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
