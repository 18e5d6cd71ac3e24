"""Perf regression gate: perfbench on a base commit and on this tree, A/B.

Usage (from a git checkout)::

    python3 tools/perf_gate.py BASE_REF

The change side is the working tree this file lives in; the parent side
is a detached ``git worktree`` of ``BASE_REF`` in a temporary directory,
removed afterwards.  Each side runs its own ``perfbench/run.py``, which
imports the ``src/`` beside it.  The command, workloads, end-to-end
metrics with their ``better`` direction and ``bound``, and ``run_seconds``
come from the **parent's** ``BENCHMARK.json``, so a change cannot loosen
its own gate.

Pair ``i`` runs ``--workload W --seed i+1 --seconds run_seconds --trace 0``
on both sides, back to back on the same host, alternating which side goes
first.  For every workload and end-to-end metric the gate compares the
medians over the pairs and fails when the change is worse than the parent
by more than the metric's bound.  It also fails when any change-side run
reports ``"correct": false`` or a larger ``failed / attempted`` share than
the parent.  Comparing against the parent measured on the same runner
needs no host normalization and no committed baseline.

Prints one row per workload and metric, then one JSON line.  Exit status:
0 on a pass, 1 on a fail.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: pairs of runs per workload.  Sized on a shared 2-CPU container at
#: run_seconds 20, clean tree against itself: single-pair change/parent
#: ratios of the end-to-end metrics ranged 0.70-1.27, the ratio of the
#: medians of every 3-pair subset 0.73-1.22, and of all 5 pairs 0.80-1.19.
#: Five pairs keep a clean tree inside the 0.25 bounds with some margin;
#: one gate run took ~18 minutes there.
PAIRS = 5


def run_perfbench(root: Path, command: list, workload: str, seed: int, seconds) -> dict:
    """The final result line of one perfbench run in checkout ``root``."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"perfbench {workload} seed {seed} in {root} exited "
            f"{proc.returncode}: {proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed_share(results: list) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def verdict(benchmark: dict, parent: dict, change: dict) -> dict:
    """Compare parsed perfbench result lines of the two sides.

    ``benchmark`` is the parent's ``BENCHMARK.json``; ``parent`` and
    ``change`` map each workload name to its list of result lines.
    Returns ``{"pass", "rows", "problems"}``: one row per workload and
    end-to-end metric, and one problem string per reason to fail.
    """
    rows, problems = [], []
    for workload in (w["name"] for w in benchmark["workloads"]):
        base, new = parent[workload], change[workload]
        if not all(r["correct"] is True for r in new):
            problems.append(f"{workload}: change reports correct: false")
        if failed_share(new) > failed_share(base):
            problems.append(
                f"{workload}: failed share {failed_share(new):.3g} "
                f"> parent {failed_share(base):.3g}"
            )
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if not all(name in r["metrics"] for r in new):
                problems.append(f"{workload} {name}: missing on the change side")
                continue
            p = statistics.median(r["metrics"][name]["value"] for r in base)
            c = statistics.median(r["metrics"][name]["value"] for r in new)
            ratio = c / p
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            ok = worse <= bound
            rows.append({"workload": workload, "metric": name, "parent": p,
                         "change": c, "ratio": ratio, "bound": bound, "ok": ok})
            if not ok:
                problems.append(
                    f"{workload} {name}: {c:.4g} vs parent {p:.4g} "
                    f"({worse:+.1%} worse, bound {bound:.0%})"
                )
    return {"pass": not problems, "rows": rows, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref", help="git ref of the parent commit")
    base_ref = parser.parse_args(argv).base_ref
    tmp = Path(tempfile.mkdtemp(prefix="perf_gate-"))
    base_root = tmp / "parent"
    try:
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(base_root), base_ref],
            cwd=ROOT, check=True, capture_output=True, text=True,
        )
        benchmark = json.loads((base_root / "BENCHMARK.json").read_text())
        sides = {"parent": base_root, "change": ROOT}
        runs = {side: {} for side in sides}
        for w in benchmark["workloads"]:
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].setdefault(w["name"], []).append(run_perfbench(
                        sides[side], benchmark["command"], w["name"], i + 1,
                        benchmark["run_seconds"],
                    ))
    except (subprocess.CalledProcessError, RuntimeError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        print(f"perf_gate: {detail}", file=sys.stderr)
        print(json.dumps({"pass": False, "base": base_ref, "error": str(detail)}))
        return 1
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(base_root)],
            cwd=ROOT, capture_output=True,
        )
        shutil.rmtree(tmp, ignore_errors=True)

    result = verdict(benchmark, runs["parent"], runs["change"])
    print(f"{'workload':<20} {'metric':<22} {'parent':>10} {'change':>10} "
          f"{'ratio':>7} {'bound':>6}  verdict")
    for row in result["rows"]:
        print(f"{row['workload']:<20} {row['metric']:<22} {row['parent']:>10.4g} "
              f"{row['change']:>10.4g} {row['ratio']:>7.3f} {row['bound']:>6.2f}  "
              f"{'ok' if row['ok'] else 'FAIL'}")
    for problem in result["problems"]:
        print(f"FAIL {problem}")
    print(json.dumps({"base": base_ref, "pairs": PAIRS, **result}))
    return 0 if result["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
