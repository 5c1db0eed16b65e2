"""A/A check: the benchmark against itself, on one checkout.

Runs the whole suite twice with the same seed and compares the two
result sets::

    python3 bench/aa_check.py --seed 11

For every workload it prints each end-to-end metric's relative
difference and exits non-zero when one differs by more than its
``BENCHMARK.json`` bound, when any operation failed, or when a count
that must repeat exactly in a single-threaded replay did not.  A
benchmark that cannot agree with itself cannot show a regression.

Arguments other than ``--seed`` are passed through to ``run.py``
(``--seconds``, ``--scale``, ``--workload``, ...).
"""

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

#: Per-layer counts made by fixed-size, single-threaded replays: the
#: same seed must give the same number, digit for digit.
EXACT = (
    "search.sorted_accesses_per_query",
    "search.scored_per_query",
    "twig.rows",
    "cube.fact_rows",
    "storage.snapshot_bytes",
)


def run_suite(label, seed, passthrough):
    out = os.path.join(BENCH, "out", f"aa-{label}")
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--seed", str(seed),
         "--out", out, *passthrough],
        check=True,
    )
    with open(os.path.join(out, "results.json"), encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    arguments, passthrough = parser.parse_known_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {
            entry["name"]: entry["bound"]
            for entry in json.load(handle)["end_to_end"]
        }
    first = run_suite("a", arguments.seed, passthrough)
    second = run_suite("b", arguments.seed, passthrough)

    problems = []
    for workload in first:
        for group in first[workload]:
            for side in (first, second):
                result = side[workload][group]
                if result["failed"] or not result["correct"]:
                    problems.append(
                        f"{workload}/{group}: {result['failed']} of "
                        f"{result['attempted']} failed: {result['errors'][:2]}"
                    )
        a = first[workload].get("end_to_end", {}).get("metrics", {})
        b = second[workload].get("end_to_end", {}).get("metrics", {})
        for name, bound in bounds.items():
            if name not in a:
                continue
            base = a[name]["value"]
            difference = abs(b[name]["value"] - base) / base
            verdict = "ok" if difference <= bound else "OVER ITS BOUND"
            print(f"[{workload}] {name:28s} {base:12.5g} vs "
                  f"{b[name]['value']:12.5g} {a[name]['unit']:6s} "
                  f"differ {difference:7.2%} (bound {bound:.0%}) {verdict}")
            if difference > bound:
                problems.append(f"{workload}: {name} differs {difference:.2%}")
        a = first[workload].get("per_layer", {}).get("metrics", {})
        b = second[workload].get("per_layer", {}).get("metrics", {})
        for name in EXACT:
            if name in a and a[name]["value"] != b[name]["value"]:
                problems.append(
                    f"{workload}: {name} did not repeat exactly "
                    f"({a[name]['value']} vs {b[name]['value']})"
                )
    for problem in problems:
        print(f"A/A PROBLEM: {problem}")
    print("A/A check", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
