"""The system benchmark: one command, every metric by name and unit.

Suite (all five workloads, untraced then traced)::

    python3 bench/run.py --seed 11

One run, as the benchmark driver calls it -- the last stdout line is
the JSON result object::

    python3 bench/run.py --workload serve_cold --seed 11 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics; names, units and regression bounds are fixed in
``BENCHMARK.json`` at the repository root.  Everything is written
under ``--out`` (default ``bench/out/``): ``results.json``, one
``trace-<workload>.jsonl`` per traced run, and a scratch directory
that is removed before the run returns.  See ``bench/README.md``.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# The program under test is pure Python: "building" it is importing it
# from the checkout's own source tree.
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, run_workload  # noqa: E402

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def parse_arguments(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload (default: all five)")
    parser.add_argument("--seed", type=int, default=11,
                        help="seed of query pools, schedules and anchors")
    parser.add_argument("--seconds", "--duration", type=float,
                        default=float(spec["run_seconds"]),
                        help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end run only, 1: traced per-layer "
                             "run only (default: both)")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--no-traced", dest="trace", action="store_const",
                        const=0, help="same as --trace 0")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="Factbook generator scale (1.0 = 1600 documents)")
    parser.add_argument("--out", default=os.path.join(BENCH, "out"),
                        help="directory for results, traces and scratch")
    return parser.parse_args(argv)


def stamp(arguments):
    """Where and how these numbers were taken."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=False,
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "scale": arguments.scale,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "commit": commit,
    }


def with_units(result, group, spec):
    """Attach the spec's units; the names must be exactly the spec's.

    A per-layer metric a workload does not report belongs to a layer
    that workload never enters: it spent 0 there.
    """
    units = {entry["name"]: entry["unit"] for entry in spec[group]}
    measured = result["metrics"]
    if group == "per_layer":
        measured = {**dict.fromkeys(units, 0.0), **measured}
    if set(measured) != set(units):
        raise RuntimeError(
            f"{group} metrics do not match BENCHMARK.json: missing "
            f"{sorted(set(units) - set(measured))}, unexpected "
            f"{sorted(set(measured) - set(units))}"
        )
    result["metrics"] = {
        name: {"value": measured[name], "unit": units[name]}
        for name in units
    }
    return result


def report(workload, group, result):
    status = "correct" if result["correct"] else "INCORRECT"
    if not result["valid"]:
        status += ", INVALID (load generator fell behind its schedule)"
    print(f"[{workload}] {group}: attempted {result['attempted']}, "
          f"failed {result['failed']}, {status}")
    for message in result["errors"][:5]:
        print(f"[{workload}]   ! {message}")
    for name, entry in result["metrics"].items():
        print(f"[{workload}] {name:38s} {entry['value']:>16.6g} "
              f"{entry['unit']}")
    sys.stdout.flush()


def main(argv=None):
    spec = load_spec()
    arguments = parse_arguments(argv, spec)
    os.makedirs(arguments.out, exist_ok=True)
    names = [arguments.workload] if arguments.workload else [
        entry["name"] for entry in spec["workloads"]
    ]
    traces = [arguments.trace] if arguments.trace is not None else [0, 1]
    groups = {0: "end_to_end", 1: "per_layer"}
    results = {"stamp": stamp(arguments), "workloads": {}}
    print(f"benchmark {results['stamp']}")
    last = None
    for name in names:
        for trace in traces:
            last = with_units(
                run_workload(name, arguments.seed, arguments.seconds,
                             bool(trace), arguments.scale, arguments.out),
                groups[trace], spec,
            )
            results["workloads"].setdefault(name, {})[groups[trace]] = last
            report(name, groups[trace], last)
    with open(os.path.join(arguments.out, "results.json"), "w",
              encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if len(names) == 1 and len(traces) == 1:
        # The driver's contract: the last line is the result object,
        # whether or not the run was correct.
        print(json.dumps({
            key: last[key]
            for key in ("correct", "attempted", "failed", "metrics")
        }))
        return 0
    incorrect = [
        f"{name}/{group}"
        for name, by_group in results["workloads"].items()
        for group, result in by_group.items() if not result["correct"]
    ]
    if incorrect:
        print(f"INCORRECT runs: {', '.join(incorrect)}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
