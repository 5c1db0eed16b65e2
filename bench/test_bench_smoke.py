"""Smoke test of the system benchmark (collected by the tier-1 run).

Runs every workload, untraced and traced, on a 32-document corpus with
half-second phases, one set-up and a four-write tail, and checks the
contract ``BENCHMARK.json`` promises: every named workload and metric
is reported with a finite value and a unit, traces parse into trees
with one trace ID per request, and self times are never negative.  One
run goes through a subprocess, exactly as the benchmark driver's do.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import run
import workloads
from tracer import read_trace, self_times

BENCH = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH, "run.py")
SMALL = ["--scale", "0.02", "--seconds", "0.5"]


@pytest.fixture(scope="module")
def spec():
    path = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-out")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "SETUP_REPEATS", 1)
        patch.setattr(workloads, "WRITE_TAIL", 4)
        assert run.main(["--seed", "11", "--out", str(out), *SMALL]) == 0
    with open(out / "results.json", encoding="utf-8") as handle:
        return out, json.load(handle)


def test_every_named_metric_is_reported(spec, suite):
    _out, results = suite
    assert set(results["stamp"]) >= {"seed", "nproc", "python", "commit"}
    for workload in spec["workloads"]:
        by_group = results["workloads"][workload["name"]]
        for group in ("end_to_end", "per_layer"):
            result = by_group[group]
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            for metric in spec[group]:
                entry = result["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert math.isfinite(entry["value"]), metric["name"]
                if group == "end_to_end":
                    assert entry["value"] > 0, metric["name"]
    leftovers = [
        name for name in os.listdir(suite[0]) if name.startswith("work-")
    ]
    assert not leftovers, "scratch directories must be removed"


def test_traces_are_trees_with_non_negative_self_time(spec, suite):
    out, _results = suite
    for workload in spec["workloads"]:
        spans = read_trace(out / f"trace-{workload['name']}.jsonl")
        assert spans, workload["name"]
        ids = {span["id"] for span in spans}
        for span in spans:
            assert span["end"] >= span["start"]
            assert span["parent"] is None or span["parent"] in ids
            assert span["trace_id"] is not None
        roots = [span["trace_id"] for span in spans if span["parent"] is None]
        assert len(roots) == len(set(roots)), "one trace ID per request"
        assert min(self_times(spans).values()) >= -1e-9


def test_single_run_ends_with_the_result_object(spec, tmp_path):
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", "explore_cube", "--seed", "12",
         "--trace", "0", "--out", str(tmp_path), *SMALL],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        metric["name"] for metric in spec["end_to_end"]
    }
