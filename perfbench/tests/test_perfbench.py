"""Tests of the benchmark itself, at the tiny size and under two seeds.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root (about three minutes).
"""

from __future__ import annotations

import functools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DEFINITION = json.load(_fh)

WORKLOADS = [workload["name"] for workload in DEFINITION["workloads"]]
SEEDS = (1, 2)


@functools.lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, attempt: int = 0) -> tuple[int, str]:
    """Run the benchmark at the tiny size; ``attempt`` separates two
    otherwise identical invocations."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    return done.returncode, done.stdout + done.stderr


def result(workload: str, seed: int, trace: int, attempt: int = 0) -> dict:
    code, output = bench(workload, seed, trace, attempt)
    assert code == 0, output
    return json.loads(output.strip().splitlines()[-1])


def fingerprint(workload: str, seed: int, trace: int, attempt: int = 0) -> dict:
    _, output = bench(workload, seed, trace, attempt)
    for line in output.splitlines():
        if line.startswith("fingerprint: "):
            return json.loads(line[len("fingerprint: "):])
    raise AssertionError(f"no fingerprint line in:\n{output}")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, seed, trace, section):
    outcome = result(workload, seed, trace)
    assert outcome["correct"] is True
    assert outcome["failed"] == 0 and outcome["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in DEFINITION[section]}
    assert {name: m["unit"] for name, m in outcome["metrics"].items()} == expected
    _, output = bench(workload, seed, trace)
    for name, unit in expected.items():
        pattern = rf"^{re.escape(name)}: \S+ {re.escape(unit)}$"
        assert re.search(pattern, output, re.MULTILINE), f"{name} not printed with {unit}"
    for name, metric in outcome["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_counters_repeat_exactly(workload, seed):
    first = result(workload, seed, 1, attempt=0)["metrics"]
    second = result(workload, seed, 1, attempt=1)["metrics"]
    deterministic = [
        metric["name"]
        for metric in DEFINITION["per_layer"]
        if metric["unit"] in ("count", "bytes", "calls/event", "events/window")
    ]
    assert "sim.events" in deterministic and "tcp.calls_per_event" in deterministic
    for name in deterministic:
        assert first[name]["value"] == second[name]["value"], name
    assert fingerprint(workload, seed, 1, 0) == fingerprint(workload, seed, 1, 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_fingerprint_equals_untraced(workload, seed):
    assert fingerprint(workload, seed, 1) == fingerprint(workload, seed, 0)


def test_workload_changes_with_the_seed_where_the_seed_is_an_input():
    assert fingerprint("study_internet2021", 1, 0) != fingerprint("study_internet2021", 2, 0)
    assert fingerprint("ring_2shard", 1, 0) != fingerprint("ring_2shard", 2, 0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    skip = shutil.ignore_patterns("__pycache__", ".spans")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=skip)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
