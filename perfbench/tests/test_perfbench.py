"""The benchmark's own tests: every workload at smoke size, the metric
contract of ``BENCHMARK.json``, and known-answer checks that must fail on
a wrong expected answer.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.breakdown import PER_LAYER  # noqa: E402
from perfbench.tracing import SpanRecorder  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    HANDWRITTEN_KILLS,
    SMOKE,
    CampaignExtendWorkload,
    CampaignWorkload,
    DiffWorkload,
    MutateWorkload,
    PassResult,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(workload, trace, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "5", "--seconds", "1", "--trace", str(trace),
               "--size", "smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    emitted = {name: value["unit"] for name, value in result["metrics"].items()}
    assert emitted == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    facts = json.loads(lines[-2])
    assert facts["schema_version"] == 1
    assert {"nproc", "python", "numpy", "scipy", "git_commit"} <= set(
        facts["host"]
    )
    if not trace:
        for name in expected:
            assert result["metrics"][name]["value"] > 0


def test_per_layer_declaration_matches_the_breakdown():
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("campaign", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ----------------------------------------------------- known-answer checks


def _failed(checks):
    return [check.name for check in checks if not check.ok]


def test_campaign_check_fails_on_a_wrong_expected_answer(tmp_path):
    workload = CampaignWorkload(5, SMOKE, str(tmp_path))
    result = workload.run_pass(workload.begin_pass())
    assert not _failed(workload.checks(result))
    wrong = workload.checks(result, expected_uncovered=[("JoinCommutativity",)])
    assert _failed(wrong) == ["uncovered rules as expected"]


def test_extend_check_fails_on_a_wrong_reference_report(tmp_path):
    right = CampaignExtendWorkload(5, SMOKE, str(tmp_path))
    result = right.run_pass(right.begin_pass())
    assert not _failed(right.checks(result))
    wrong = CampaignExtendWorkload(
        5, SMOKE, str(tmp_path), reference=right.reference + "\nextra line"
    )
    result = wrong.run_pass(wrong.begin_pass())
    assert _failed(wrong.checks(result)) == [
        "report equals the cold campaign's (minus timing/cache lines)"
    ]


def test_mutate_check_fails_when_a_fault_is_expected_but_not_killed():
    statuses = {mutant_id: "KILLED" for mutant_id in HANDWRITTEN_KILLS}
    result = PassResult(texts=[], attempted=4, failed=0, facts={
        "handwritten": True, "full_status": statuses,
    })
    workload = MutateWorkload.__new__(MutateWorkload)
    assert not _failed(workload.checks(result))
    wrong = HANDWRITTEN_KILLS + ("SelectMerge:drop-conjunct",)
    assert _failed(workload.checks(result, expected_kills=wrong)) == [
        "FULL kills SelectMerge:drop-conjunct"
    ]


def test_diff_check_fails_on_a_wrong_disagreement_count(tmp_path):
    workload = DiffWorkload(5, SMOKE, str(tmp_path))
    result = workload.run_pass(workload.begin_pass())
    assert not _failed(workload.checks(result))
    assert _failed(workload.checks(result, expected_disagreements=1)) == [
        "disagreements against sqlite"
    ]


# ------------------------------------------------------------- self time


def test_self_time_subtracts_the_union_of_children():
    recorder = SpanRecorder()
    started = threading.Event()
    done = []

    def worker():
        with recorder.span("b", "y"):
            started.set()
            time.sleep(0.03)
        done.append(True)

    with recorder.span("root", "pass"):
        with recorder.span("a", "x"):
            time.sleep(0.02)
        with recorder.span("c", "z"):
            thread = threading.Thread(target=worker)
            thread.start()
            assert started.wait(timeout=5)
            with recorder.span("d", "x"):
                time.sleep(0.02)
            thread.join(timeout=5)
    assert done
    root, a, c, d, b = (
        next(s for s in recorder.spans if s.name == name)
        for name in ("root", "a", "c", "d", "b")
    )
    # A span opened on another thread hangs under the span open on the
    # recording thread, here c, next to c's own child d.
    assert (a.parent, c.parent, b.parent, d.parent) == (
        root.span_id, root.span_id, c.span_id, c.span_id
    )
    selfs = recorder.self_times()
    overlap = max(b.end, d.end) - min(b.start, d.start)
    assert selfs[c.span_id] == pytest.approx(c.duration - overlap, abs=1e-6)
    assert selfs[root.span_id] == pytest.approx(
        root.duration - a.duration - c.duration, abs=1e-6
    )
    assert selfs[a.span_id] == pytest.approx(a.duration)
