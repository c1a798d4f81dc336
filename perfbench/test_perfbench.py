"""Tests of the benchmark itself: metrics, correctness check, ledger, CLI.

Every workload runs in short mode (one set-up, a fraction of a second of
requests) so the whole file stays within a few tens of seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import spans as sp
from perfbench import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_short_mode_reports_every_metric(name):
    run = wl.Run(wl.WORKLOADS[name], seed=7, seconds=1.0, trace=True,
                 short=True)
    run.run()
    assert run.mismatched == 0
    assert run.attempted > 0 and run.failed == 0
    for metric, _ in wl.END_TO_END:
        assert run.metrics[metric] > 0, metric
    for metric, _ in wl.PER_LAYER:
        assert metric in run.layer
    # Every per-layer time is measured on every workload.
    units = dict(wl.PER_LAYER)
    for metric, value in run.layer.items():
        if units[metric] in ("s", "ms", "us", "bytes") or metric in (
            "fhe.ops_per_batch", "serve.batched_runtime.execute_share",
        ):
            assert value != 0, metric
    assert run.notes["reconciled"], run.notes
    assert 0 < run.layer["bench.reconcile_gap_share"] <= wl.RECONCILE_EPSILON


def test_flipped_expected_bit_trips_the_check():
    run = wl.Run(wl.WORKLOADS["width78-deadline"], seed=7, seconds=0.5,
                 trace=False, short=True)
    run.inputs.expected[0][0] ^= 1
    run.run()
    assert run.mismatched >= 1


def test_unreconciled_ledger_fails_the_traced_run(monkeypatch, tmp_path):
    from perfbench import run as cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(wl, "RECONCILE_EPSILON", 0.0)
    assert cli.main([
        "--workload", "width78-deadline", "--seed", "5", "--seconds", "0.3",
        "--trace", "1", "--short",
    ]) == 4


def test_independent_oracle_matches_the_forest():
    forest = wl.load_forest()
    inputs = wl.make_inputs(seed=3, seconds=1.0, short=True)
    for query, expected in zip(inputs.queries, inputs.expected):
        assert expected == forest.label_bitvector(query)


def test_ledger_splits_concurrency_and_reports_the_gap():
    spans = [
        (1, "a", 0.0, 4.0, None, 1, None),
        (2, "child", 1.0, 2.0, 1, 1, None),
        (3, "b", 3.0, 5.0, None, None, 9),
    ]
    layers, gap = sp.ledger((0.0, 10.0), spans, [(4.5, 6.0), (5.5, 8.0)])
    assert layers == pytest.approx({
        "a": 2.5, "child": 1.0, "b": 1.5, sp.QUEUE_WAIT: 3.0,
    })
    assert gap == pytest.approx(2.0)
    assert sum(layers.values()) + gap == pytest.approx(10.0)


def test_recorder_restores_every_entry_point():
    from repro.serve.service import CopseService

    original = CopseService.submit
    recorder = sp.SpanRecorder()
    recorder.install()
    assert CopseService.submit is not original
    recorder.uninstall()
    assert CopseService.submit is original


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        wl.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        wl.PER_LAYER


def test_cli_prints_the_result_line(tmp_path):
    for trace, metrics in ((0, wl.END_TO_END), (1, wl.PER_LAYER)):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "width78-deadline", "--seed", "3", "--seconds", "0.3",
             "--trace", str(trace), "--short"],
            cwd=tmp_path, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            dict(metrics)


def test_cli_leaves_no_process_running(tmp_path):
    """Workers and the resource tracker have ended when the command has."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "width78-cluster", "--seed", "3", "--seconds", "0.3",
         "--trace", "0", "--short"],
        cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    _, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended since it was listed
        if int(fields[3]) == proc.pid:  # the command's session
            left.append(stat.parent.name)
    assert left == []


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "width78-deadline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
