"""Tests of the benchmark itself.  Slow: one finset_sweep and one s3_action
operation take about a minute each.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
import workloads
from tracer import OP, Tracer


def run_benchmark(workload, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload,trace",
    [("cli_mix", 0), ("cli_mix", 1), ("finset_sweep", 0), ("s3_action", 0)],
)
def test_short_run_has_no_failures(workload, trace):
    code, result = run_benchmark(workload, 2, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_wrong_expected_cli_output_counts_as_failure():
    wl = workloads.CliMix(3)
    wl.setup()
    golden = {k: dict(v) for k, v in wl.expected.items()}
    first = workloads.cli_key(wl.command(0))
    golden[first]["exit"] += 1
    wl.expected = golden
    times, failed, problems, _ = run.measure_ops(wl, 0.0, None)
    assert len(times) == 1 and failed == 1
    assert "exit" in problems[0]


def test_wrong_expected_sweep_verdict_counts_as_failure():
    wl = workloads.FinsetSweep(0, expected=[(), (0,), (1,)])
    wl.setup()
    out = [(sig, None) for sig in workloads.SWEEP_EXPECTED]
    assert wl.check(0, out)


def test_sweep_check_compares_against_the_oracle():
    wl = workloads.FinsetSweep(0)
    wl.setup()
    assert len(wl.signatures) == 18
    right = [(sig, None) for sig in workloads.SWEEP_EXPECTED]
    assert wl.check(0, right) == []
    wl.oracle[(2,)] = True  # an oracle that disagrees with the pipeline
    assert any("oracle" in p for p in wl.check(0, right))


def test_wrong_expected_s3_verdict_counts_as_failure():
    class Report:
        univalent, mono = False, False
        level_sizes = {0: 1, 1: 27, 2: 729, 3: 19683}
        carrier_sizes = {"Atom('*')": 6}

    assert workloads.S3Action(0).check(0, Report()) == []
    wrong = dict(workloads.S3_EXPECTED, univalent=True)
    assert workloads.S3Action(0, expected=wrong).check(0, Report())


def test_tracer_patches_every_importing_module_and_restores():
    import segaltopos.segal as segal
    import segaltopos.univalence as univalence

    original = segal.hoequiv
    with Tracer() as tr:
        assert univalence.hoequiv is segal.hoequiv is not original
        wl = workloads.CliMix(0, in_process=True)
        wl.setup()
        with tr.span(OP):
            out = wl.op(0)
    assert segal.hoequiv is original and univalence.hoequiv is original
    assert wl.check(0, out) == []
    stats = tr.layer_stats()
    assert stats["cli.main"]["calls"] == 1
    for name, st in stats.items():
        assert st["self_s"] <= st["s"] + 1e-9, name
    assert 0.95 <= tr.top_cover_frac() <= 1.0


def test_generator_spans_cover_consumption_only():
    import segaltopos.topos as topos
    from segaltopos.corpus import finset_presheaf

    X = finset_presheaf(["a", "b"])
    with Tracer() as tr:
        n = sum(1 for _ in topos.enumerate_nat_trans(X, X))
    assert n == 4
    assert tr.counters["topos.enumerate_nat_trans.yielded"] == 4
    # one span per resumption: four items plus the final exhausting call
    assert tr.layer_stats()["topos.enumerate_nat_trans"]["calls"] == 5


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100.0)
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90.0, 90.0)
