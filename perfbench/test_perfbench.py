"""Tests of the benchmark's own arithmetic (no ballspec process is started).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import pool  # noqa: E402
import spans  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    assert spans.percentile([float(i) for i in range(99)], 0.9) is None
    samples = [float(i) for i in range(100, 0, -1)]
    assert spans.percentile(samples, 0.9) == 90.0  # 10 samples above it
    assert spans.percentile(samples, 0.99) is None
    assert spans.percentile([], 0.5) is None
    assert spans.percentile([float(i) for i in range(20)], 0.5) == 9.0


def test_self_time_subtracts_nested_children():
    tree = [
        ["cli.run", 0.0, 10.0, -1, None],
        ["zeros.dirichlet_zero", 1.0, 5.0, 0, None],
        ["zeros.bessel_zero", 1.5, 4.5, 1, None],
        ["bessel.eval_J_pair", 2.0, 3.0, 2, ["series", 0.0]],
        ["format.dumps", 6.0, 9.0, 0, None],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.0, 2.0, 1.0, 3.0])


def test_covered_merges_overlapping_and_clips():
    assert spans.covered(0.0, 10.0, [(2.0, 4.0), (3.0, 5.0), (9.0, 12.0)]) \
        == pytest.approx(4.0)
    assert spans.covered(0.0, 1.0, []) == 0.0


def test_nested_zero_call_counts_once_and_cache_hits():
    job = [
        ["cli.run", 0.0, 10.0, -1, None],
        ["zeros.dirichlet_zero", 1.0, 5.0, 0, None],
        ["zeros.bessel_zero", 1.5, 4.5, 1, None],
        ["bessel.eval_J_pair", 2.0, 3.0, 2, ["miller", 1e-15]],
        ["bessel.eval_J_pair", 3.0, 4.0, 2, ["series", 3e-16]],
        ["zeros.dirichlet_zero", 6.0, 6.5, 0, None],  # served from cache
        ["zeros.bessel_zero", 6.1, 6.4, 5, None],
    ]
    stats = spans.LayerStats()
    stats.add_job("zeros", job, 0.1, 42)
    m = {k: v["value"] for k, v in stats.metrics(1.0, 1.01).items()}
    assert m["zeros.calls"] == 2
    assert m["zeros.cold_calls"] == 1
    assert m["zeros.cache_hit_ratio"] == 0.5
    assert m["zeros.kernel_calls_per_zero"] == 2
    assert m["zeros.ms_per_zero"] == pytest.approx(4000.0)
    assert m["bessel.pair_calls.miller_region"] == 1
    assert m["bessel.max_est_rel_err"] == 1e-15
    assert m["zeros.self_s"] == pytest.approx(1.0 + 1.0 + 0.2 + 0.3)
    assert set(m) == set(spans.LAYER_UNITS)


def test_spectrum_prefix_rule():
    master = [{"lambda": lam, "label_first": i + 1}
              for i, lam in enumerate([0.0, 5.5, 12.0, 20.25, 30.0])]
    assert check.spectrum_prefix(master, 20.25) == master[:4]
    assert check.spectrum_prefix(master, 20.25 - 2e-9) == master[:3]
    assert check.spectrum_prefix(master, 0.0) == master[:1]


def test_compare_rules():
    want = {"l": 1, "status": "Sharp", "zero": 0, "x": 2.5, "items": [1.0]}
    assert check.mismatch(dict(want, err=1e-16), want) is None  # extra key
    assert check.mismatch(dict(want, x=2.5 * (1 + 5e-14)), want) is None
    assert check.mismatch(dict(want, x=2.5 * (1 + 5e-13)), want)
    assert check.mismatch(dict(want, zero=1e-300), want)  # exact at 0
    assert check.mismatch(dict(want, l=2), want)
    assert check.mismatch(dict(want, status="ExcludedTwist"), want)
    assert check.mismatch(dict(want, items=[1.0, 2.0]), want)
    assert check.mismatch({"l": 1}, want)
    assert check.parse("d,zero\n2,0\n3,2.5\n", "csv") == [
        {"d": 2, "zero": 0}, {"d": 3, "zero": 2.5}]


def test_job_lists_are_seeded_and_draw_every_stratum():
    for w in pool.WORKLOADS.values():
        first = w.jobs(7)
        assert first == w.jobs(7)
        assert len(first) == w.cycles * sum(s.draw for s in w.strata)
        assert set(first) <= set(w.entries())
    assert all(w.jobs(1) != w.jobs(2) for w in pool.WORKLOADS.values())

