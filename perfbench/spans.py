"""Arithmetic of the benchmark: percentiles and per-layer numbers from spans.

A span is [name, start, end, parent index, info] as written by
``trace_child.py``; parents always precede their children. The layer of a
span is the part of its name before the first dot.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

MIN_BEYOND = 10  # a percentile is reported only with this many samples above it


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank q-quantile, or None unless MIN_BEYOND samples lie beyond it."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered(start, end, kids)
            for (_, start, end, _, _), kids in zip(spans, children)]


# name -> unit of every per-layer metric, as listed in BENCHMARK.json
LAYER_UNITS = {
    m["name"]: m["unit"] for m in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())["per_layer"]
}

# Work counts: identical across two traced runs with one seed.
COUNT_METRICS = (
    "bessel.pair_calls", "bessel.pair_calls.series_region",
    "bessel.pair_calls.miller_region", "zeros.calls", "zeros.cold_calls",
    "zeros.cache_hit_ratio", "spectrum.records", "courant.verdicts",
    "pleijel.certificates", "pleijel.checks",
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


class LayerStats:
    """Per-layer totals over the traced jobs of one run."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.kernel = {"series": [0, 0.0], "miller": [0, 0.0]}
        self.max_err = 0.0
        self.zero_calls = self.cold_zeros = self.zero_kernel_calls = 0
        self.cold_zero_s = 0.0
        self.by_command: dict[str, list[int]] = {}  # command -> [calls, cold]
        self.records = self.verdicts = self.certs = self.checks = 0
        self.spectrum_s = self.cert_s = 0.0
        self.min_margin = math.inf
        self.stdout_bytes = 0
        self.import_s: list[float] = []
        self.run_s: list[float] = []

    def add_job(self, command: str, spans: list[list], import_s: float,
                stdout_bytes: int) -> None:
        self.import_s.append(import_s)
        self.stdout_bytes += stdout_bytes
        # outermost zero call enclosing each span (index), or -1: a zero
        # call nested in another one counts once
        top_zero = [-1] * len(spans)
        kernels_in = [0] * len(spans)
        for i, (name, start, end, parent, info) in enumerate(spans):
            if parent >= 0:
                top_zero[i] = top_zero[parent]
                if top_zero[i] < 0 and spans[parent][0].startswith("zeros."):
                    top_zero[i] = parent
            if name == "bessel.eval_J_pair" and info:
                region, err = info
                self.kernel[region][0] += 1
                self.kernel[region][1] += end - start
                self.max_err = max(self.max_err, err)
                if top_zero[i] >= 0:
                    kernels_in[top_zero[i]] += 1
            elif name == "spectrum.enumerate_spectrum" and info is not None:
                self.records += info
                self.spectrum_s += end - start
            elif name == "courant.courant_sharp_ball" and info is not None:
                self.verdicts += info
            elif name == "pleijel.monotonicity_certificate" and info:
                self.certs += 1
                self.checks += info[0]
                self.min_margin = min(self.min_margin, info[1])
                self.cert_s += end - start
            elif name == "cli.run":
                self.run_s.append(end - start)
        calls = self.by_command.setdefault(command, [0, 0])
        for i, (name, start, end, _, _) in enumerate(spans):
            if name.startswith("zeros.") and top_zero[i] < 0:
                self.zero_calls += 1
                calls[0] += 1
                if kernels_in[i]:
                    self.cold_zeros += 1
                    calls[1] += 1
                    self.zero_kernel_calls += kernels_in[i]
                    self.cold_zero_s += end - start
        for span, own in zip(spans, self_times(spans)):
            layer = span[0].split(".", 1)[0]
            self.self_s[layer] = self.self_s.get(layer, 0.0) + own

    def metrics(self, identical_ratio: float, overhead_ratio: float) -> dict:
        (ns, ts), (nm, tm) = self.kernel["series"], self.kernel["miller"]
        values = {
            "bessel.pair_calls": ns + nm,
            "bessel.pair_self_s": ts + tm,
            "bessel.pair_us": 1e6 * _ratio(ts + tm, ns + nm),
            "bessel.pair_calls.series_region": ns,
            "bessel.pair_calls.miller_region": nm,
            "bessel.pair_us.series_region": 1e6 * _ratio(ts, ns),
            "bessel.pair_us.miller_region": 1e6 * _ratio(tm, nm),
            "bessel.max_est_rel_err": self.max_err,
            "zeros.calls": self.zero_calls,
            "zeros.cold_calls": self.cold_zeros,
            "zeros.cache_hit_ratio":
                _ratio(self.zero_calls - self.cold_zeros, self.zero_calls),
            "zeros.kernel_calls_per_zero":
                _ratio(self.zero_kernel_calls, self.cold_zeros),
            "zeros.ms_per_zero": 1e3 * _ratio(self.cold_zero_s, self.cold_zeros),
            "zeros.self_s": self.self_s.get("zeros", 0.0),
            "spectrum.records": self.records,
            "spectrum.ms_per_record": 1e3 * _ratio(self.spectrum_s, self.records),
            "spectrum.self_s": self.self_s.get("spectrum", 0.0),
            "courant.verdicts": self.verdicts,
            "courant.self_s": self.self_s.get("courant", 0.0),
            "pleijel.certificates": self.certs,
            "pleijel.checks": self.checks,
            "pleijel.ms_per_certificate": 1e3 * _ratio(self.cert_s, self.certs),
            "pleijel.self_s": self.self_s.get("pleijel", 0.0),
            # 0 when the workload certifies nothing
            "pleijel.min_rel_margin": 0.0 if self.certs == 0 else self.min_margin,
            "format.self_s": self.self_s.get("format", 0.0),
            "cli.stdout_bytes": self.stdout_bytes,
            "cli.import_s": _median(self.import_s),
            "cli.run_s": _median(self.run_s),
            "cli.stdout_identical_ratio": identical_ratio,
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in LAYER_UNITS.items()}
