"""Work counts: how much the kernel and the census did while a test ran.

The work-count pins read their counts here, and this is the only test code
that wraps the kernel's ladder, its two series and the census sign, so
that a change to those seams edits one file:

    work = _counts.count(monkeypatch)
    spectrum.enumerate_spectrum(3, "dirichlet", 3000)
    assert work.series["value"] <= 1.05 * work.cold_zeros

Every count is deterministic, the same on any machine.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

from ballspec import bessel

from tests import _internals


class SharedLadders(dict):
    """The census grid's shared ladders, counting the ladders stored by
    grid point (parity, x) and their steps (len(ys): a ladder keeps every
    y_k)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.builds, self.steps = Counter(), Counter()

    def __setitem__(self, key, ladder):
        self.builds[key] += 1
        self.steps[key] += len(ladder[0])
        super().__setitem__(key, ladder)


class Work:
    """What ran since count():

    * ladders: (parity, x, steps) of every kernel ladder built, shared or
      for eval_J and eval_J_pair;
    * shared: the shared ladders, with their builds and steps;
    * signs: (l, twice_nu, x) of every census sign read;
    * series: the series of a refinement built ("base"), their float
      pairs ("pair") and fixed-point values ("value"), from the
      multiplication series or, below the turning point, the ascending
      series, and the ascending series' exact sums ("ascending"): one a
      census sign, float pair or value there;
    * pair_calls: eval_J_pair calls;
    * refined: the arguments (l, twice_nu, lo, hi, sign_lo) of every zero
      refined in a census cell.
    """

    def __init__(self, shared: SharedLadders):
        self.ladders, self.signs, self.refined = [], [], []
        self.series = Counter()
        self.pair_calls = 0
        self.shared = shared
        self._misses = _internals.census_zero.cache_info().misses

    @property
    def steps(self) -> int:
        """The steps of every ladder built."""
        return sum(steps for *_, steps in self.ladders)

    @property
    def cold_zeros(self) -> int:
        """Census zeros refined, not read from the census cache."""
        return _internals.census_zero.cache_info().misses - self._misses


def count(monkeypatch) -> Work:
    """Count the work of the code run from now to the end of the test. The
    shared ladders keep what they hold, so a test empties them first
    (_internals.cold) where it counts cold work."""
    work = Work(SharedLadders(_internals.LADDERS))
    _internals.replace(monkeypatch, "LADDERS", work.shared)

    def ladder(parity, x, n, real=_internals.ladder):
        out = real(parity, x, n)
        work.ladders.append((parity, x, len(out[0])))
        return out

    def grid_sign(l, twice_nu, x, real=_internals.grid_sign):
        work.signs.append((l, twice_nu, x))
        return real(l, twice_nu, x)

    def series(*args, real):
        work.series["base"] += 1
        pair, value = real(*args)

        def counted_pair(x):
            work.series["pair"] += 1
            return pair(x)

        def counted_value(z, l):
            work.series["value"] += 1
            return value(z, l)

        return counted_pair, counted_value

    def ascending_sums(*args, real=_internals.ascending_sums):
        work.series["ascending"] += 1
        return real(*args)

    def refine(*args, real=_internals.refine):
        work.refined.append(args)
        return real(*args)

    def eval_J_pair(*args, real=bessel.eval_J_pair):
        work.pair_calls += 1
        return real(*args)

    _internals.replace(monkeypatch, "ladder", ladder)
    _internals.replace(monkeypatch, "grid_sign", grid_sign)
    for name in ("multiply", "ascending"):
        _internals.replace(monkeypatch, name,
                           partial(series, real=getattr(_internals, name)))
    _internals.replace(monkeypatch, "ascending_sums", ascending_sums)
    _internals.replace(monkeypatch, "refine", refine)
    monkeypatch.setattr(bessel, "eval_J_pair", eval_J_pair)
    return work
