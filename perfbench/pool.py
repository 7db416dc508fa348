"""Workload pools and the seeded job lists drawn from them.

A workload is a list of strata. Each stratum holds interchangeable CLI
requests (argv without ``--format``) of similar cost; one cycle draws
``draw`` of them from every stratum, gives each a seeded output format,
and shuffles the whole list. Every stratum is drawn in every cycle, so the
total work of a cycle barely depends on the seed, while the requests, their
formats and their order do. A run is ``cycles`` cycles, about 25 s of jobs
on a 2-CPU x86 box.

The program only ever sees argv: the seed is consumed here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("json", "csv")

# Cheapest request; run once, untimed, before measuring so that the
# bytecode cache exists, as it does for an installed user.
WARMUP = ("zeros", "--l", "0", "--d", "2", "--bc", "dirichlet", "--count", "1")


@dataclass(frozen=True)
class Stratum:
    entries: tuple[tuple[str, ...], ...]
    draw: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple[Stratum, ...]
    cycles: int = 1

    def entries(self) -> list[tuple[str, ...]]:
        """Every argv a job list of this workload can contain."""
        return [e + ("--format", f)
                for s in self.strata for e in s.entries for f in FORMATS]

    def jobs(self, seed: int) -> list[tuple[str, ...]]:
        """The job list for one run."""
        out = []
        for cycle in range(self.cycles):
            rng = random.Random(f"{self.name}/{seed}/{cycle}")
            batch = []
            for s in self.strata:
                for entry in rng.sample(s.entries, s.draw):
                    batch.append(entry + ("--format", rng.choice(FORMATS)))
            rng.shuffle(batch)
            out.extend(batch)
        return out


def _spectrum(d: int, bc: str, lambda_max: int) -> Stratum:
    # two cutoffs 2% apart: the smaller table is a prefix of the larger
    return Stratum(tuple(
        ("spectrum", "--d", str(d), "--bc", bc, "--lambda-max", str(lam))
        for lam in (lambda_max, round(0.98 * lambda_max))
    ))


def _one(*argv) -> Stratum:
    return Stratum((tuple(str(a) for a in argv),))


SPECTRUM = Workload(
    "spectrum",
    # cutoffs chosen so that every job costs about the same, which keeps
    # the median job time a median of like samples
    (
        _spectrum(2, "dirichlet", 2000),
        _spectrum(6, "neumann", 1900),
        _spectrum(3, "dirichlet", 1500),
        _spectrum(4, "neumann", 1900),
        _spectrum(2, "neumann", 1750),
        _spectrum(5, "dirichlet", 1600),
    ),
)

# The order box split into three chunks of about equal cost per command;
# each chunk is one job.
_CHUNKS = ((2, 134), (135, 197), (198, 239))

SWEEP = Workload(
    "sweep",
    tuple(_one("pleijel", "--curve", a, b) for a, b in _CHUNKS)
    + tuple(_one("certify", "--d", max(a, 4), "--through", b)
            for a, b in _CHUNKS),
    cycles=2,
)

LOOKUP = Workload(
    "lookup",
    (
        Stratum(tuple(
            ("zeros", "--l", str(l), "--d", str(d), "--bc", bc,
             "--count", str(1 + (l + d) % 5))
            for bc in ("dirichlet", "neumann")
            for d in (2, 3, 4, 5)
            for l in range(6)
        ), draw=36),
        Stratum(tuple(("pleijel", "--gamma", str(d))
                      for d in range(2, 241, 7)), draw=24),
        Stratum(tuple(("certify", "--d", str(d))
                      for d in range(4, 240, 7)), draw=24),
        Stratum(tuple(
            ("courant", "--d", str(d), "--bc", bc,
             "--lmax", str(lmax), "--mmax", str(mmax))
            for d in (2, 3)
            for bc in ("dirichlet", "neumann")
            for lmax in (1, 2, 3)
            for mmax in (1, 2)
        ), draw=16),
    ),
)

WORKLOADS = {w.name: w for w in (SPECTRUM, SWEEP, LOOKUP)}
