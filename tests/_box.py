"""Where the supported box ends, derived for the tests.

The tests learn every edge of the box here. Each edge follows from
bessel.TWICE_NU_MAX (the order cap: a census evaluates the pair
(nu, nu + 1), so its twice_nu + 2 <= cap), bessel.X_MAX (the argument box),
spectrum.CUTOFF_SLACK and the first-zero bounds below. The bounds are
written out again here, not read from zeros, so that no expected edge comes
from the code under test:

* Qu and Wong: j_{nu,1} > nu + |a_1| 2^(-1/3) nu^(1/3), the constant
  rounded down to 1.855757 (Trans. AMS 351, 1999; DLMF 10.21(vii));
* Watson: j_{nu,1} > sqrt(nu (nu + 2)) (Treatise, ch. 15);
* Chambers: j_{nu,1} < sqrt(nu + 1) (sqrt(nu + 2) + 1) (Math. Comp. 38,
  1982);
* Sturm: the first zero beta_{l,1} of the Neumann target at l >= 1 exceeds
  sqrt(l (l + d - 2)).

A degree's census bound is Qu and Wong's for a J key and Sturm's for a
Neumann key l >= 1, shrunk by 1 - 1e-9; where it lies inside the cutoff
radius, radial_zeros checks the degree's order 2l + d - 2 against the cap.
The spectrum's degree walk runs l = 0, 1, ... and ends at the first degree
with no zero inside the cutoff radius (Neumann l = 0 holds its ground state
at r = 0). First zeros increase in l, so the walk reaches the first degree
out of the box once the degree below it has its first zero inside, and a
cutoff is refused once that zero, from the oracle (tests/_oracle.py), and
the out-of-box degree's census bound both lie inside it.

Every derivation takes the cap, so that tests/test_box.py checks PINNED,
the edges at cap 240 written out, against derived(240) at any cap; EDGES
is derived(TWICE_NU_MAX), which the edge tests read.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import count

from ballspec import bessel, spectrum

from tests import _oracle

CAP = bessel.TWICE_NU_MAX
X_MAX = bessel.X_MAX
LAMBDA_MAX = int(X_MAX * X_MAX)
_SHRINK = 1.0 - 1e-9  # the census shrinks each bound by this factor


def qu_wong(twice_nu: int) -> float:
    nu = 0.5 * twice_nu
    return nu + 1.855757 * nu ** (1.0 / 3.0)


def watson(twice_nu: int) -> float:
    return math.sqrt(twice_nu * (twice_nu + 4)) * 0.5


def chambers(twice_nu: int) -> float:
    nu = 0.5 * twice_nu
    return math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)


def sturm(l: int, twice_nu: int) -> float:
    return math.sqrt(l * (twice_nu - l))


def scan_bound(l: int, twice_nu: int) -> float:
    """The census bound of the key (l, twice_nu), which its scan starts at:
    the first zero's lower bound, for J_nu (l = 0) at least Qu and Wong's,
    shrunk a hair."""
    lower = sturm(l, twice_nu) if l else max(watson(twice_nu),
                                             qu_wong(twice_nu))
    return lower * _SHRINK


def zero_upper(twice_nu: int, m: int) -> float:
    """Above j_{nu,m}, nu >= 1/2: Chambers' bound on j_{nu,1}, then m - 1
    gaps. Past j_{nu,1} the coefficient of w = sqrt(r) J_nu in w'' + (1 -
    (nu^2 - 1/4)/r^2) w = 0 is at least c = 1 - (nu^2 - 1/4)/qu_wong^2, so
    by Sturm comparison consecutive zeros lie at most pi/sqrt(c) apart."""
    nu = 0.5 * twice_nu
    c = 1.0 - (nu * nu - 0.25) / qu_wong(twice_nu) ** 2
    return chambers(twice_nu) + (m - 1) * math.pi / math.sqrt(c)


def order_named(twice_nu: int) -> str:
    """The order nu + 1 that a refusal of the request order twice_nu names,
    as "121.0"."""
    return str(0.5 * twice_nu + 1)


def census_key(bc: str, l: int, d: int) -> tuple[int, int]:
    """The census key of a request: J_nu for Dirichlet, J_{nu+1} for
    Neumann l = 0 (past its ground state), the Neumann target at l >= 1."""
    twice_nu = 2 * l + d - 2
    if bc == "dirichlet":
        return 0, twice_nu
    return (0, twice_nu + 2) if l == 0 else (l, twice_nu)


@lru_cache(maxsize=None)
def first_zero(key: tuple[int, int]) -> float:
    """The float nearest the first positive zero of the census key (l,
    twice_nu), from the oracle (20 digits settle the float); inf where its
    census bound lies past X_MAX."""
    l, twice_nu = key
    if scan_bound(l, twice_nu) > X_MAX:
        return math.inf
    if l:
        return float(_oracle.oracle_neumann_zero(l, twice_nu - 2 * l + 2, 1,
                                                 dps=20))
    return float(_oracle.oracle_bessel_zero(twice_nu, 1, dps=20))


def reach(bc: str, l: int, d: int) -> float:
    """The radius from which the spectrum's degree walk reaches degree l:
    the first zero of degree l - 1, or 0.0 where every cutoff reaches it
    (l = 0, and Neumann l = 1, past the ground state of l = 0 at r = 0)."""
    if l == 0 or bc == "neumann" and l == 1:
        return 0.0
    return first_zero(census_key(bc, l - 1, d))


Edge = namedtuple("Edge", "inside limit order")


def first_degree_out(d: int, cap: int = CAP) -> int:
    """The first degree l whose order 2l + d - 2 leaves the box."""
    return max(0, (cap - d) // 2 + 1)


def _refused_from(bc: str, l: int, d: int) -> float:
    """The radius from which a cutoff reaches degree l and its census bound;
    a bound past X_MAX is never reached, and needs no oracle zero."""
    bound = scan_bound(*census_key(bc, l, d))
    return bound if bound > X_MAX else max(bound, reach(bc, l, d))


def edge(bc: str, d: int, cap: int = CAP) -> Edge:
    """The largest integer lambda_max that a (bc, d) spectrum enumerates,
    the first one refused and the order its refusal names; (LAMBDA_MAX,
    None, None) where every cutoff up to LAMBDA_MAX enumerates. A cutoff
    is refused from the radius where the first degree out of the box is
    both reached and has its census bound inside. Past the cap Neumann
    l = 0 and l = 1 both leave the box (l = 0's ground state aside), the
    loop reaches both, and the smaller of their bounds refuses."""
    first = first_degree_out(d, cap)
    degrees = (0, 1) if bc == "neumann" and first == 0 else (first,)
    r, twice_nu = min((_refused_from(bc, l, d), 2 * l + d - 2)
                      for l in degrees)
    if r > X_MAX:
        return Edge(LAMBDA_MAX, None, None)
    # the first integer lambda whose cutoff radius reaches r
    limit = max(0, math.floor(r * r) - 1)
    while math.sqrt(limit + spectrum.CUTOFF_SLACK) < r:
        limit += 1
    if limit > LAMBDA_MAX:
        return Edge(LAMBDA_MAX, None, None)
    return Edge(limit - 1, limit, order_named(twice_nu))


def d_max(cap: int = CAP) -> int:
    """The largest d with a gamma(d): the census pair of j_{d/2-1,1} lies in
    the box, and its census bound in the argument box."""
    return max(d for d in range(2, cap + 1) if scan_bound(0, d - 2) <= X_MAX)


def last_d_in_reach() -> int:
    """The largest d whose degree-0 Dirichlet bound lies in the argument
    box, whatever the cap: past it every cutoff enumerates."""
    return next(d for d in count(2) if scan_bound(0, d - 1) > X_MAX)


def j_orders(cap: int = CAP, neumann: bool = False) -> range:
    """The twice_nu of J keys whose census pair lies in the box (with
    neumann, also the Neumann l = 0 keys (0, d), d <= cap, whose request
    order is d - 2) and whose first zero provably lies in the argument
    box."""
    top = cap + 2 if neumann else cap
    return range(next(tn for tn in count()
                      if tn + 2 > top or chambers(tn) > X_MAX))


def census_keys(cap: int = CAP) -> list[tuple[int, int]]:
    """Every census key (l, twice_nu) of the box: the J orders with the
    Neumann l = 0 ones, and the Neumann keys l >= 1 of every d >= 2."""
    return [(0, tn) for tn in j_orders(cap, neumann=True)] + [
        (l, tn) for tn in j_orders(cap) for l in range(1, tn // 2 + 1)]


def ground_dims(cap: int = CAP, m: int = 3) -> range:
    """The d of the Neumann l = 0 requests in the box (d <= cap) whose
    first m positive zeros, j_{d/2,1..m}, provably lie in the argument
    box."""
    return range(2, next(d for d in count(2)
                         if d > cap or zero_upper(d, m) > X_MAX))


def neumann_degrees(d: int, cap: int = CAP) -> range:
    """The Neumann degrees l >= 1 of d whose census pair lies in the box
    and whose first zero provably lies in the argument box."""
    return range(1, next(l for l in count(1) if 2 * l + d > cap
                         or chambers(2 * l + d - 2) > X_MAX))


def _around(bound: float) -> tuple[float, float]:
    """The cutoffs of two decimals either side of a census bound, the lower
    one at most X_MAX."""
    return (min(math.floor(bound * 100.0) / 100.0, X_MAX),
            math.ceil(bound * 100.0) / 100.0)


def dims(cap: int = CAP) -> dict[str, tuple[int, ...]]:
    """The d of each spectrum edge test, named by its boundary condition
    and, for Neumann, by what it checks: near the cap, past it, and about
    the last d whose degree 0 lies in reach."""
    reach = last_d_in_reach()
    return {"dirichlet": (2, cap - 2, 3, cap + 1, cap + 2, 300, reach,
                          reach + 1),
            "neumann bisection": (cap + 1, 300, 1000, cap, cap - 2, 2, 3),
            "neumann top degree": (2, 30, 100)}


def neumann_refusal(cap: int = CAP) -> tuple[int, int, int]:
    """(l, d, k): the first Neumann bisection d whose first degree out of
    the box, l >= 2, is refused inside the argument box, at a radius past
    k >= 1 zeros of J_{d/2}."""
    for d in dims(cap)["neumann bisection"]:
        l = first_degree_out(d, cap)
        if l >= 2 and (r := _refused_from("neumann", l, d)) <= X_MAX:
            if k := _oracle.oracle_bessel_zeros_below(d, r):
                return l, d, k


def derived(cap: int = CAP) -> dict:
    """Every edge the tests read, at the order cap ``cap``."""
    last = cap - 2  # the last twice_nu whose census pair lies in the box
    edges = {
        "order_cap": cap,
        "last_order": last,
        "d_max": d_max(cap),
        # Neumann l = 0 past the cap: (d, the cutoff below its census bound)
        "ground_x": (cap + 1, _around(scan_bound(0, cap + 1))[0]),
        # the census orders from 180 up, each with one grid point below 2.0
        # (pi/2 or pi/4)
        "series_edge_keys": len(range(180, last + 1)),
        # the number of census_keys: the sum of t // 2 over t = 0..n is
        # n^2 // 4
        "census_keys": (len(j_orders(cap, neumann=True))
                        + (len(j_orders(cap)) - 1) ** 2 // 4),
    }
    # Dirichlet Courant windows (d, lmax), mmax = 1, whose top order is the
    # box's last: where the next degree's census bound lies in the argument
    # box, their mmax = 2 is refused after one zero, and so is the window
    # (d, lmax, mmax) = (cap - 10, 2, 4), whose top zero lies past it too;
    # else there are none
    edge_in_reach = scan_bound(0, cap) <= X_MAX
    edges["courant_windows"] = ([(cap - 2 * lmax, lmax) for lmax in (1, 2)]
                                if edge_in_reach else [])
    edges["courant_refused"] = (cap - 10, 2, 4) if edge_in_reach else None
    # a Neumann degree l out of the box at d, refused inside the argument
    # box: (l, d, cutoffs around its census bound, the order its refusal
    # names); and the Courant window (d, lmax = 1, mmax), with the mmax
    # served below that refusal and the one refused past it. Degree 1's
    # target vanishes where x J_{d/2}'/J_{d/2} = d/2 - 1, and that quotient
    # falls from d/2 to -inf below j_{d/2,1} and from +inf to -inf between
    # consecutive zeros, so degree 1's m-th zero lies in (j_{d/2,m-1},
    # j_{d/2,m}): with k of those below the refusal, the window's mmax = k
    # is served and mmax = k + 2 refused
    l, d, k = neumann_refusal(cap)
    twice_nu = 2 * l + d - 2
    edges["neumann_x"] = (l, d, *_around(scan_bound(l, twice_nu)),
                          order_named(twice_nu))
    edges["neumann_window"] = (d, 1, k, k + 2)
    for rows, ds in dims(cap).items():
        bc = rows.split()[0]
        edges.update(((bc, d), edge(bc, d, cap)) for d in ds)
    return edges


EDGES = derived()

# The edges at cap 240, written out
PINNED_CAP = 240
PINNED = {
    "order_cap": 240,
    "last_order": 238,
    "d_max": 240,
    "ground_x": (241, 129.66),
    "series_edge_keys": 59,
    "census_keys": 14402,
    "courant_windows": [(238, 1), (236, 2)],
    "courant_refused": (230, 2, 4),
    "neumann_x": (120, 2, 119.99, 120.0, "121.0"),
    "neumann_window": (2, 1, 38, 40),
    ("dirichlet", 2): (16680, 16681, "121.0"),
    ("dirichlet", 238): (16680, 16681, "121.0"),
    ("dirichlet", 3): (16548, 16549, "120.5"),
    ("dirichlet", 241): (16548, 16549, "120.5"),
    ("dirichlet", 242): (16680, 16681, "121.0"),
    ("dirichlet", 300): (25229, 25230, "150.0"),
    ("dirichlet", 380): (39860, 39861, "190.0"),
    ("dirichlet", 381): (40000, None, None),
    ("neumann", 241): (239, 240, "121.5"),
    ("neumann", 300): (298, 299, "151.0"),
    ("neumann", 1000): (998, 999, "501.0"),
    ("neumann", 240): (238, 239, "121.0"),
    ("neumann", 238): (475, 476, "121.0"),
    ("neumann", 2): (15126, 15127, "121.0"),
    ("neumann", 3): (14987, 14988, "120.5"),
    ("neumann", 30): (14583, 14584, "121.0"),
    ("neumann", 100): (11998, 11999, "121.0"),
}
