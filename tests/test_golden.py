"""Golden CLI outputs: the SHA-256 of stdout and the exit code of cheap argv.

A change that is meant to keep the program's behaviour must keep every
digest below. The argv cover every subcommand and both formats, the
lambda = 0 Neumann edge (the lone zero mode at r = 0), the degree-0
Neumann zeros (which count r = 0 first) at d = 3 and at d = 240, the
order-box edge, a kernel order-box error (exit 1, empty stdout), the
selfcheck report and its refusal of ``--format`` (exit 1, empty stdout),
and every table layout the CLI writes, including empty CSV cells (the last
``quotient`` of a gamma table, a verdict with no nodal count ``mu``).
Update a digest only in a change that means to alter that output.

Below them, the Miller ladders of the kernel are pinned bit for bit: the
SHA-256 of ``repr`` of ``(J_nu, J_{nu+1}, abs_err)`` from the double-double
``_eval_miller`` and the float ``_pair_float`` on a fixed grid, and of the
shared float ladder ``_ladder_float`` (every order it keeps, and its error
unit) at both parities on the same x values. The grid
covers integer and half-integer orders, small x at high order (where the
ladder rescales) and x up to 200, plus three points where only adding y_0
last to the integer normalizer, not forming 2 * sum - y_0, keeps the last
bit of the error bound. ``_eval_miller`` is pinned the same way on a
second grid, the region where an ascending series could serve
(``_use_series``): small orders for x <= 14, and high orders at the edge of
that region, x = 1.5 nu or, past twice_nu = 48, the x where the series'
cancellation estimate reaches its budget.
"""

from __future__ import annotations

import hashlib

import pytest

from ballspec import bessel, cli

GOLDEN = [
    ("spectrum --d 2 --bc neumann --lambda-max 0", 0,
     "4956a25f6cd77f030d61c76fdcd8a9d6d99c437f2bdab143971a400eccf6924c"),
    ("spectrum --d 2 --bc neumann --lambda-max 0 --format csv", 0,
     "d6bfbb7173abad63a32f47c60f849435db114c21192d40e1424d6440403d8d6d"),
    ("spectrum --d 3 --bc dirichlet --lambda-max 150 --format csv", 0,
     "6ea2e177621df458da476e92eaf773b34e5ece40a08f3c198fa3df7823cd46f8"),
    ("spectrum --d 4 --bc neumann --lambda-max 80", 0,
     "750de013ca53eed0b1c1497d22c31f081308735c5057343dda2a4364838a3812"),
    ("zeros --l 0 --d 3 --bc neumann --count 5", 0,
     "9530603afdf44a3b35e6fbc4584d0c3ed5ed6c7f849f3d732f67d692065e3662"),
    ("zeros --l 0 --d 240 --bc neumann --count 3 --format csv", 0,
     "06cfe1bd6d38f931111cd80a9cc9e6e350a1ca9888ccf3eee79af99474c959e0"),
    ("zeros --l 2 --d 2 --bc dirichlet --m 3 --tol 1e-6 --format csv", 0,
     "f459371637a80cabef7679ef8dc661f4d1c50a1a7bb8b338c50d8e1be795ec35"),
    ("zeros --l 120 --d 2 --bc dirichlet --count 1", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("courant --d 2 --bc dirichlet --lmax 3 --mmax 2 --format csv", 0,
     "4e8fb9399dc80ef22a55b847cb75e4aa2a22019ec611a9e7b8e01729f56c4858"),
    ("courant --d 3 --bc neumann --lmax 2 --mmax 2", 0,
     "7750eb66279f58cfa1204b0af3dd53857fdb669fa31f249eb8f6c4275df9584b"),
    ("pleijel --gamma 7", 0,
     "60df44e1fd27eeb17d8b954aa24c14c99b46cce3047b04594ef857fecf87b53d"),
    ("pleijel --table 2 6 --format csv", 0,
     "1da94d77c4fb43e5a2f58738d42011a4abebc8e1997e25cf26f593933afecb46"),
    ("pleijel --curve 2 5", 0,
     "b7df13ada4a64484c4a8cfc35b8bbe03eee246376dd35b035ac7dd8bfd7a246f"),
    ("certify --d 5", 0,
     "07ad69d739503de6826f615a084203c24491ead3776173753562c5c7bff19304"),
    ("certify --d 4 --through 6 --format csv", 0,
     "c1406d24d015d8a7141ee0c3c922aae4b25bdcd06afe48f7230b645231fd5084"),
    ("selfcheck --fast --format csv", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("selfcheck --fast", 0,
     "58d67d432661c54c9b58c4ae0230a5693e614e1dc4f65f0d41d9d33995b79044"),
    ("pleijel --table 2 6", 0,
     "6655e0325d97ca99b0abf77cda008348d3e9b6d9860811ccd7fb51d8414f0532"),
    ("pleijel --gamma 7 --format csv", 0,
     "923636108e7736825a6dfd46530497b91d16f847ee70e8c127414fd4a30931b5"),
    ("pleijel --curve 2 5 --format csv", 0,
     "598df9be1bf02b7f8166f4ea61fba85efe5fb412510632ad07f3af890d33623c"),
    ("courant --d 3 --bc dirichlet --lmax 2 --mmax 2 --format csv", 0,
     "8e837d0b859270ba2a33b0aad414087b927a407890238703358ff6a5eba0df18"),
    ("certify --d 4 --through 5", 0,
     "2300f7fb4936493ca72adaacbb0572d6c6b97e06a0e30fe2cce966d974305de9"),
    ("zeros --l 3 --d 3 --bc neumann --count 2 --format csv", 0,
     "c272751942dc97d5abcf0f510563587d712d6b83516ae33aa174fff58c867198"),
]


@pytest.mark.parametrize("argv,want_rc,want_sha", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_stdout_digest_and_exit_code(capsys, argv, want_rc, want_sha):
    rc = cli.run(argv.split())
    out = capsys.readouterr().out
    assert rc == want_rc
    assert hashlib.sha256(out.encode()).hexdigest() == want_sha


KERNEL_TWICE_NU = (0, 1, 2, 3, 17, 40, 81, 120, 161, 200, 237, 238)
KERNEL_XS = (0.05, 0.3, 1.0, 3.7, 9.9, 14.2, 31.4, 62.8, 99.0, 150.0, 200.0)
KERNEL_POINTS = [(tn, x) for tn in KERNEL_TWICE_NU for x in KERNEL_XS] + [
    (2, 124.45930183746405), (12, 81.36552999244111), (94, 199.37993317614615)]
KERNEL_GOLDEN = [
    ("_eval_miller",
     "0c80e0ec29dcdd207d66cc78b0690d26e1928cf2a7f8568e9e02a47ba09d9a37"),
    ("_pair_float",
     "e460abe9786fd1a547e599b3539ae06ec5104fc858ec44c0f1f5705798aca025"),
]


@pytest.mark.parametrize("name,want_sha", KERNEL_GOLDEN,
                         ids=[g[0] for g in KERNEL_GOLDEN])
def test_miller_ladder_bits(name, want_sha):
    ladder = getattr(bessel, name)
    text = "\n".join(repr(tuple(ladder(tn, x)[:3])) for tn, x in KERNEL_POINTS)
    assert hashlib.sha256(text.encode()).hexdigest() == want_sha


# the shared float ladder, sized for a low order (it keeps every order up to
# int(x) + 1), a middle one and the box top
LADDER_POINTS = [(parity, x, top) for parity in (0, 1) for x in KERNEL_XS
                 for top in (0, 40, 119)]
LADDER_GOLDEN = (
    "be318e832d51721263b4fcd08ca65954e742b23ae93166c1b339a7a6d3a77456")


def test_ladder_float_bits():
    text = "\n".join(repr(bessel._ladder_float(parity, x, top))
                     for parity, x, top in LADDER_POINTS)
    assert hashlib.sha256(text.encode()).hexdigest() == LADDER_GOLDEN


SERIES_POINTS = [(tn, x) for tn in (0, 1, 2, 3, 7, 16)
                 for x in (0.05, 0.3, 1.0, 3.7, 7.5, 9.9, 12.0, 14.0)] + [
    (20, 15.0), (33, 24.75), (48, 36.0), (60, 44.68), (80, 50.27),
    (101, 56.51), (120, 62.36), (159, 74.7), (200, 87.92), (239, 100.62),
    (240, 100.94), (60, 30.0), (120, 14.0), (200, 50.0), (240, 3.7)]
SERIES_GOLDEN = (
    "71de329bc1dec934cc2d169020b0a52657a30338f57948cadc963100d81e4536")


def test_miller_bits_on_series_grid():
    text = "\n".join(repr(tuple(bessel._eval_miller(tn, x)[:3]))
                     for tn, x in SERIES_POINTS)
    assert hashlib.sha256(text.encode()).hexdigest() == SERIES_GOLDEN
