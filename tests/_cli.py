"""Helpers shared by the CLI tests: run_cli, and GOLDEN, the cheap argv
whose stdout digest and exit code tests/test_golden.py pins.

The argv cover every subcommand and both formats, the lambda = 0 Neumann
edge (the lone zero mode at r = 0), the degree-0 Neumann zeros (which
count r = 0 first) at d = 3 and at d = 240, a zero of order 120, a Neumann
zero of order 240, whose pair reaches past the order cap, read below the turning
point from the ascending series, the selfcheck report and
its refusal of ``--format`` (exit 1, empty stdout), and every table layout
the CLI writes, including empty CSV cells (the last ``quotient`` of a gamma
table, a verdict with no nodal count ``mu``). Update a digest only in a
change that means to alter that output.
"""

from __future__ import annotations

from ballspec import cli


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of cli.run on argv, in-process."""
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (argv, exit code, SHA-256 of stdout)
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
    ("zeros --l 120 --d 2 --bc dirichlet --count 1", 0,
     "344f2afbcef7024624cdd9556e351efd124909a64a3df5938c919516c5bcca21"),
    ("zeros --l 91 --d 300 --bc neumann --count 1", 0,
     "d2c0aa70b8bb8b9d1b1b84044e6550f9a5607de8d48223af493a34b17b9abf1e"),
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
