"""Correctness of a job's stdout against the references recorded in
``reference.json.gz``.

Large outputs are checked against master tables: a spectrum against the
table of its (d, bc) at the pool's largest cutoff, of which every smaller
cutoff is a prefix, and chunks of the Pleijel curve or of the certificate
chain against the whole-box run. Small outputs are stored whole. Every job
also has the SHA-256 of its exact stdout, for the byte-identity ratio.

Comparison rules: keys present in the reference must match and extra keys
are ignored; strings, integers and list lengths match exactly; floats agree
within ``REL_TOL`` relative, and exactly where the reference is 0.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import re
from pathlib import Path

REL_TOL = 1e-13
CUTOFF_SLACK = 1e-9  # the CLI's inclusive cutoff slack on lambda_max
REFERENCE = Path(__file__).with_name("reference.json.gz")
_INT = re.compile(r"-?\d+\Z")


def key(argv) -> str:
    return " ".join(argv)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference(path: Path = REFERENCE) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _cell(text: str):
    if _INT.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse(text: str, fmt: str):
    """JSON to objects; CSV to a list of row dicts with typed cells."""
    if fmt == "json":
        return json.loads(text)
    rows = csv.DictReader(io.StringIO(text))
    return [{k: _cell(v) for k, v in row.items()} for row in rows]


def mismatch(got, want, where: str = "$") -> str | None:
    """None if ``got`` matches ``want`` under the rules above, else where not."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{where}: expected an object"
        for k, v in want.items():
            if k not in got:
                return f"{where}.{k}: missing"
            bad = mismatch(got[k], v, f"{where}.{k}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: expected a list of {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            bad = mismatch(g, w, f"{where}[{i}]")
            if bad:
                return bad
        return None
    # "%.17g" prints an integral float without a point, so a float field
    # may parse as an int on either side
    if float in (type(got), type(want)) and {type(got), type(want)} <= {int, float}:
        ok = got == 0 if want == 0 else abs(got - want) <= REL_TOL * abs(want)
    else:
        ok = type(got) is type(want) and got == want
    return None if ok else f"{where}: {got!r} != {want!r}"


def spectrum_prefix(records: list[dict], lambda_max: float) -> list[dict]:
    """Records of a master table that a run with this cutoff must print."""
    return [r for r in records if r["lambda"] <= lambda_max + CUTOFF_SLACK]


def flag(argv, name: str):
    return argv[argv.index(name) + 1]


def sliced(argv) -> bool:
    """True if a job's reference is cut from a master run, not stored whole."""
    return argv[0] == "spectrum" or "--curve" in argv or "--through" in argv


def expected(argv, ref: dict):
    """The parsed stdout a job must produce."""
    fmt = flag(argv, "--format")
    if argv[0] == "spectrum":
        d, bc = int(flag(argv, "--d")), flag(argv, "--bc")
        lam = float(flag(argv, "--lambda-max"))
        master = ref["spectrum"][f"{d}/{bc}"]
        records = spectrum_prefix(master["records"], lam)
        if fmt == "csv":
            return records
        return {"d": d, "bc": master["bc"], "lambda_max": lam,
                "records": records}
    if "--curve" in argv:
        a = int(flag(argv, "--curve"))
        b = int(argv[argv.index("--curve") + 2])
        curve = ref["curve"]
        points = [(x, y) for x, y in zip(curve["x"], curve["y"]) if a <= x <= b]
        if fmt == "csv":
            return [{"d": x, "quotient": y} for x, y in points]
        return {"x": [x for x, _ in points], "y": [y for _, y in points],
                "hline": curve["hline"]}
    if "--through" in argv:
        a, b = int(flag(argv, "--d")), int(flag(argv, "--through"))
        certs = [c for c in ref["certify"]["certificates"] if a <= c["d"] <= b]
        if fmt == "csv":
            return [dict(d=c["d"], **check) for c in certs
                    for check in c["checks"]]
        return {"d_min": a, "d_max": b, "certificates": certs}
    return parse(ref["stdout"][key(argv)], fmt)


def verify(argv, stdout: bytes, ref: dict) -> tuple[str | None, bool]:
    """(mismatch or None, byte-identical to the recorded stdout)."""
    identical = digest(stdout) == ref["sha256"].get(key(argv))
    try:
        got = parse(stdout.decode("utf-8"), flag(argv, "--format"))
    except (UnicodeDecodeError, ValueError, TypeError) as exc:
        return f"unparsable stdout: {exc}", identical
    return mismatch(got, expected(argv, ref)), identical
