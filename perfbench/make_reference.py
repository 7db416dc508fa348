"""Record the references that ``run.py`` checks job outputs against.

    python3 perfbench/make_reference.py

Runs every request of every workload pool once, plus the whole-box master
runs, and writes ``reference.json.gz``. Re-record only when a change is
meant to alter the CLI's output, and say so with the change.
"""

from __future__ import annotations

import gzip
import json
import sys

import check
import pool
from run import Proc, child_env, cli_cmd

CURVE = ("pleijel", "--curve", "2", "239", "--format", "json")
CERTIFY = ("certify", "--d", "4", "--through", "239", "--format", "json")


def stdout_of(argv, env) -> str:
    proc = Proc(cli_cmd(argv), env)
    if proc.rc != 0:
        sys.exit(f"{check.key(argv)}: exit {proc.rc}: {proc.stderr}")
    return proc.stdout.decode("utf-8")


def main() -> int:
    env = child_env()
    ref = {"sha256": {}, "stdout": {}, "spectrum": {},
           "curve": json.loads(stdout_of(CURVE, env)),
           "certify": json.loads(stdout_of(CERTIFY, env))}
    entries = [e for w in pool.WORKLOADS.values() for e in w.entries()]
    # the JSON table at the largest cutoff of each (d, bc) is its master
    largest: dict[str, tuple] = {}
    for argv in sorted((e for e in entries
                        if e[0] == "spectrum" and e[-1] == "json"),
                       key=lambda e: float(check.flag(e, "--lambda-max"))):
        largest[f"{check.flag(argv, '--d')}/{check.flag(argv, '--bc')}"] = argv
    outputs = {}
    for i, argv in enumerate(entries):
        text = stdout_of(argv, env)
        outputs[check.key(argv)] = text
        ref["sha256"][check.key(argv)] = check.digest(text.encode("utf-8"))
        if not check.sliced(argv):
            ref["stdout"][check.key(argv)] = text
        print(f"[{i + 1}/{len(entries)}] {check.key(argv)}", file=sys.stderr)
    for name, argv in largest.items():
        ref["spectrum"][name] = json.loads(outputs[check.key(argv)])
    # every recorded output must pass its own check, slices included
    for argv in entries:
        error, identical = check.verify(
            argv, outputs[check.key(argv)].encode("utf-8"), ref)
        if error or not identical:
            sys.exit(f"{check.key(argv)}: reference self-check failed: {error}")
    with gzip.GzipFile(check.REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(ref, sort_keys=True).encode("utf-8"))
    print(f"wrote {check.REFERENCE} ({len(entries)} requests)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
