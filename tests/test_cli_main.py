"""The process path: ``python -m ballspec.cli`` runs ``cli.main``, which
flushes stdout and stderr and ends the process through ``os._exit``. Its
stdout, exit code and stderr are those of ``cli.run`` in-process, and a
stdout that is closed or whose reader has gone is a usage error (exit 1,
one stderr line), as an unwritable --output is."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ballspec import cli
from tests import _box
from tests._cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
CMD = [sys.executable, "-m", "ballspec.cli"]
# a pipe holds 64 KiB on Linux; both formats of this job write more
BIG = "certify --d 4 --through 62"
SMALL = "zeros --l 0 --d 2 --bc dirichlet --count 2"
STDOUT_GONE = "usage error: cannot write stdout: "


def main_cli(argv: str, **kwargs) -> subprocess.CompletedProcess:
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(CMD + argv.split(), env=ENV, stderr=subprocess.PIPE,
                          timeout=120, **kwargs)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stdout_past_a_pipe_buffer_is_run_s_output(capsys, fmt):
    argv = f"{BIG} --format {fmt}"
    code, out, err = run_cli(capsys, *argv.split())
    proc = main_cli(argv)
    assert len(out) > 65536
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out.encode(), err.encode())


@pytest.mark.parametrize("argv, want", [
    ("zeros --l 0", 1),
    ("pleijel --gamma 1", 1),
    (f"pleijel --gamma {_box.EDGES['d_max'] + 1}", 1),
    ("spectrum -h", 0),
    (SMALL, 0),
])
def test_exit_code_and_streams_are_run_s(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv.split())
    proc = main_cli(argv)
    assert code == want
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out.encode(), err.encode())


def test_output_file_is_complete(capsys, tmp_path):
    _, out, _ = run_cli(capsys, *BIG.split())
    target = tmp_path / "certify.json"
    proc = main_cli(f"{BIG} --output {target}")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert target.read_text() == out


def _closed_stdout(argv: str) -> subprocess.CompletedProcess:
    """Run argv with fd 1 closed, as the shell's >&- leaves it."""
    script = 'exec "$0" -m ballspec.cli "$@" >&-'
    return subprocess.run(["sh", "-c", script, sys.executable, *argv.split()],
                          env=ENV, stderr=subprocess.PIPE, timeout=120)


def test_closed_stdout_is_a_usage_error():
    proc = _closed_stdout(SMALL)
    assert proc.returncode == 1
    assert proc.stderr == f"{STDOUT_GONE}Bad file descriptor\n".encode()


def test_help_into_a_closed_stdout_is_a_usage_error():
    proc = _closed_stdout("-h")
    assert proc.returncode == 1
    assert proc.stderr == f"{STDOUT_GONE}Bad file descriptor\n".encode()


def test_closed_stdout_is_not_needed_with_output(tmp_path):
    target = tmp_path / "zeros.json"
    proc = _closed_stdout(f"{SMALL} --output {target}")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert target.read_text().startswith("{")


# SMALL fits the stdout buffer, so main's final flush meets the closed
# pipe; BIG does not, so _write does
@pytest.mark.parametrize("argv", [SMALL, BIG])
def test_pipe_closed_before_the_write_is_a_usage_error(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = main_cli(argv, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == f"{STDOUT_GONE}Broken pipe\n".encode()


def test_run_refuses_a_closed_stdout(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    code = cli.run(SMALL.split())
    assert code == 1
    assert capsys.readouterr().err == f"{STDOUT_GONE}Bad file descriptor\n"


_ATEXIT_CHILD = """
import atexit, sys
from ballspec import cli
atexit.register(print, "atexit ran", file=sys.stderr)
sys.argv[1:] = ["pleijel", "--gamma", "2"]
cli.main()
print("main returned", file=sys.stderr)
"""


def test_main_ends_the_process_without_teardown():
    proc = subprocess.run([sys.executable, "-c", _ATEXIT_CHILD], env=ENV,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"{") and proc.stderr == b""
