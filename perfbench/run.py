"""ballspec benchmark: seeded CLI job lists, one fresh process at a time.

    python3 perfbench/run.py --workload spectrum|sweep|lookup|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Each job is
``python -m ballspec.cli ARGV`` in a fresh process, run one after another
(a closed loop with a single client), and its stdout is checked against the
references in ``reference.json.gz``. With ``--trace 0`` the end-to-end
metrics are measured; with ``--trace 1`` every job runs twice, once plain
and once under ``trace_child.py``, which gives the per-layer metrics and
the tracing overhead. A run's length is set by the workload (``pool.py``);
``--seconds`` is accepted because the benchmark's command line carries it,
and is only echoed. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it give
every metric with its unit and sample count, and the run's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import pool  # noqa: E402
import spans  # noqa: E402

ROOT = HERE.parent
SETUP_SAMPLES = 15
SETUP_CMD = [sys.executable, "-c", "import ballspec.cli"]
JOB_TIMEOUT_S = 150.0


def child_env() -> dict:
    """The pinned environment of every child process."""
    env = dict(os.environ)
    # default of one thread; bytecode cached next to the sources
    for name in ("BALLSPEC_THREADS", "PYTHONDONTWRITEBYTECODE",
                 "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Proc:
    """One finished child: stdout, stderr, exit code, wall and rusage."""

    def __init__(self, cmd: list[str], env: dict) -> None:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        err: list[bytes] = []
        drain = threading.Thread(target=lambda: err.append(p.stderr.read()))
        drain.start()
        timer = threading.Timer(JOB_TIMEOUT_S, p.kill)
        timer.start()
        try:
            self.stdout = p.stdout.read()
            drain.join()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
            p.stdout.close()
            p.stderr.close()
        self.wall_s = time.perf_counter() - t0
        p.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.stderr = err[0].decode("utf-8", "replace")
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB


def cli_cmd(argv) -> list[str]:
    return [sys.executable, "-m", "ballspec.cli", *argv]


def trace_cmd(argv) -> list[str]:
    return [sys.executable, str(HERE / "trace_child.py"), *argv]


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "commit": commit}


class Outcome:
    """Correctness tally over the jobs of a run."""

    def __init__(self, ref: dict) -> None:
        self.ref = ref
        self.failed = 0
        self.identical = 0
        self.first_error: str | None = None

    def judge(self, argv, proc: Proc, stdout: bytes) -> bool:
        """Check one execution of a job; True if it passed."""
        if proc.rc != 0:
            error = f"exit {proc.rc}: {proc.stderr.strip()[-300:]}"
            identical = False
        else:
            error, identical = check.verify(argv, stdout, self.ref)
        self.identical += identical
        if error and self.first_error is None:
            self.first_error = f"{check.key(argv)}: {error}"
        return error is None


def e2e_line(name: str, value, unit: str, n: int, note: str = "") -> str:
    shown = "undefined" if value is None else f"{value:.6g}"
    return f"{name:<14} {shown:>12} {unit:<6} n={n}{note}"


def run_plain(jobs, env, outcome: Outcome) -> tuple[dict, list[str]]:
    # set-up samples are spread over the run, so that their median sees the
    # same machine as the jobs rather than one moment of it
    slots = [k * len(jobs) // SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
    setup, walls, cpu, rss = [], [], 0.0, 0.0
    for i, argv in enumerate(jobs):
        setup += [Proc(SETUP_CMD, env).wall_s for _ in range(slots.count(i))]
        proc = Proc(cli_cmd(argv), env)
        outcome.failed += not outcome.judge(argv, proc, proc.stdout)
        walls.append(proc.wall_s)
        cpu += proc.cpu_s
        rss = max(rss, proc.rss_mb)
    wall = sum(walls)
    n = len(jobs)
    p50, p90 = statistics.median(walls), spans.percentile(walls, 0.9)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "job_s.p50": (p50, "s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines = [
        e2e_line("setup_s", metrics["setup_s"][0], "s", SETUP_SAMPLES),
        e2e_line("wall_s", wall, "s", n),
        e2e_line("job_s.p50", p50, "s", n),
        e2e_line("job_s.p90", p90, "s", n,
                 "" if p90 is not None else
                 f" (needs {spans.MIN_BEYOND} samples beyond p90)"),
        e2e_line("cpu_s", cpu, "s", n),
        e2e_line("peak_rss_mb", rss, "MB", n),
        e2e_line("failed_ratio", outcome.failed / n, "ratio", n),
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def run_traced(jobs, env, outcome: Outcome) -> tuple[dict, list[str]]:
    stats = spans.LayerStats()
    plain_s = traced_s = 0.0
    for i, argv in enumerate(jobs):
        # alternate which of the two goes first, so order effects cancel
        if i % 2:
            traced, plain = Proc(trace_cmd(argv), env), Proc(cli_cmd(argv), env)
        else:
            plain, traced = Proc(cli_cmd(argv), env), Proc(trace_cmd(argv), env)
        header, _, stdout = traced.stdout.partition(b"\n")
        ok = outcome.judge(argv, plain, plain.stdout)
        ok = outcome.judge(argv, traced, stdout) and ok
        outcome.failed += not ok
        plain_s += plain.wall_s
        traced_s += traced.wall_s
        if traced.rc == 0:
            info = json.loads(header)
            stats.add_job(argv[0], info["spans"], info["import_s"], len(stdout))
    metrics = stats.metrics(outcome.identical / (2 * len(jobs)),
                            traced_s / plain_s)
    lines = [f"{name:<34} {m['value']:>14.6g} {m['unit']}"
             for name, m in metrics.items()]
    lines.append("zeros.cache_hit_ratio by command: " + ", ".join(
        f"{cmd} {(calls - cold) / calls:.3f} ({calls} calls)"
        for cmd, (calls, cold) in sorted(stats.by_command.items()) if calls))
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 ref: dict, env: dict) -> dict:
    jobs = pool.WORKLOADS[name].jobs(seed)
    warm = Proc(cli_cmd(pool.WARMUP), env)
    if warm.rc != 0:
        raise RuntimeError(f"warm-up job failed (exit {warm.rc}): "
                           f"{warm.stderr.strip()[-300:]}")
    outcome = Outcome(ref)
    measure = run_traced if trace else run_plain
    metrics, lines = measure(jobs, env, outcome)
    print(f"# workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)} jobs={len(jobs)}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for line in lines:
        print(line)
    if outcome.first_error:
        print(f"# first failure: {outcome.first_error}")
    return {"correct": outcome.failed == 0, "attempted": len(jobs),
            "failed": outcome.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*pool.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="accepted and echoed; the workload sets the run length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ballspec" / "cli.py").is_file():
        print(f"error: no ballspec sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    ref = check.load_reference()
    env = child_env()
    names = list(pool.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), ref, env)
                   for name in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
