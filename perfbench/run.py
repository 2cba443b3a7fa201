"""Closed-loop benchmark of the loopalg command line.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

One client calls ``loopalg.cli.main`` in-process on seeded, generated
command lines, one after another, with stdout captured in memory. Each
workload runs in its own process; without ``--workload`` every workload
runs in turn. Every output is checked between commands, outside the timed
region (see ops.py), and every failed op is listed with its command line
and reason. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
ops with every loopalg layer wrapped (see tracing.py), replays them
untraced to measure the tracing overhead, and reports per-layer metrics.
"""

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shlex
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import ops  # sibling modules: Python puts the script's directory on sys.path
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("invert", "localize", "suites")


class OpOverrun(Exception):
    """Raised by SIGALRM when an op outlives its wall-time budget."""


def _on_alarm(signum, frame):
    raise OpOverrun()


class Outcome(NamedTuple):
    latency: float
    rc: object
    stdout: str
    stderr: str
    error: object


def run_op(cli, op, budget):
    """One command, in-process, cut off by SIGALRM after `budget` seconds."""
    out, err = io.StringIO(), io.StringIO()
    rc = error = None
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(list(op.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpOverrun:
        error = f"exceeded the {budget} s budget"
    except Exception as exc:  # a crashing op is a failed op; the loop goes on
        error = f"raised {type(exc).__name__}: {exc}"
    return Outcome(time.perf_counter() - start, rc, out.getvalue(), err.getvalue(), error)


# The sandbox's speed drifts by tens of percent within minutes. A fixed
# stdlib loop, timed before every op, tracks that speed; op times are scaled
# to a machine on which the loop takes CALIBRATION_REF_S. Nothing in loopalg
# runs in the loop, so no change to loopalg moves it.
CALIBRATION_REF_S = 0.002
CALIBRATION_WINDOW = 5


def calibrate():
    start = time.perf_counter()
    acc = {}
    step = Fraction(3, 7)
    for i in range(400):
        acc[i % 17] = acc.get(i % 17, 0) + step * i
    return time.perf_counter() - start


def scaled(times, calibrations):
    """Each time divided by the median calibration of the ops around it."""
    w = CALIBRATION_WINDOW
    return [
        t * CALIBRATION_REF_S / statistics.median(calibrations[max(0, i - w): i + w + 1])
        for i, t in enumerate(times)
    ]


def digest(text):
    """First 64 bits of the SHA-256 of an op's stdout, as pinned."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Loop:
    """Single closed-loop client: the next op starts when the last one ends."""

    def __init__(self, cli, op_list, budget, pins, before_op=None):
        self.cli, self.op_list, self.budget, self.pins = cli, op_list, budget, pins
        self.before_op = before_op
        self.ran, self.latencies, self.calibrations, self.digests = [], [], [], []
        self.failures = []
        self.output_bytes = 0
        self.busy = 0.0  # seconds spent inside commands
        self.wrong = 0  # ops that exited 0 with a wrong or changed output

    def run(self, seconds=None, period=1, count=None, checked=True):
        """Run ops until `count` are done, or else until `seconds` of
        command time have passed and a whole number of `period` ops ran."""
        i = 0
        while (i < count) if count is not None else (self.busy < seconds or i % period):
            op = self.op_list[i % len(self.op_list)]
            if self.before_op:
                self.before_op()
            # Each op starts on a collected heap, as a fresh CLI process would.
            gc.collect()
            self.calibrations.append(calibrate())
            outcome = run_op(self.cli, op, self.budget)
            self.ran.append(op)
            self.latencies.append(outcome.latency)
            self.busy += outcome.latency
            self.digests.append(digest(outcome.stdout))
            self.output_bytes += len(outcome.stdout.encode())
            reason = outcome.error
            if reason is None and checked:
                reason = self._check(op, outcome)
            if reason is not None:
                self.failures.append((op, reason))
            i += 1

    def _check(self, op, outcome):
        reason = ops.check(op, outcome.rc, outcome.stdout, outcome.stderr)
        changed = op.index < len(self.pins) and self.pins[op.index] != self.digests[-1]
        if changed:
            reason = "stdout differs from its pinned digest" + (f"; {reason}" if reason else "")
        if changed or (reason is not None and outcome.rc == 0):
            self.wrong += 1
        return reason

    def scaled_latencies(self):
        return scaled(self.latencies, self.calibrations)


def load_loopalg(workload, seed, spec):
    """Import loopalg from the checkout's src/ and generate the op list,
    `setup_repeats` times; returns (cli module, ops, setup times)."""
    if not (SRC / "loopalg" / "__init__.py").is_file():
        raise SystemExit(f"error: no loopalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    times, calibrations = [], []
    for _ in range(spec["setup_repeats"]):
        for name in [m for m in sys.modules if m == "loopalg" or m.startswith("loopalg.")]:
            del sys.modules[name]
        gc.collect()
        calibrations.append(calibrate())
        start = time.perf_counter()
        cli = importlib.import_module("loopalg.cli")
        op_list = ops.generate(workload, seed, spec["rounds"], spec["cycle_rounds"])
        times.append(time.perf_counter() - start)
    package = sys.modules["loopalg"]
    if Path(package.__file__).resolve().parent != (SRC / "loopalg").resolve():
        raise SystemExit(f"error: imported loopalg from {package.__file__}, not {SRC}")
    return cli, op_list, scaled(times, calibrations)


def stamp(seed, n_ops):
    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
        if head.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "ops": n_ops,
        "loopalg_file": sys.modules["loopalg"].__file__,
    }


def end_to_end(loop, setup_times):
    lat = loop.scaled_latencies()
    p90 = statistics.quantiles(lat, n=10)[-1]
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }, {
        "ops_per_s": f"{len(lat)} ops; unscaled {len(lat) / loop.busy:.3f}/s",
        "latency_p50_ms": f"n={len(lat)}; unscaled {statistics.median(loop.latencies) * 1000:.3f} ms",
        "latency_p90_ms": f"n={len(lat)}, {sum(v > p90 for v in lat)} beyond",
        "setup_s": f"median of {len(setup_times)}",
    }


def run_workload(name, seed, seconds, traced):
    spec = json.loads((HERE / "workloads.json").read_text())
    workload = spec["workloads"][name]
    ops.validate(name, workload)
    pins = json.loads((HERE / "pins.json").read_text()).get(name, {}).get(str(seed), [])
    cli, op_list, setup_times = load_loopalg(workload, seed, spec)
    # The collection before each op then only walks what the op left behind.
    gc.freeze()
    budget = spec["op_budget_s"]
    period = spec["cycle_rounds"] * len(workload["slots"])
    record = {"workload": name, "trace": int(traced)}

    if not traced:
        loop = Loop(cli, op_list, budget, pins)
        loop.run(seconds=seconds, period=period)
        metrics, notes = end_to_end(loop, setup_times)
        correct = loop.wrong == 0
    else:
        tracer = tracing.Tracer(sys.modules["loopalg"])
        tracer.install()
        try:
            traced_loop = Loop(cli, op_list, budget, pins, before_op=tracer.reset_stack)
            traced_loop.run(seconds=seconds / 2, period=period, checked=False)
        finally:
            tracer.remove()
        loop = Loop(cli, op_list, budget, pins)
        loop.run(count=len(traced_loop.latencies))
        changed = sum(a != b for a, b in zip(traced_loop.digests, loop.digests))
        if changed:
            print(f"tracing changed the stdout of {changed} ops", file=sys.stderr)
        correct = loop.wrong == 0 and changed == 0
        traced_s, untraced_s = sum(traced_loop.scaled_latencies()), sum(loop.scaled_latencies())
        metrics = tracing.layer_metrics(
            tracer,
            traced_loop.output_bytes,
            traced_s / untraced_s,
            len(loop.failures) / len(loop.latencies),
        )
        notes = {"trace.overhead_ratio": f"{traced_s:.3f} s traced / {untraced_s:.3f} s untraced, scaled"}
        record["spans"] = [
            {"span": s, "parent": p, "count": c, "total_s": t, "self_s": st}
            for s, p, c, t, st in tracer.span_table()
        ]

    info = stamp(seed, len(loop.latencies))
    failures = [
        {"op": op.index, "kind": op.kind, "command": "loopalg " + shlex.join(op.argv), "reason": why}
        for op, why in loop.failures
    ]
    record["ops"] = [
        {"op": op.index, "kind": op.kind, "latency_s": t, "scaled_s": st}
        for op, t, st in zip(loop.ran, loop.latencies, loop.scaled_latencies())
    ]
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update(stamp=info, metrics=reported, failures=failures, correct=correct)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {name}: {workload['reason']}")
    print("stamp: " + json.dumps(info))
    for key, (value, unit) in metrics.items():
        note = notes.get(key, "")
        print(f"  {key:40s} {value:>16.6f} {unit:6s} {note}")
    for failure in failures:
        print(f"  FAILED op {failure['op']} [{failure['kind']}] {failure['command']}: {failure['reason']}")
    inverting = [op for op in loop.ran if op.kind in ("invert", "approx", "converge")]
    if inverting:
        multi = sum(op.params["lead"] == "multiterm" for op in inverting)
        print(f"  multi-term lowest coefficient: {multi} of {len(inverting)} inverting ops")
    print(f"  {len(failures)} of {len(loop.latencies)} ops failed; output check {'passed' if correct else 'FAILED'}")

    if traced:
        broken = tracing.expectation_failures(name, metrics)
        if broken:
            for line in broken:
                print(f"trace expectation failed on {name}: {line}", file=sys.stderr)
            return 1
    print(json.dumps({
        "correct": correct,
        "attempted": len(loop.latencies),
        "failed": len(failures),
        "metrics": reported,
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOADS:
        child = subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        status = status or child.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
