"""Closed-loop benchmark for hypermoyal.

Run from the root of a checkout::

    python3 perfbench/run.py --workload star-wide --seed 1 --seconds 15 --trace 0

One caller runs the workload's operations one after another, each starting
when the previous one has returned; there are no threads and at most one
child process at a time.  The operations of a run are one batch generated
from the seed (see :mod:`workloads`).  The loop runs the whole batch in
passes, each pass in a new seeded order, until ``--seconds`` have passed,
so a run measures at least ``--seconds`` and at least one whole pass.
Every output of every pass is checked after its timed region.

Every timed interval is scaled to a host of fixed speed.  A shared host
can run the same code up to ~2x slower at times, changing within a second
(seen on a 2-vCPU cloud VM, where process CPU time slows as much as wall
time), so raw times of the same code differ by more than a run can average
out.  The benchmark therefore times a fixed reference loop of
standard-library ``Fraction`` arithmetic, which the program cannot change,
right before and right after each timed interval and, from a ``SIGALRM``
timer, every ``SPEED_TICK_S`` within it.  The host's speed at a sample is
``REF_NOMINAL_S`` over the loop's time; the interval, less the time the
samples inside it took, is multiplied by the mean speed.  The process and
its children are pinned to one CPU, so the reference loop and a CLI
subprocess run on the same one.  A metric in ``ms`` or ``s`` is therefore
time on a host on which the reference loop takes ``REF_NOMINAL_S`` (about
the loop's best time on the VM above); the result records the host's
median speed as ``detail.host_speed``.

An operation's latency is the median of its scaled times over the passes.
``op_p50_ms`` and ``op_p90_ms`` are quantiles of those latencies;
``ops_per_s`` is verified operations per second of their sum.  Between
operations, spread over the run, ``SELFTEST_RUNS`` ``selftest --fast``
subprocesses run, each with its own seed drawn from the run's, since the
cost of a self-test depends on its seed (the mean scaled wall time is
``selftest_fast_s``), and
set-up, import plus seeded generation of the batch, is repeated
``SETUP_PROBES`` times in fresh processes, each scaling its own time (the
median is ``setup_s``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the batch
untraced and traced in turn, pass by pass, then probes every layer, and reports
the per-layer metrics.  Human-readable lines come first, and the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with input shapes and
environment, goes to ``.perfbench_out/result-<workload>-s<seed>-t<trace>.json``;
spans of a traced run go beside it as JSON lines.

``--compare OLD NEW`` prints per-workload, per-metric deltas between two
result files or directories of result files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("star-wide", "operator-route", "cli-session")
SETUP_PROBES = 7
SELFTEST_RUNS = 3

#: the reference loop's time on a host of nominal speed, see ``reference_s``
REF_NOMINAL_S = 0.45e-3
#: seconds between speed samples inside a timed interval
SPEED_TICK_S = 0.1

#: (name, unit) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("selftest_fast_s", "s"),
)


def _import_library():
    """Put the checkout's ``src`` on the path; fail when it is missing."""
    if not os.path.isdir(os.path.join(ROOT, "src", "hypermoyal")):
        raise SystemExit(f"error: no src/hypermoyal under {ROOT}; run from a full checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    return workloads


def _reference_once() -> float:
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return time.perf_counter() - t0


def reference_s() -> float:
    """Time of the reference loop now: the better of two runs."""
    return min(_reference_once(), _reference_once())


class ScaledTimer:
    """Times one interval, scaled to a host of nominal speed (see above).

    ``with timer:`` runs the body; then ``timer.raw`` is its wall time less
    the samples taken inside it, ``timer.speed`` the mean host speed and
    ``timer.elapsed`` the scaled time.
    """

    def __init__(self):
        self.refs = []
        self.sampling_s = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.refs.append(reference_s())
        self.sampling_s += time.perf_counter() - t0

    def __enter__(self):
        self.refs, self.sampling_s = [reference_s()], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_TICK_S, SPEED_TICK_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.raw = wall - self.sampling_s
        self.refs.append(reference_s())
        self.speed = statistics.fmean(REF_NOMINAL_S / ref for ref in self.refs)
        self.elapsed = self.raw * self.speed
        return False


def _pin_to_one_cpu():
    """Pin this process, and so its children, to one CPU; return it."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # not Linux, or not allowed: run unpinned
        return None
    return cpu


class Session:
    """Counts, scaled times and first failure of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = {}  # batch index -> scaled times of the operation
        self.bad = set()  # batch indices of operations that failed once
        self.first_failure = None
        self.speeds = []  # mean host speed during each operation

    def latency(self, index) -> float:
        return statistics.median(self.times[index])

    def run_op(self, op, tr, op_id, index=None) -> float:
        """Run one operation, then check it; returns its scaled duration.

        With a batch ``index`` the duration is kept as one sample of that
        operation's latency.
        """
        error = None
        timer = ScaledTimer()
        try:
            with timer, tr.span(f"op.{op.kind}", op=op_id):
                out = op.run(tr)
        except Exception:  # a raising operation is a failed one; keep going
            out, error = None, traceback.format_exc(limit=3)
        self.speeds.append(timer.speed)
        elapsed = timer.elapsed
        ok = error is None
        if ok:
            try:
                with tr.span(f"check.{op.kind}", op=op_id):
                    ok = op.check(tr, out)
            except Exception:
                ok, error = False, traceback.format_exc(limit=3)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = {"kind": op.kind, "shape": op.shape,
                                      "error": error or "output differs from the oracle"}
        if index is not None:
            self.times.setdefault(index, []).append(elapsed)
            if not ok:
                self.bad.add(index)
        return elapsed


def _shape_summary(ops) -> dict:
    counts: dict = {}
    for op in ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    return {"ops_per_batch": len(ops), "kinds": counts,
            "batch": sorted((op.kind, json.dumps(op.shape, sort_keys=True)) for op in ops)}


def _git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # not a clone; do not let git search the parent directories
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment() -> dict:
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine(), "git_commit": _git_commit()}


def _setup_once(workloads, workload, seed, workdir):
    ctx = workloads.CliContext(ROOT, workdir)
    return ctx, workloads.build_batch(workload, random.Random(seed), ctx)


def setup_probe(workload, seed) -> None:
    """Child process: time import plus generation of the batch, scaled."""
    workdir = os.path.join(OUT_DIR, f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with ScaledTimer() as timer:
            _setup_once(_import_library(), workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": timer.elapsed}))


def _setup_s(workload, seed) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _passes(batch, seed, seconds, run_pass, side=(), min_passes=1) -> int:
    """Run ``batch`` in passes until ``seconds`` have passed; return the count.

    ``run_pass(order, between)`` runs the batch indices in ``order`` and
    calls ``between()`` after each operation.  Each pass takes a new order
    from the seed.  At least ``min_passes`` passes run.  The ``side``
    measurements run between operations, spread evenly over ``seconds``;
    their time does not count towards it.
    """
    order_rng = random.Random(seed)
    order = list(range(len(batch)))
    pending = list(side)
    clock = {"side": 0.0, "start": time.perf_counter()}

    def elapsed():
        return time.perf_counter() - clock["start"] - clock["side"]

    def side_job(job):
        t0 = time.perf_counter()
        job()
        clock["side"] += time.perf_counter() - t0

    def between():
        while pending and elapsed() >= seconds * (len(side) - len(pending) + 0.5) / len(side):
            side_job(pending.pop(0))

    passes = 0
    while True:
        order_rng.shuffle(order)
        run_pass(order, between)
        passes += 1
        if passes >= min_passes and elapsed() >= seconds:
            break
    for job in pending:
        side_job(job)
    return passes


def untraced_run(workloads, workload, seed, seconds, ctx, batch):
    from tracing import NullTracer

    tr = NullTracer()
    session = Session()
    seeds = random.Random(seed).sample(range(1, 10**6), SELFTEST_RUNS)
    selftest_ops = [workloads.selftest_op(ctx, s) for s in seeds]
    selftest_s, setup_samples = [], []

    def run_pass(order, between):
        for i in order:
            session.run_op(batch[i], tr, session.attempted, index=i)
            between()

    def selftest():
        selftest_s.append(session.run_op(selftest_ops[len(selftest_s)], tr, session.attempted))

    def setup():
        setup_samples.append(_setup_s(workload, seed))

    side = []
    for i in range(max(SELFTEST_RUNS, SETUP_PROBES)):
        side += ([selftest] if i < SELFTEST_RUNS else []) + ([setup] if i < SETUP_PROBES else [])
    passes = _passes(batch, seed, seconds, run_pass, side)
    latencies = [session.latency(i) for i in range(len(batch))]
    ok_time = [t for i, t in enumerate(latencies) if i not in session.bad]
    children = workload == "cli-session"
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(ok_time) / sum(ok_time) if ok_time else 0.0,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "selftest_fast_s": statistics.fmean(selftest_s),
    }
    kinds: dict = {}
    for op in batch:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    detail = {
        "passes": passes,
        "samples": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if x * 1e3 > metrics["op_p90_ms"]),
        "ops_by_kind": kinds,
        "selftest_fast_seeds": seeds,
        "selftest_fast_samples_s": selftest_s,
        "failed_frac": session.failed / session.attempted,
        "setup_samples_s": setup_samples,
        "peak_rss_of": "children" if children else "self",
        "host_speed": statistics.median(session.speeds),
    }
    return session, metrics, detail, None


def traced_run(workloads, workload, seed, seconds, ctx, batch):
    import layers
    from tracing import NullTracer, Tracer, layer_shares

    tr = Tracer()
    null = NullTracer()
    session = Session()
    times = {"untraced": 0.0, "traced": 0.0}
    next_id = [0]
    order_of_runs = [("untraced", null), ("traced", tr)]

    def run_pass(order, between):
        # the same operations untraced and traced, alternating which goes first
        order_of_runs.reverse()
        for label, tracer in order_of_runs:
            for i in order:
                times[label] += session.run_op(batch[i], tracer, next_id[0])
                next_id[0] += 1

    passes = _passes(batch, seed, seconds, run_pass)
    shares = layer_shares(tr.spans)

    # probes: a small round of each other workload, every selftest check,
    # the closing selftest subprocess, start-up and scalar micro-loops
    probe_rng = random.Random(seed + 1)
    for other in WORKLOADS:
        if other == workload:
            continue
        for op in workloads.build_round(other, probe_rng, 0, ctx, mini=True):
            with tr.span(f"probe.{other}"):
                session.run_op(op, tr, next_id[0])
            next_id[0] += 1
    with tr.span("probe.selftest_checks"):
        for entry in layers.traced_selftest_checks(tr, seed):
            session.attempted += 1
            session.failed += 0 if entry["passed"] else 1
    session.run_op(workloads.selftest_op(ctx, seed), tr, next_id[0])

    metrics = layers.span_metrics(tr.spans)
    metrics.update(layers.cli_startup_metrics(ctx.env, ROOT))
    metrics.update(layers.micro_metrics(seed))
    metrics["trace.overhead_frac"] = (times["traced"] - times["untraced"]) / times["untraced"]
    detail = {
        "passes": passes,
        "samples": len(batch),
        "op_time_s": times,
        "layer_shares": shares,
        "spans": len(tr.spans),
    }
    return session, metrics, detail, tr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print per-metric deltas between result files or directories")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    cpu = _pin_to_one_cpu()
    workloads = _import_library()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx, batch = _setup_once(workloads, args.workload, args.seed, workdir)
        inputs = _shape_summary(batch)
        runner = traced_run if args.trace else untraced_run
        session, metrics, detail, tr = runner(
            workloads, args.workload, args.seed, args.seconds, ctx, batch)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        import layers

        spec = layers.PER_LAYER
    else:
        spec = END_TO_END
    units = dict(spec)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(_environment(), pinned_cpu=cpu),
        "inputs": inputs,
        "attempted": session.attempted,
        "failed": session.failed,
        "first_failure": session.first_failure,
        "detail": detail,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name, _ in spec},
    }
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    out_path = os.path.join(OUT_DIR, f"result-{stem}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    if tr is not None:
        tr.write_jsonl(os.path.join(OUT_DIR, f"spans-{stem}.jsonl"))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {detail['passes']}  samples {detail['samples']}  "
          f"attempted {session.attempted}  failed {session.failed}")
    for name, unit in spec:
        print(f"  {name:44s} {metrics[name]:>14.6g} {unit}")
    if args.trace:
        print("  layer shares of traced operation time: " + ", ".join(
            f"{k} {v:.3f}" for k, v in detail["layer_shares"].items()))
    if session.first_failure:
        print(f"  first failure: {json.dumps(session.first_failure)[:2000]}")
    print(f"  result: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
