"""Tests of the benchmark itself: checks, tracing, seeding and the metric spec.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import time

import pytest

import run

workloads = run._import_library()

import layers  # noqa: E402  (needs the library on the path)
import tracing  # noqa: E402


@pytest.fixture
def ctx():
    workdir = os.path.join(run.OUT_DIR, f"test-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        yield workloads.CliContext(run.ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _session(ops, tr=None):
    session = run.Session()
    for i, op in enumerate(ops):
        session.run_op(op, tr or tracing.NullTracer(), i)
    return session


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_outputs_pass_their_checks(workload, ctx):
    ops = workloads.build_round(workload, random.Random(5), 0, ctx, mini=True)
    session = _session(ops)
    assert session.attempted == len(ops)
    assert session.failed == 0, session.first_failure


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_corrupted_expectation_is_counted_as_failed(workload, ctx):
    ops = workloads.build_round(workload, random.Random(5), 0, ctx, mini=True)
    ops[0].expected = lambda tr, out: object()
    session = _session(ops)
    assert session.failed == 1
    assert session.failed / session.attempted > 0
    assert session.first_failure["kind"] == ops[0].kind


def test_a_raising_operation_is_counted_as_failed(ctx):
    ops = workloads.build_round("operator-route", random.Random(5), 0, ctx, mini=True)

    def boom(tr):
        raise ValueError("boom")

    ops[1].run = boom
    session = _session(ops)
    assert session.failed == 1
    assert "boom" in session.first_failure["error"]


@pytest.mark.parametrize("workload", ("star-wide", "operator-route"))
def test_same_seed_gives_same_inputs(workload, ctx):
    first = workloads.build_round(workload, random.Random(9), 3, ctx)
    again = workloads.build_round(workload, random.Random(9), 3, ctx)
    other = workloads.build_round(workload, random.Random(10), 3, ctx)
    shapes = [json.dumps(op.shape, sort_keys=True) for op in first]
    assert shapes == [json.dumps(op.shape, sort_keys=True) for op in again]
    outs = [op.run(tracing.NullTracer()) for op in first[:4]]
    assert outs == [op.run(tracing.NullTracer()) for op in again[:4]]
    assert sorted(op.kind for op in first) == sorted(op.kind for op in other)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_batch_has_ten_operations_beyond_the_90th_percentile(workload, ctx):
    assert len(workloads.build_batch(workload, random.Random(2), ctx)) >= 100


def test_latency_is_the_median_scaled_time_over_passes(ctx):
    batch = workloads.build_round("operator-route", random.Random(4), 0, ctx, mini=True)
    session = run.Session()
    orders = []

    def run_pass(order, between):
        orders.append(list(order))
        for i in order:
            session.run_op(batch[i], tracing.NullTracer(), session.attempted, index=i)
            between()

    side = []
    passes = run._passes(batch, 4, 0.0, run_pass, side=[lambda: side.append(1)], min_passes=3)
    assert passes == 3 and side == [1]
    assert sorted(orders[0]) == sorted(orders[1]) == list(range(len(batch)))
    assert session.attempted == 3 * len(batch) and session.failed == 0
    assert sorted(session.times) == list(range(len(batch))) and not session.bad
    assert all(len(session.times[i]) == 3 for i in range(len(batch)))
    assert session.latency(0) == sorted(session.times[0])[1]


def test_times_are_scaled_by_the_host_speed(monkeypatch):
    refs = iter([2 * run.REF_NOMINAL_S, run.REF_NOMINAL_S, run.REF_NOMINAL_S / 2])
    monkeypatch.setattr(run, "reference_s", lambda: next(refs))
    with run.ScaledTimer() as timer:
        timer._sample()  # as the SIGALRM handler would
    assert timer.speed == pytest.approx((0.5 + 1 + 2) / 3)
    assert timer.elapsed == pytest.approx(timer.raw * timer.speed)
    assert 0 <= timer.raw


def test_long_intervals_sample_the_speed_inside():
    with run.ScaledTimer() as timer:
        end = time.perf_counter() + 3 * run.SPEED_TICK_S
        while time.perf_counter() < end:
            pass
    assert len(timer.refs) >= 4 and timer.sampling_s > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_form_power_has_the_multinomial_term_count():
    rng = random.Random(1)
    for sigma in workloads.SIGMAS:
        assert len(workloads.form_power(rng, 3, sigma, "all", 5).terms()) == 252
        assert len(workloads.form_power(rng, 3, sigma, "pq1", 5).terms()) == 56
        assert len(workloads.form_power(rng, 2, sigma, "cross", 5).terms()) == 6


def test_star_counts():
    sigma = workloads.SIGMAS[0]
    a = workloads.parse_symbol("p1^2*q2 + p2", sigma, 2)
    b = workloads.parse_symbol("q1 + q2^3", sigma, 2)
    counts = workloads.star_counts(a, b)
    assert counts["terms_in"] == 4
    assert counts["kappa_terms"] == 3 * 2
    # useful kappas: (0,0), (1,0) [beta (2,0), alpha (1,0)], (0,1) [beta (0,1), alpha (0,3)]
    assert counts["kappa_useful"] == 3


def _span(tr, name, start, end, parent=None):
    record = tracing.Span(len(tr.spans), name, parent, 0, {})
    record.start, record.end = start, end
    tr.spans.append(record)
    return record.id


def test_self_time_is_duration_minus_child_coverage():
    tr = tracing.Tracer()
    root = _span(tr, "op.x", 0.0, 10.0)
    child = _span(tr, "symbols.star", 1.0, 4.0, root)
    _span(tr, "symbols.substitute_h", 2.0, 3.0, child)
    _span(tr, "operators.apply_normal_ordered", 5.0, 9.0, root)
    selfs = tracing.self_times(tr.spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    shares = tracing.layer_shares(tr.spans)
    assert shares == {"bench": 0.3, "operators": 0.4, "symbols": 0.3}


def test_tracer_records_parent_and_operation_id():
    tr = tracing.Tracer()
    with tr.span("op.a", op=7):
        tr.call("symbols.star", lambda: None, terms_in=3)
    with tr.span("check.a", op=8):
        pass
    root, child, check = tr.spans
    assert (child.parent, child.op, child.attrs) == (root.id, 7, {"terms_in": 3})
    assert (check.parent, check.op) == (None, 8)
    assert root.start <= child.start <= child.end <= root.end


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
