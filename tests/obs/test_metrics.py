"""Metrics registry semantics: counters, gauges, histograms, edges."""

import pytest

from repro import BuildConfig, build_image
from repro.obs.metrics import MetricsRegistry
from repro.perf.meter import left_sum


def test_counter_starts_at_zero_and_accumulates():
    metrics = MetricsRegistry()
    assert metrics.counter("nope") == 0.0
    metrics.inc("hits")
    metrics.inc("hits", 2.5)
    assert metrics.counter("hits") == 3.5
    assert metrics.counters["hits"] == 3.5


def test_gauge_last_value_wins():
    metrics = MetricsRegistry()
    gauge = metrics.gauge("queue.depth")
    gauge.set(3)
    gauge.set(7)
    assert metrics.gauge("queue.depth") is gauge
    assert gauge.value == 7.0


def test_histogram_summary_and_percentiles():
    metrics = MetricsRegistry()
    hist = metrics.histogram("lat")
    for value in (10, 20, 30, 40):
        hist.observe(value)
    assert hist.count == 4
    assert hist.mean == 25.0
    # Nearest-rank: p50 of 4 samples is the 2nd, not the 3rd.
    assert hist.percentile(0.5) == 20.0
    assert hist.percentile(0.99) == 40.0
    summary = hist.summary()
    assert summary["count"] == 4
    assert summary["min"] == 10.0 and summary["max"] == 40.0
    assert summary["p50"] == 20.0 and summary["p99"] == 40.0


def test_empty_histogram_summary():
    assert MetricsRegistry().histogram("empty").summary() == {"count": 0}


def test_histogram_total_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so a left-to-right sum ends at
    # 0.0; the compensated sum() of Python 3.12+ returns 1.0.
    values = [1e16, 1.0, -1e16]
    assert left_sum(values) == 0.0
    hist = MetricsRegistry().histogram("lat")
    for value in values:
        hist.observe(value)
    assert hist.total == 0.0
    assert hist.summary()["sum"] == 0.0
    assert hist.mean == 0.0


def test_edges_key_on_kind_and_report_sorted():
    metrics = MetricsRegistry()
    first = metrics.edge("a", "b", "funccall")
    assert metrics.edge("a", "b", "funccall") is first
    assert metrics.edge("a", "b", "mpk-shared") is not first
    first.crossings = 3
    metrics.edge("b", "c", "funccall").crossings = 9
    report = metrics.edges_report()
    assert [row["crossings"] for row in report] == [9, 3]
    # Unused edges are omitted.
    assert all(row["kind"] != "mpk-shared" for row in report)


def test_crossing_matrix_sums_kinds():
    metrics = MetricsRegistry()
    metrics.edge("a", "b", "funccall").crossings = 2
    metrics.edge("a", "b", "mpk-shared").crossings = 5
    metrics.edge("a", "c", "funccall").crossings = 1
    assert metrics.crossing_matrix() == {"a": {"b": 7, "c": 1}}


def test_edges_report_order_is_deterministic():
    """Same edge totals → same report, whatever the insertion order.

    Profiles hash their edge list, so ties must break on (caller,
    callee, kind), not on registration history."""

    def build(order):
        metrics = MetricsRegistry()
        for caller, callee, kind, count in order:
            metrics.edge(caller, callee, kind).crossings = count
        return metrics

    rows = [
        ("z", "a", "funccall", 5),
        ("a", "z", "funccall", 5),
        ("a", "b", "mpk-shared", 5),
        ("a", "b", "funccall", 5),
        ("m", "n", "funccall", 9),
    ]
    forward = build(rows).edges_report()
    backward = build(list(reversed(rows))).edges_report()
    assert forward == backward
    assert [r["crossings"] for r in forward] == [9, 5, 5, 5, 5]
    # Ties sorted by caller, then callee, then kind.
    assert [(r["caller"], r["callee"], r["kind"]) for r in forward[1:]] == [
        ("a", "b", "funccall"),
        ("a", "b", "mpk-shared"),
        ("a", "z", "funccall"),
        ("z", "a", "funccall"),
    ]


def test_crossing_matrix_order_is_deterministic():
    metrics = MetricsRegistry()
    metrics.edge("z", "y", "funccall").crossings = 1
    metrics.edge("a", "b", "funccall").crossings = 2
    metrics.edge("a", "a2", "funccall").crossings = 3
    matrix = metrics.crossing_matrix()
    assert list(matrix) == ["a", "z"]
    assert list(matrix["a"]) == ["a2", "b"]


def test_snapshot_is_json_ready_and_reset_zeroes():
    import json

    metrics = MetricsRegistry()
    metrics.inc("x")
    metrics.gauge("g").set(4)
    metrics.histogram("h").observe(1.0)
    edge = metrics.edge("a", "b", "funccall")
    edge.crossings = 2
    snapshot = metrics.snapshot()
    json.dumps(snapshot)  # must serialise
    assert snapshot["counters"] == {"x": 1.0}
    assert snapshot["gauges"] == {"g": 4.0}
    assert snapshot["histograms"]["h"]["count"] == 1
    assert snapshot["crossing_matrix"] == {"a": {"b": 2}}
    metrics.reset()
    assert metrics.counter("x") == 0.0
    # Edges keep their identity so gates' references stay live.
    assert metrics.edge("a", "b", "funccall") is edge
    assert edge.crossings == 0


def test_gate_crossings_feed_registry_edges():
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "iperf"],
            compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
            backend="mpk-shared",
        )
    )
    from repro.apps import run_iperf

    run_iperf(image, 1024, 1 << 16)
    matrix = image.crossing_matrix()
    assert matrix["iperf"]["netstack"] > 0
    # The registry's totals agree with the gates' own counters.
    gates = {
        (gate.caller_lib.NAME, gate.callee_lib.NAME, gate.KIND): gate.crossings
        for gate in image.machine.gates
        if gate.crossings
    }
    assert gates == {
        (row["caller"], row["callee"], row["kind"]): row["crossings"]
        for row in image.machine.cpu.metrics.edges_report()
    }
    # gate_crossings counts only real boundary crossings; mpk edges
    # also land in the backend-specific counter.
    stats = image.machine.cpu.metrics.counters
    assert stats["gate_crossings"] == stats["mpk_crossings"]


def test_profile_backend_counts_boundary_crossings():
    """The 'none' backend's cross-compartment calls now count as gate
    crossings (unified accounting), while direct in-compartment calls
    do not."""
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "iperf"],
            compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
            backend="none",
        )
    )
    from repro.apps import run_iperf

    run_iperf(image, 1024, 1 << 16)
    stats = image.machine.cpu.metrics.counters
    assert stats["gate_crossings"] > 0
    assert stats["direct_calls"] > stats["gate_crossings"]
    flat = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "iperf"],
            compartments=[["netstack", "sched", "alloc", "libc", "iperf"]],
            backend="none",
        )
    )
    run_iperf(flat, 1024, 1 << 16)
    assert flat.machine.cpu.metrics.counters.get("gate_crossings", 0) == 0


def test_gates_sharing_an_edge_sum_on_it():
    """Two gates of one caller→callee edge — the replicated ``alloc``
    calling into one library over one backend — each count their own
    crossings, and every edge view reports the sum."""
    from tests.golden.worlds import kv_durable_config

    image = build_image(kv_durable_config("mpk-switched"))
    cpu = image.machine.cpu
    metrics = cpu.metrics
    edge = metrics.edge("alloc", "sched", "mpk-switched")
    first, second = edge.gates
    assert first.caller_lib is not second.caller_lib
    for gate, times in ((first, 2), (second, 3)):
        cpu.push_context(gate.caller_lib.compartment.make_context("test"))
        for _ in range(times):
            gate.invoke("yield_", ())
        cpu.pop_context()
    assert (first.crossings, second.crossings, edge.crossings) == (2, 3, 5)
    assert metrics.edge_counts()[("alloc", "sched", "mpk-switched")] == 5
    assert metrics.crossing_matrix()["alloc"]["sched"] == 5
    assert {
        "caller": "alloc", "callee": "sched", "kind": "mpk-switched",
        "crossings": 5,
    } in metrics.edges_report()
    assert metrics.counters["gate_crossings"] == 5


def _switched_iperf():
    from tests.golden.worlds import fig3_config

    return build_image(fig3_config("mpk-switched", {}))


def test_reset_zeroes_every_derived_counter():
    """``reset`` clears the table and every source's own counts: the
    machine's accesses, the scheduler's switches and the gates'
    entries and exits, edges included."""
    from repro.apps import run_iperf

    image = _switched_iperf()
    run_iperf(image, 256, 1 << 14)
    machine = image.machine
    metrics = machine.cpu.metrics
    derived = {
        "loads", "load_bytes", "stores", "store_bytes", "ctx_switches",
        "sched_domain_crossings", "gate_crossings", "mpk_crossings",
        "wrpkru", "stack_switches",
    }
    assert derived <= set(metrics.counters)
    metrics.reset()
    assert metrics.counters == {}
    assert machine.cpu.snapshot() == {"clock_ns": machine.cpu.clock_ns}
    assert set(metrics.edge_counts().values()) == {0}
    assert metrics.edges_report() == [] and metrics.crossing_matrix() == {}
    run_iperf(image, 256, 1 << 14)
    assert derived <= set(metrics.counters)


def test_thread_killed_mid_crossing_leaves_its_entry_counted():
    """A thread killed while parked in an mpk-switched ``recv`` issued
    the first WRPKRU and stack switch of each crossing it was parked
    in — ``recv`` and the libc wait inside it — and never the second."""
    from repro.gates.mpk_shared import MPKSharedStackGate
    from repro.libos.sched.base import ThreadState

    image = _switched_iperf()
    app = image.lib("iperf")
    thread = image.spawn(
        "iperf", app.make_server(app.next_port(), 256, 1 << 14), app
    )
    image.run(max_switches=20)
    assert thread.state is ThreadState.BLOCKED
    # Each crossing the thread is parked in pushed one context.
    parked_in = len(thread.ctx_stack) - 1
    image.scheduler.kill_thread(thread)
    open_gates = [
        (gate.caller_lib.NAME, gate.callee_lib.NAME, gate.crossings - gate.exits)
        for gate in image.machine.gates
        if isinstance(gate, MPKSharedStackGate) and gate.crossings != gate.exits
    ]
    assert sorted(open_gates) == [("iperf", "netstack", 1), ("netstack", "libc", 1)]
    assert parked_in == 2
    counters = image.machine.cpu.metrics.counters
    completed = counters["gate_crossings"] - parked_in
    assert completed > 0
    assert (
        counters["wrpkru"]
        == counters["stack_switches"]
        == 2 * completed + parked_in
    )
