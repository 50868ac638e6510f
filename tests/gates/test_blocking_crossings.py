"""Blocking gate crossings, compiled per export.

A blocking export (``mq.q_pop``, ``libc.sem_p``, ``netstack.recv``)
suspends inside the callee's domain, so its crossing spans scheduler
switches: other threads may cross the same gate meanwhile, an observer
may come on, or the thread may be killed while parked.  These tests
drive such crossings through a real ``libc``/``mq`` image; the golden
corpus (``parked.*`` entries) pins their exact simulated results and
traces.
"""

from __future__ import annotations

import pytest

from repro.obs import chrome_trace, validate_chrome_trace
from tests.golden.worlds import BACKENDS, feed, mq_image, park_consumers


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_threads_parked_in_one_gate(backend):
    """Two crossings suspended in the same gate keep separate contexts."""
    image = mq_image(backend)
    qid = image.call("mq", "q_new", 2)
    threads, returned, _ = park_consumers(image, qid, 2)
    # Each parked crossing holds its own callee context (the pooled
    # one went to the first consumer, the pool was then empty).
    first, second = (thread.ctx_stack[1] for thread in threads)
    assert first is not second
    feed(image, qid, 2)
    assert sorted(returned) == [
        ("c0", (0x1000, 64), 1, True),
        ("c1", (0x2000, 64), 1, True),
    ]


def test_traced_blocking_crossing_has_one_span():
    """Tracer on at entry: one B/E pair on the thread's track."""
    image = mq_image("mpk-shared")
    qid = image.call("mq", "q_new", 1)
    tracer = image.enable_tracing()
    threads, _, _ = park_consumers(image, qid, 1)
    feed(image, qid, 1)
    tid = threads[0].tid
    pops = [
        event["ph"]
        for event in tracer.events
        if event["name"] == "libc->mq.q_pop" and event["tid"] == tid
    ]
    assert pops == ["B", "E"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_tracer_on_while_parked_closes_no_span(backend):
    """Observers are sampled at entry: a crossing parked before the
    tracer came on opens and closes no span, and the trace stays valid."""
    image = mq_image(backend)
    qid = image.call("mq", "q_new", 1)
    _, returned, _ = park_consumers(image, qid, 1)
    tracer = image.enable_tracing()
    feed(image, qid, 1)
    assert returned == [("c0", (0x1000, 64), 1, True)]
    assert tracer.open_spans() == []
    assert not [e for e in tracer.events if e["name"] == "libc->mq.q_pop"]
    assert validate_chrome_trace(chrome_trace(tracer)) == []
