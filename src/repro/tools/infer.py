"""Trace-based metadata inference tool (paper §5).

Runs the selected libraries in a profiling image under one
representative load per library set (an iperf transfer, volatile or
durable redis, httpd GETs, sleepers, a message-queue exchange, or a
semaphore ping-pong), then prints the inferred metadata next to a
declared-vs-observed validation report.  The metadata conformance
test (``tests/core/test_inference.py``) runs every world family
through the same loads.

Usage::

    python -m repro.tools.infer netstack libc iperf
"""

from __future__ import annotations

import argparse

from repro.core.inference import profiling_image
from repro.libos.sched.base import YIELD


def _serve_redis(image) -> None:
    """SETs then GETs; a durable image serves the durable load, the
    other commands once each, and then recovers from its journal."""
    from repro.apps import resp
    from repro.apps.workload import (
        kv_durable_requests,
        make_get_payloads,
        make_set_payloads,
        run_redis_phase,
        start_redis,
    )

    start_redis(image)
    if not image.has_lib("kv"):
        run_redis_phase(
            image, make_set_payloads(16, 32, keyspace=16), expect_prefix=b"+OK"
        )
        run_redis_phase(image, make_get_payloads(32, 16), expect_prefix=b"$")
        return
    requests, _ = kv_durable_requests()
    requests += [
        resp.encode_command(*args)
        for args in (
            (b"GET", b"key:000"),
            (b"INCR", b"counter"),
            (b"APPEND", b"key:001", b"-tail"),
            (b"EXISTS", b"key:002"),
            (b"PING",),
        )
    ]
    run_redis_phase(image, requests)
    image.call("redis", "recover")


def _serve_httpd(image) -> None:
    """A hit and a miss."""
    from repro.apps import populate_files, run_closed_loop, start_httpd

    populate_files(image, {"/index.html": b"<html>hello flexos</html>"})
    app = start_httpd(image)
    run_closed_loop(image, app.PORT, [b"GET /index.html\n", b"GET /missing\n"])


def _exercise(image) -> None:
    """Drive the image's representative load.

    An app run ends by stopping the netstack: each server thread then
    exits and frees its buffers.
    """
    if image.has_lib("netstack"):
        if image.has_lib("iperf"):
            from repro.apps import run_iperf

            run_iperf(image, 1024, 1 << 17)
        elif image.has_lib("redis"):
            _serve_redis(image)
        elif image.has_lib("httpd"):
            _serve_httpd(image)
        image.shutdown()
        return
    if image.has_lib("time"):
        time_lib = image.lib("time")

        def sleeper(duration):
            def body():
                for _ in range(3):
                    time_lib.now_ns()
                    yield from time_lib.sleep_ns(duration)

            return body

        image.spawn("short-sleeper", sleeper(1_000.0), time_lib)
        image.spawn("long-sleeper", sleeper(5_000.0), time_lib)
        image.run(max_switches=1000)
        return
    if image.has_lib("mq"):
        qid = image.call("mq", "q_new", 4)
        mq = image.lib("mq")

        def producer():
            for index in range(8):
                yield from mq.q_push(qid, 0x1000 + index, index)

        def consumer():
            for _ in range(8):
                yield from mq.q_pop(qid)

        image.spawn("producer", producer, mq)
        image.spawn("consumer", consumer, mq)
        image.run(max_switches=1000)
        return
    # Fall back to a semaphore ping-pong through libc.
    if image.has_lib("libc"):
        libc = image.lib("libc")
        sem = image.call("libc", "sem_new", 0)

        def waiter():
            yield from libc.sem_p(sem)

        def poster():
            yield YIELD
            libc.sem_v(sem)

        image.spawn("waiter", waiter, libc)
        image.spawn("poster", poster, libc)
        image.run(max_switches=100)


def report(libraries: list[str]) -> str:
    """Build, exercise, and report on the selected libraries."""
    image, recorder = profiling_image(libraries)
    _exercise(image)
    sections = []
    for name in libraries:
        observation = recorder.observed(name)
        sections.append(f"== {name} (observed over {observation.access_count} accesses) ==")
        if not (
            observation.access_count
            or observation.calls
            or observation.entry_points
        ):
            sections.append("the workload did not exercise this library")
            sections.append("")
            continue
        sections.append(observation.spec().describe())
        findings = recorder.validate_declared(name)
        if findings:
            sections.append("validation against declared metadata:")
            sections.extend(f"  {finding}" for finding in findings)
        else:
            sections.append("declared metadata consistent with the trace")
        sections.append("")
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Infer FlexOS metadata from an execution trace"
    )
    parser.add_argument("libraries", nargs="+", help="library names")
    args = parser.parse_args(argv)
    print(report(args.libraries))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
