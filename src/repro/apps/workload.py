"""Workload generators and measurement runners (the "client side").

The paper drives its servers with an external iperf client and
redis-benchmark; here the client is a pair of NIC callbacks that cost
the measured server nothing (see :mod:`repro.libos.net.nic`):

- :class:`IperfSource` — an open-loop bulk sender saturating the wire;
- :class:`ClosedLoopSource` — a pipelining request/response client with
  a bounded window, like redis-benchmark with pipelining.

Runners build the measurement around :class:`repro.perf.meter.Meter`
and return :class:`~repro.perf.meter.BenchResult` values.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.apps import resp
from repro.libos.net.packet import MSS, build_packet, unpack_header
from repro.perf.meter import BenchResult, Meter

if TYPE_CHECKING:
    from repro.core.image import Image


class IperfSource:
    """Open-loop byte-stream sender: the wire is never idle."""

    def __init__(self, port: int, total_bytes: int, chunk: int = MSS) -> None:
        if not 0 < chunk <= MSS:
            raise ValueError(f"chunk must be in (0, {MSS}]")
        self.port = port
        self.total_bytes = total_bytes
        self.chunk = chunk
        self.remaining = total_bytes
        self._seq = 0
        #: Payload bytes per size, built once: all but the final packet
        #: of a run share one size, so the fill pattern is reused
        #: instead of re-materialised per packet.
        self._payloads: dict[int, bytes] = {}

    def __call__(self) -> bytes | None:
        if self.remaining <= 0:
            return None
        size = min(self.chunk, self.remaining)
        self.remaining -= size
        payload = self._payloads.get(size)
        if payload is None:
            payload = self._payloads[size] = b"\x55" * size
        packet = build_packet(self.port, payload, seq=self._seq)
        self._seq += size
        return packet


class ClosedLoopSource:
    """Pipelining request/response client with a bounded window.

    ``source`` feeds the NIC rx pull; ``sink`` receives transmitted
    responses and opens window slots.  Responses are validated against
    ``expect_prefix`` when given.
    """

    def __init__(
        self,
        port: int,
        payloads: list[bytes],
        window: int = 4,
        expect_prefix: bytes | None = None,
        clock=None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        for payload in payloads:
            if len(payload) > MSS:
                raise ValueError("request payloads must fit one packet")
        self.port = port
        self.window = window
        self.expect_prefix = expect_prefix
        self._queue = deque(payloads)
        self.total = len(payloads)
        self.outstanding = 0
        self.responses = 0
        self.response_bytes = 0
        self.bad_responses = 0
        self.last_response = b""
        self._seq = 0
        #: Optional zero-arg callable returning simulated time; enables
        #: per-request latency tracking (FIFO request/response pairing).
        self._clock = clock
        self._inflight_sends: deque[float] = deque()
        #: Per-request simulated latencies (ns), FIFO-paired.
        self.latencies_ns: list[float] = []

    def source(self) -> bytes | None:
        """NIC rx callback: next request packet, or None (window full)."""
        if self.outstanding >= self.window or not self._queue:
            return None
        payload = self._queue.popleft()
        self.outstanding += 1
        if self._clock is not None:
            self._inflight_sends.append(self._clock())
        packet = build_packet(self.port, payload, seq=self._seq)
        self._seq += len(payload)
        return packet

    def sink(self, frame: bytes) -> None:
        """NIC tx callback: one response packet per request (≤ MSS)."""
        header = unpack_header(frame)
        payload = frame[16 : 16 + header.length]
        self.responses += 1
        self.response_bytes += len(payload)
        self.last_response = payload
        if self.expect_prefix is not None and not payload.startswith(
            self.expect_prefix
        ):
            self.bad_responses += 1
        if self._clock is not None and self._inflight_sends:
            self.latencies_ns.append(self._clock() - self._inflight_sends.popleft())
        self.outstanding = max(0, self.outstanding - 1)

    @property
    def done(self) -> bool:
        """All requests answered."""
        return self.responses >= self.total


def _switch_budget(units: int) -> int:
    """Generous context-switch cap so a wedged run fails fast."""
    return 200 * units + 20_000


def _wait_for_listener(image: "Image", port: int) -> None:
    """Run until the server thread has bound its port.

    A real client connects before sending; without this, the first
    wire packets would arrive before ``listen`` and be dropped.
    """
    netstack = image.lib("netstack")
    image.run(
        until=lambda: port in netstack._conns_by_port, max_switches=10_000
    )
    if port not in netstack._conns_by_port:
        raise RuntimeError(f"server never bound port {port}")


def run_iperf(
    image: "Image",
    buffer_size: int,
    total_bytes: int,
    label: str = "",
) -> BenchResult:
    """Measure iperf receive throughput for one buffer size.

    Spawns a fresh one-shot server thread on a fresh port, saturates
    the wire, and measures the simulated time to absorb
    ``total_bytes``.
    """
    app = image.lib("iperf")
    netstack = image.lib("netstack")
    port = app.next_port()
    image.spawn(
        f"iperf:{port}", app.make_server(port, buffer_size, total_bytes), app
    )
    _wait_for_listener(image, port)
    source = IperfSource(port, total_bytes)
    netstack.nic.rx_source = source
    segments = -(-total_bytes // MSS)
    with Meter(image.machine, label or f"iperf buf={buffer_size}") as meter:
        image.run(
            until=lambda: app.done,
            max_switches=_switch_budget(segments + total_bytes // buffer_size),
        )
    if not app.done:
        raise RuntimeError(
            f"iperf run did not complete: received {app.received} of "
            f"{total_bytes} bytes"
        )
    return meter.result(payload_bytes=total_bytes)


def start_redis(image: "Image", port: int | None = None):
    """Spawn the Redis server thread (idempotent per image)."""
    app = image.lib("redis")
    if app.running:
        return app
    bind_port = port if port is not None else app.PORT
    image.spawn("redis-server", app.make_server(port), app)
    _wait_for_listener(image, bind_port)
    return app


def make_set_payloads(
    count: int, value_size: int, keyspace: int | None = None
) -> list[bytes]:
    """RESP2 SET request payloads cycling over a bounded keyspace."""
    keys = keyspace if keyspace is not None else count
    value = b"v" * value_size
    return [
        resp.encode_command(b"SET", b"key%d" % (index % keys), value)
        for index in range(count)
    ]


def make_get_payloads(count: int, keyspace: int) -> list[bytes]:
    """RESP2 GET request payloads cycling over a bounded keyspace."""
    return [
        resp.encode_command(b"GET", b"key%d" % (index % keyspace))
        for index in range(count)
    ]


#: The durable redis load (the golden corpus's ``kv.durable`` world and
#: ``tools/infer``): one SET of each of :data:`KV_KEYS` keys, then
#: :data:`KV_REQUESTS` more over the first :data:`KV_HOT` of them (a
#: DEL every 50th), then DELs of :data:`KV_DELETED`, never set again.
KV_KEYS = 64
KV_HOT = 16
KV_REQUESTS = 540
KV_DELETED = (2, 5, 9, 13, 21, 37, 53)


def kv_durable_requests() -> tuple[list[bytes], dict[bytes, bytes]]:
    """The durable load's RESP requests (64-byte values) and the key →
    value map a sequential model ends with."""
    requests = []
    model: dict[bytes, bytes] = {}

    def request(*args) -> None:
        requests.append(resp.encode_command(*args))
        if args[0] == b"DEL":
            model.pop(args[1], None)
        else:
            model[args[1]] = args[2]

    for index in range(KV_KEYS + KV_REQUESTS):
        key = b"key:%03d" % (index % (KV_KEYS if index < KV_KEYS else KV_HOT))
        if index % 50 == 49:
            request(b"DEL", key)
        else:
            request(b"SET", key, (b"%05d:" % index) * 10 + b"abcd")
    for index in KV_DELETED:
        request(b"DEL", b"key:%03d" % index)
    return requests, model


def run_closed_loop(
    image: "Image",
    port: int,
    payloads: list[bytes],
    window: int = 4,
    label: str = "",
    expect_prefix: bytes | None = None,
) -> BenchResult:
    """Run one batch of request/response traffic against a server.

    Responses are counted per transmitted packet, so servers whose
    replies exceed one MSS (streamed responses) should be driven with
    requests that keep replies single-packet, or with a custom sink.
    """
    netstack = image.lib("netstack")
    source = ClosedLoopSource(
        port,
        payloads,
        window=window,
        expect_prefix=expect_prefix,
        clock=lambda: image.machine.cpu.clock_ns,
    )
    netstack.nic.rx_source = source.source
    netstack.nic.tx_sink = source.sink
    with Meter(image.machine, label or f"closed-loop x{len(payloads)}") as meter:
        image.run(
            until=lambda: source.done,
            max_switches=_switch_budget(len(payloads)),
        )
    if not source.done:
        raise RuntimeError(
            f"closed-loop phase stalled: {source.responses}/{source.total} "
            f"responses"
        )
    if source.bad_responses:
        raise RuntimeError(f"{source.bad_responses} malformed responses")
    return meter.result(
        payload_bytes=source.response_bytes,
        requests=source.total,
        latencies_ns=source.latencies_ns,
    )


def run_redis_phase(
    image: "Image",
    payloads: list[bytes],
    window: int = 4,
    label: str = "",
    expect_prefix: bytes | None = None,
) -> BenchResult:
    """Run one batch of requests against a started Redis server."""
    app = image.lib("redis")
    return run_closed_loop(
        image,
        app.PORT,
        payloads,
        window=window,
        label=label or f"redis x{len(payloads)}",
        expect_prefix=expect_prefix,
    )


def start_httpd(image: "Image", port: int | None = None):
    """Spawn the httpd server thread (idempotent per image)."""
    app = image.lib("httpd")
    if app.running:
        return app
    bind_port = port if port is not None else app.PORT
    image.spawn("httpd-server", app.make_server(port), app)
    _wait_for_listener(image, bind_port)
    return app


def _drive_iperf(image: "Image", params: dict) -> tuple[str, dict]:
    result = run_iperf(image, params["buffer_size"], params["total_bytes"])
    return (
        f"iperf: {result.throughput_mbps:.0f} Mb/s simulated",
        {
            "name": "iperf",
            "throughput_mbps": result.throughput_mbps,
            "payload_bytes": result.payload_bytes,
            "elapsed_ns": result.elapsed_ns,
        },
    )


def _drive_redis(image: "Image", params: dict) -> tuple[str, dict]:
    start_redis(image)
    run_redis_phase(
        image,
        make_set_payloads(
            params["sets"], params["value_size"], keyspace=params["keyspace"]
        ),
        window=params["window"],
        expect_prefix=b"+OK",
    )
    result = run_redis_phase(
        image,
        make_get_payloads(params["gets"], params["keyspace"]),
        window=params["window"],
        expect_prefix=b"$",
    )
    p50 = result.latency_percentile(0.5)
    p99 = result.latency_percentile(0.99)
    return (
        f"redis: {result.mreq_s:.3f} Mreq/s, p50 {p50:.0f} ns, "
        f"p99 {p99:.0f} ns",
        {
            "name": "redis",
            "mreq_s": result.mreq_s,
            "requests": result.requests,
            "elapsed_ns": result.elapsed_ns,
            "p50_ns": p50,
            "p99_ns": p99,
        },
    )


#: Named workload drivers: name → (default parameters, driver).  The
#: single registry behind ``tools/report.py``, ``tools/profile.py``,
#: and the profile benchmarks, so a profile captured by one tool
#: describes exactly the run another tool will repeat.
WORKLOADS: dict[str, tuple[dict, Callable[["Image", dict], tuple[str, dict]]]] = {
    "iperf": ({"buffer_size": 1024, "total_bytes": 1 << 18}, _drive_iperf),
    "redis": (
        {"sets": 64, "value_size": 50, "keyspace": 32, "gets": 300, "window": 8},
        _drive_redis,
    ),
}


def workload_params(name: str, overrides: dict | None = None) -> dict:
    """The named workload's full parameter dict, overrides applied."""
    if name not in WORKLOADS:
        raise ValueError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        )
    params = dict(WORKLOADS[name][0])
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValueError(
                f"workload {name!r} has no parameter {key!r}; "
                f"known: {sorted(params)}"
            )
        params[key] = value
    return params


def run_named_workload(
    image: "Image", name: str, params: dict | None = None
) -> tuple[str, dict]:
    """Drive the named workload; returns (one-line summary, numbers).

    ``params`` overrides the registered defaults (unknown keys are
    rejected).  Deterministic: the same image + name + params always
    produce the same simulated numbers.
    """
    defaults, driver = (
        WORKLOADS[name] if name in WORKLOADS else (None, None)
    )
    if driver is None:
        raise ValueError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        )
    return driver(image, workload_params(name, params))


def populate_files(image: "Image", files: dict[str, bytes]) -> None:
    """Create files in the image's vfs (host-side test/bench setup)."""
    from repro.libos.fs.ramfs import O_CREAT, O_TRUNC, O_WRONLY

    if not files:
        return
    staging = image.call(
        "alloc", "malloc_shared", max(64, max(len(v) for v in files.values()))
    )
    space = image.compartment_of("vfs").address_space
    for path, content in files.items():
        fd = image.call("vfs", "open", path, O_WRONLY | O_CREAT | O_TRUNC)
        if content:
            image.machine.dma_write(space, staging, content)
            image.call("vfs", "write", fd, staging, len(content))
        image.call("vfs", "close", fd)
    image.call("alloc", "free_shared", staging)
