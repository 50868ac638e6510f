"""A static-file HTTP-style server (netstack + vfs composition).

A third application beyond the paper's two, exercising the crossing
topology the paper's motivation sketches (web server: network stack +
filesystem + application with different trust levels):

- requests: ``GET <path>\\n`` (one per packet, pipelining-capable);
- responses: ``200 <len>\\n<bytes>`` or ``404\\n``;
- file content is read from the ``vfs`` micro-library through gates,
  staged via shared buffers.

Per-request path: netstack → app parse → vfs open/read/close → netstack
send — three trust domains on every request when fully
compartmentalized.
"""

from __future__ import annotations

from typing import Generator

from repro.libos.library import MicroLibrary, export


class HttpdApp(MicroLibrary):
    """Minimal pipelining-capable static file server."""

    NAME = "httpd"
    SPEC = """
    [Memory access] Read(Own,Shared); Write(Own,Shared)
    [Call] netstack::listen, netstack::recv, netstack::send, \
vfs::open, vfs::read, vfs::close, vfs::fstat, \
alloc::malloc_shared, alloc::free_shared
    [API] httpd_stats()
    """
    TRUE_BEHAVIOR = {
        "writes": ["Own", "Shared"],
        "reads": ["Own", "Shared"],
        "calls": [
            "netstack::listen",
            "netstack::recv",
            "netstack::send",
            "vfs::open",
            "vfs::read",
            "vfs::close",
            "vfs::fstat",
            "alloc::malloc_shared",
            "alloc::free_shared",
        ],
    }

    PORT = 8080
    BUF_SIZE = 4096

    def __init__(self) -> None:
        super().__init__()
        self._net = None
        self._vfs = None
        self._alloc = None
        self.hits = 0
        self.misses = 0
        self.bad_requests = 0
        self.bytes_served = 0
        self.running = False

    def on_boot(self) -> None:
        self._net = self.stub("netstack")
        self._vfs = self.stub("vfs")
        self._alloc = self.stub("alloc")

    def make_server(self, port: int | None = None):
        """Body factory for the server thread."""
        bind_port = port if port is not None else self.PORT

        def body() -> Generator:
            sockfd = self._net.call("listen", bind_port)
            req_buf = self._alloc.call("malloc_shared", self.BUF_SIZE)
            resp_buf = self._alloc.call("malloc_shared", self.BUF_SIZE)
            self.running = True
            pending = 0
            while True:
                count = yield from self._net.call_gen(
                    "recv", sockfd, req_buf + pending, self.BUF_SIZE - pending
                )
                if count == 0:
                    break
                total = pending + count
                raw = self.machine.load(req_buf, total)
                consumed = self._serve(raw, resp_buf, sockfd)
                if consumed < total:
                    self.machine.copy(req_buf, req_buf + consumed, total - consumed)
                pending = total - consumed
            self._alloc.call("free_shared", req_buf)
            self._alloc.call("free_shared", resp_buf)
            self.running = False

        return body

    def _serve(self, raw: bytes, resp_buf: int, sockfd: int) -> int:
        """Answer every complete request line in ``raw``."""
        from repro.machine.faults import GateError

        consumed = 0
        while True:
            newline = raw.find(b"\n", consumed)
            if newline < 0:
                break
            line = raw[consumed:newline]
            consumed = newline + 1
            if not line.startswith(b"GET "):
                self.bad_requests += 1
                self.machine.store(resp_buf, b"400\n")
                self._net.call("send", sockfd, resp_buf, 4)
                continue
            path = line[4:].strip().decode("ascii", "replace")
            try:
                fd = self._vfs.call("open", path)
            except GateError:
                self.misses += 1
                self.machine.store(resp_buf, b"404\n")
                self._net.call("send", sockfd, resp_buf, 4)
                continue
            size = self._vfs.call("fstat", fd)["size"]
            header = b"200 %d\n" % size
            self.machine.store(resp_buf, header)
            offset = len(header)
            remaining = size
            # Files larger than the staging buffer are streamed in
            # several sends.
            while True:
                chunk = min(remaining, self.BUF_SIZE - offset)
                got = self._vfs.call("read", fd, resp_buf + offset, chunk)
                self._net.call("send", sockfd, resp_buf, offset + got)
                self.bytes_served += got
                remaining -= got
                offset = 0
                if remaining <= 0:
                    break
            self._vfs.call("close", fd)
            self.hits += 1
        return consumed

    @export
    def httpd_stats(self) -> dict[str, int]:
        """Request counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bad_requests": self.bad_requests,
            "bytes_served": self.bytes_served,
        }
