"""A Redis-like key/value server (paper §4, Redis experiments).

Speaks RESP2 over the simulated TCP-lite stream, the wire protocol
redis-benchmark and every redis client speak: a request is an array of
bulk strings (``*2\\r\\n$3\\r\\nGET\\r\\n$3\\r\\nkey\\r\\n``), parsed
incrementally by :mod:`repro.apps.resp`, and replies are framed by that
module's encoders (``$5\\r\\nvalue\\r\\n``, ``+OK\\r\\n``, ``:1\\r\\n``).
A request that is not a RESP array — any first byte other than ``*``
— is a protocol error answered like a malformed frame.

Request parsing is a proper byte-stream parser: partial frames at the
end of a receive are shifted to the front of the request buffer and
completed by the next ``recv``, so pipelined clients (the closed-loop
workload, like redis-benchmark) work at any window size and frames may
split at any byte boundary.

Structure relevant to the paper's numbers:

- values live in the *private* heap (``alloc.malloc``), copied in/out of
  the shared I/O buffers by the application's own code — an app cannot
  ask LibC to write app-private memory across an MPK boundary (the
  confused-deputy issue §5 discusses);
- each request allocates and frees a small reply object, so allocator
  instrumentation (ASAN's malloc tax) is paid per request — the
  mechanism behind the global-vs-local allocator gap in Figure 4.

Durability: when the image links the ``kv`` micro-library, every write
command is journaled through the gate into the storage compartment
before it is acknowledged (AOF-style).  SET/DEL journal the record
as-is (the value travels straight from the shared request buffer);
INCR/APPEND journal their **post-image as a SET record** staged through
the response buffer, so recovery replays them like any other SET —
an acknowledged INCR survives crash→recover exactly like an
acknowledged SET.  :meth:`RedisServerApp.recover` replays the log into
the in-memory store after a reboot; whether an acknowledged write
survives a power failure then depends on the kv flush policy
(``every-write`` is redis ``appendfsync always``; ``batch:N`` is
``everysec``-style batching).

Cluster hooks (host-side, installed by :mod:`repro.cluster`):

- :meth:`set_cluster_router` arms slot-ownership checks — a keyed
  command for a slot this shard does not own (or no longer owns: a
  fenced ex-primary after failover) answers ``-MOVED <slot> <shard>``
  instead of executing, the redirect a smart client follows;
- :attr:`replicator` mirrors the journaled write stream to a follower
  shard over the fabric's vm-rpc-style storage channel, *before* the
  ack — journal-before-ack extends to replicate-before-ack.
"""

from __future__ import annotations

from typing import Generator

from repro.apps import resp as resp_proto
from repro.libos.kv.store import MAX_VALUE as KV_MAX_VALUE
from repro.libos.library import MicroLibrary, export
from repro.machine.faults import GateError


class DumpTruncatedError(GateError):
    """A dump file ended mid-record during ``load``.

    The pre-fix behaviour silently accepted short ``vfs.read`` returns
    mid-record and rebuilt a corrupt store from whatever bytes happened
    to be in the staging buffer; now a truncated or torn dump is a
    typed, observable failure.
    """

    def __init__(self, context: str, expected: int, got: int) -> None:
        self.context = context
        self.expected = expected
        self.got = got
        super().__init__(
            f"dump truncated in {context}: wanted {expected} bytes, got {got}"
        )


#: Commands that take a key (slot routing applies to these).
_KEYED = frozenset(("set", "get", "del", "exists", "incr", "append"))

#: The argument-less command tuples and the constant replies, built once.
_ERR_COMMAND = ("err",)
_PING_COMMAND = ("ping",)
_OK = resp_proto.encode_simple(b"OK")
_PONG = resp_proto.encode_simple(b"PONG")
_ERR = resp_proto.encode_error(b"ERR")


class RedisServerApp(MicroLibrary):
    """Minimal pipelining-capable key/value server (RESP2)."""

    NAME = "redis"
    SPEC = """
    [Memory access] Read(Own,Shared); Write(Own,Shared)
    [Call] netstack::listen, netstack::recv, netstack::send, \
alloc::malloc, alloc::free, alloc::malloc_shared, alloc::free_shared, \
vfs::open, vfs::read, vfs::write, vfs::close, \
kv::put, kv::get, kv::delete, kv::sync, kv::recover, kv::kv_keys
    [API] redis_stats(); dbsize(); save(path); load(path); recover()
    """
    TRUE_BEHAVIOR = {
        "writes": ["Own", "Shared"],
        "reads": ["Own", "Shared"],
        "calls": [
            "netstack::listen",
            "netstack::recv",
            "netstack::send",
            "alloc::malloc",
            "alloc::free",
            "alloc::malloc_shared",
            "alloc::free_shared",
            "vfs::open",
            "vfs::read",
            "vfs::write",
            "vfs::close",
            "kv::put",
            "kv::get",
            "kv::delete",
            "kv::sync",
            "kv::recover",
            "kv::kv_keys",
        ],
    }

    PORT = 6379
    #: Request/response staging buffer sizes.
    BUF_SIZE = 4096
    #: Size of the per-request reply object (redis robj analogue).
    REPLY_OBJ_SIZE = 64

    def __init__(self) -> None:
        super().__init__()
        self._net = None
        self._alloc = None
        self._kv = None
        #: key (bytes) → (value address in private heap, length)
        self._store: dict[bytes, tuple[int, int]] = {}
        self.sets = 0
        self.gets = 0
        self.misses = 0
        self.errors = 0
        self.responses = 0
        #: Write records journaled into the kv compartment (durable mode).
        self.kv_writes = 0
        #: ``-MOVED`` redirects answered (cluster mode).
        self.redirects = 0
        self.running = False
        #: Host-side cluster router: ``key -> None | (slot, owner)``;
        #: non-None means redirect (this shard does not own the slot).
        self._cluster_router = None
        #: Host-side replication channel (``.put(key, bytes)`` /
        #: ``.delete(key)``); mirrors the journaled write stream to a
        #: follower shard before each ack.
        self.replicator = None

    def on_boot(self) -> None:
        self._net = self.stub("netstack")
        self._alloc = self.stub("alloc")
        if self.linker is not None and self.linker.has_link(self, "kv"):
            # Optional durability: journal through the gate into the
            # storage compartment whenever the image links kv.
            self._kv = self.stub("kv")

    @property
    def durable(self) -> bool:
        """True when writes are journaled into the kv compartment."""
        return self._kv is not None

    # --- cluster hooks (host-side) ----------------------------------------

    def set_cluster_router(self, router) -> None:
        """Install (or clear) the slot-ownership check.

        ``router(key)`` returns ``None`` when this shard currently owns
        the key's slot, else ``(slot, owner_name)`` — the command is
        answered with ``-MOVED slot owner`` and not executed.  Called
        by the cluster control plane at build, rebalance, and failover
        time; a demoted ex-primary's router redirects everything, which
        is the split-brain fence.
        """
        self._cluster_router = router

    def _route(self, key: bytes):
        if self._cluster_router is None:
            return None
        return self._cluster_router(key)

    # --- server loop ----------------------------------------------------------

    def make_server(self, port: int | None = None):
        """Body factory for the server thread (runs until stack stop)."""
        bind_port = port if port is not None else self.PORT

        def body() -> Generator:
            sockfd = self._net.call("listen", bind_port)
            req_buf = self._alloc.call("malloc_shared", self.BUF_SIZE)
            resp_buf = self._alloc.call("malloc_shared", self.BUF_SIZE)
            self.running = True
            pending = 0
            # Durable deployment over a batched (queue) kv channel:
            # journal the whole request buffer's writes in one doorbell
            # crossing and ack each only on its completion.  The
            # deferred variant is a generator — it parks on the kv
            # channel's completion queue instead of forcing the flush.
            deferred = self._kv is not None and self._kv.supports_async
            while True:
                count = yield from self._net.call_gen(
                    "recv", sockfd, req_buf + pending, self.BUF_SIZE - pending
                )
                if count == 0:
                    break
                total = pending + count
                raw = self.machine.load(req_buf, total)
                if deferred:
                    consumed = yield from self._process_deferred(
                        raw, req_buf, resp_buf, sockfd
                    )
                else:
                    consumed = self._process(raw, req_buf, resp_buf, sockfd)
                if consumed < total:
                    # Shift the partial trailing command to the front.
                    self.machine.copy(req_buf, req_buf + consumed, total - consumed)
                pending = total - consumed
            self._alloc.call("free_shared", req_buf)
            self._alloc.call("free_shared", resp_buf)
            self.running = False

        return body

    # --- request parsing (RESP arrays → command tuples) -------------------

    def _parse_commands(self, raw: bytes) -> tuple[list[tuple], int]:
        """Parse every complete command in ``raw``; (commands, consumed).

        Command tuples:

        - ``("set", key, value_offset, length)``
        - ``("get"|"del"|"exists"|"incr", key)``
        - ``("append", key, suffix_offset, length)``
        - ``("ping",)`` / ``("err",)``

        A malformed frame (a first byte other than ``*``, a bad header,
        an oversized bulk) consumes the rest of the buffer and yields
        one ``err`` — the typed :class:`~repro.apps.resp.RespError`
        path; resynchronising inside a corrupt stream would execute
        attacker-framed bytes.
        """
        commands: list[tuple] = []
        pos = 0
        limit = len(raw)
        while pos < limit:
            try:
                parsed = resp_proto.parse_array(
                    raw, pos, max_bulk=self.BUF_SIZE - 64
                )
            except resp_proto.RespError:
                commands.append(_ERR_COMMAND)
                pos = limit
                break
            if parsed is None:
                break  # incomplete frame: wait for more bytes
            args, offsets, pos = parsed
            commands.append(self._command_from_resp(args, offsets))
        return commands, pos

    @staticmethod
    def _command_from_resp(args: list[bytes], offsets: list[int]) -> tuple:
        name = args[0].upper()
        argc = len(args)
        if name == b"SET" and argc == 3:
            return ("set", args[1], offsets[2], len(args[2]))
        if name == b"GET" and argc == 2:
            return ("get", args[1])
        if name == b"DEL" and argc == 2:
            return ("del", args[1])
        if name == b"EXISTS" and argc == 2:
            return ("exists", args[1])
        if name == b"INCR" and argc == 2:
            return ("incr", args[1])
        if name == b"APPEND" and argc == 3:
            return ("append", args[1], offsets[2], len(args[2]))
        if name == b"PING" and argc == 1:
            return _PING_COMMAND
        return _ERR_COMMAND

    # --- synchronous execution --------------------------------------------

    def _process(
        self, raw: bytes, req_buf: int, resp_buf: int, sockfd: int
    ) -> int:
        """Execute every complete command in ``raw``; returns bytes consumed."""
        commands, consumed = self._parse_commands(raw)
        for command in commands:
            reply_len = self._execute(command, req_buf, resp_buf)
            self._send_reply(resp_buf, reply_len, sockfd)
        return consumed

    def _execute(self, command: tuple, req_buf: int, resp_buf: int) -> int:
        kind = command[0]
        if kind == "err":
            return self._reply_error(resp_buf)
        if kind == "ping":
            return self._store_reply(resp_buf, _PONG)
        key = command[1]
        if kind in _KEYED:
            redirect = self._route(key)
            if redirect is not None:
                return self._reply_moved(resp_buf, redirect)
        if kind == "set":
            _, _, offset, length = command
            self._do_set(key, req_buf + offset, length)
            return self._store_reply(resp_buf, _OK)
        if kind == "get":
            return self._do_get(key, resp_buf)
        if kind == "del":
            return self._do_del(key, resp_buf)
        if kind == "exists":
            return self._do_exists(key, resp_buf)
        if kind == "incr":
            return self._do_incr(key, resp_buf)
        if kind == "append":
            _, _, offset, length = command
            return self._do_append(key, req_buf + offset, length, resp_buf)
        return self._reply_error(resp_buf)

    def _send_reply(self, resp_buf: int, reply_len: int, sockfd: int) -> None:
        # Per-request reply object, as redis allocates per command.
        reply_obj = self._alloc.call("malloc", self.REPLY_OBJ_SIZE)
        self._alloc.call("free", reply_obj)
        self._net.call("send", sockfd, resp_buf, reply_len)
        self.responses += 1

    # --- deferred (batched-durability) execution --------------------------

    def _process_deferred(
        self, raw: bytes, req_buf: int, resp_buf: int, sockfd: int
    ) -> Generator:
        """Batched-durability variant of :meth:`_process` (a generator).

        Phase 1 parses the buffer and *submits* every SET/DEL journal
        record onto the kv queue channel without acknowledging anything.
        Phase 2 waits for every journal completion — wake-driven: the
        scheduler parks this thread on the channel's completion queue
        until a flush delivers them (the channel's own batch/max-delay
        policy, or a flush performed by any other thread, rings the
        doorbell; a policy with no latency bound flushes on behalf of
        the waiter).  Phase 3 applies commands in order, acking each
        SET/DEL only if its journal completion came back clean —
        journal-before-ack, amortised over the request buffer.  A
        command whose journal op failed is answered ``-ERR`` and its
        in-memory effect is skipped, so the store never runs ahead of
        the journal.  INCR/APPEND post-images are journaled with a
        synchronous call in phase 3 (their value exists only once
        earlier staged commands have applied); the sync path flushes
        any queued records first, so ordering holds.
        """
        commands, consumed = self._parse_commands(raw)
        submitted = 0
        staged: list[tuple] = []
        for command in commands:
            kind = command[0]
            if kind in _KEYED:
                redirect = self._route(command[1])
                if redirect is not None:
                    staged.append(("moved", redirect))
                    continue
            if kind == "set":
                _, key, offset, length = command
                ticket = None
                if length <= KV_MAX_VALUE:
                    ticket = self._kv.submit(
                        "put", key, req_buf + offset, length
                    )
                    submitted += 1
                staged.append(("set", ticket, key, req_buf + offset, length))
            elif kind == "del":
                # Journal unconditionally: whether the key exists can
                # only be decided once earlier staged SETs have applied,
                # and a tombstone for a missing key is harmless.
                key = command[1]
                ticket = self._kv.submit("delete", key)
                submitted += 1
                staged.append(("del", ticket, key))
            else:
                staged.append(command)
        # Wake-driven completion delivery: block until every journal
        # op submitted above has completed (one doorbell for the whole
        # pipeline) instead of forcing the flush and polling.
        if submitted:
            completions = yield from self._kv.wait_completions(submitted)
            done = {c.ticket: c for c in completions}
        else:
            done = {}
        for entry in staged:
            kind = entry[0]
            if kind == "set":
                _, ticket, key, value_addr, length = entry
                completion = done.get(ticket)
                if ticket is not None and (
                    completion is None or not completion.ok
                ):
                    reply_len = self._reply_error(resp_buf)
                else:
                    if ticket is not None:
                        self.kv_writes += 1
                        self._replicate_put(key, value_addr, length)
                    self._apply_set(key, value_addr, length)
                    reply_len = self._store_reply(resp_buf, _OK)
            elif kind == "del":
                _, ticket, key = entry
                completion = done.get(ticket)
                if completion is None or not completion.ok:
                    reply_len = self._reply_error(resp_buf)
                else:
                    self.kv_writes += 1
                    self._replicate_delete(key)
                    removed = self._drop_key(key)
                    reply_len = self._reply_int(resp_buf, removed)
            elif kind == "moved":
                reply_len = self._reply_moved(resp_buf, entry[1])
            else:
                reply_len = self._execute(entry, req_buf, resp_buf)
            self._send_reply(resp_buf, reply_len, sockfd)
        return consumed

    # --- commands ---------------------------------------------------------------

    def _replicate_put(self, key: bytes, value_addr: int, length: int) -> None:
        """Mirror one journaled put to the follower (before the ack)."""
        if self.replicator is not None:
            data = self.machine.load(value_addr, length) if length else b""
            self.replicator.put(key, data)

    def _replicate_bytes(self, key: bytes, data: bytes) -> None:
        if self.replicator is not None:
            self.replicator.put(key, data)

    def _replicate_delete(self, key: bytes) -> None:
        if self.replicator is not None:
            self.replicator.delete(key)

    def _journal_post_image(self, key: bytes, data: bytes, resp_buf: int) -> None:
        """Journal (and replicate) a write's post-image as a SET record.

        The INCR/APPEND durability path: the computed value is staged
        through the response buffer (shared memory the storage
        compartment may read through the gate) and journaled before the
        command is acknowledged, so recovery replays it like a SET.
        """
        if self._kv is None or len(data) > KV_MAX_VALUE:
            return
        if data:
            self.machine.store(resp_buf, data)
        self._kv.call("put", key, resp_buf, len(data))
        self.kv_writes += 1
        self._replicate_bytes(key, data)

    def _do_set(self, key: bytes, value_addr: int, length: int) -> None:
        if self._kv is not None and length <= KV_MAX_VALUE:
            # AOF-style journal first: the value is still sitting in the
            # shared request buffer, so the storage compartment can read
            # it straight through the gate without another staging copy.
            # Journal-before-apply means an acknowledged SET is at least
            # as durable as the kv flush policy promises.
            self._kv.call("put", key, value_addr, length)
            self.kv_writes += 1
            self._replicate_put(key, value_addr, length)
        self._apply_set(key, value_addr, length)

    def _apply_set(self, key: bytes, value_addr: int, length: int) -> None:
        """In-memory half of SET: copy the value into the private heap."""
        old = self._store.pop(key, None)
        if old is not None:
            self._alloc.call("free", old[0])
        stored = self._alloc.call("malloc", max(1, length))
        if length:
            # The app copies from the shared request buffer into its
            # private heap itself (LibC may not write app memory).
            self.machine.copy(stored, value_addr, length)
        self._store[key] = (stored, length)
        self.sets += 1

    def _do_get(self, key: bytes, resp_buf: int) -> int:
        self.gets += 1
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            return self._store_reply(resp_buf, resp_proto.NULL_BULK)
        addr, length = entry
        # A bulk reply framed in place: the value is copied straight
        # from the private heap between its header and terminator.
        head = b"$%d\r\n" % length
        self.machine.store(resp_buf, head)
        if length:
            self.machine.copy(resp_buf + len(head), addr, length)
        total = len(head) + length
        self.machine.store(resp_buf + total, resp_proto.CRLF)
        return total + 2

    def _drop_key(self, key: bytes) -> int:
        """Remove a key from the in-memory store; 1 if it existed."""
        entry = self._store.pop(key, None)
        if entry is None:
            return 0
        self._alloc.call("free", entry[0])
        return 1

    def _do_del(self, key: bytes, resp_buf: int) -> int:
        entry = self._store.pop(key, None)
        if entry is not None:
            if self._kv is not None:
                self._kv.call("delete", key)
                self.kv_writes += 1
                self._replicate_delete(key)
            self._alloc.call("free", entry[0])
        return self._reply_int(resp_buf, 1 if entry is not None else 0)

    def _do_exists(self, key: bytes, resp_buf: int) -> int:
        return self._reply_int(resp_buf, 1 if key in self._store else 0)

    def _do_incr(self, key: bytes, resp_buf: int) -> int:
        entry = self._store.get(key)
        if entry is None:
            current = 0
        else:
            addr, length = entry
            raw = self.machine.load(addr, length) if length else b"0"
            try:
                current = int(raw)
            except ValueError:
                return self._reply_error(resp_buf)
        current += 1
        encoded = b"%d" % current
        # Durability: journal the post-image before applying or acking,
        # same contract as SET (an acked INCR survives crash→recover).
        self._journal_post_image(key, encoded, resp_buf)
        stored = self._alloc.call("malloc", len(encoded))
        self.machine.store(stored, encoded)
        if entry is not None:
            self._alloc.call("free", entry[0])
        self._store[key] = (stored, len(encoded))
        return self._reply_int(resp_buf, current)

    def _do_append(
        self, key: bytes, suffix_addr: int, suffix_len: int, resp_buf: int
    ) -> int:
        entry = self._store.get(key)
        old_len = entry[1] if entry is not None else 0
        total = old_len + suffix_len
        stored = self._alloc.call("malloc", max(1, total))
        if entry is not None:
            if old_len:
                self.machine.copy(stored, entry[0], old_len)
            self._alloc.call("free", entry[0])
        if suffix_len:
            self.machine.copy(stored + old_len, suffix_addr, suffix_len)
        self._store[key] = (stored, total)
        # Durability: journal the concatenated post-image as a SET
        # record (staged via the response buffer) before the ack.
        if self._kv is not None and total <= KV_MAX_VALUE:
            if total:
                self.machine.copy(resp_buf, stored, total)
            self._kv.call("put", key, resp_buf, total)
            self.kv_writes += 1
            if self.replicator is not None:
                self._replicate_bytes(
                    key, self.machine.load(stored, total) if total else b""
                )
        return self._reply_int(resp_buf, total)

    # --- reply framing ----------------------------------------------------

    def _store_reply(self, resp_buf: int, reply: bytes) -> int:
        self.machine.store(resp_buf, reply)
        return len(reply)

    def _reply_int(self, resp_buf: int, value: int) -> int:
        return self._store_reply(resp_buf, resp_proto.encode_integer(value))

    def _reply_error(self, resp_buf: int) -> int:
        self.errors += 1
        return self._store_reply(resp_buf, _ERR)

    def _reply_moved(self, resp_buf: int, redirect: tuple) -> int:
        slot, owner = redirect
        self.redirects += 1
        owner_bytes = owner.encode() if isinstance(owner, str) else owner
        reply = resp_proto.encode_error(b"MOVED %d %s" % (slot, owner_bytes))
        return self._store_reply(resp_buf, reply)

    # --- persistence (RDB-style dump over the vfs micro-library) ----------------------

    @export
    def save(self, path: str) -> int:
        """Dump the whole store to a file; returns the record count.

        Record format: ``klen(2B) key vlen(4B) value``, staged through
        a shared buffer because the filesystem compartment copies via
        LibC (the same shared-data annotation rule as socket I/O).
        """
        from repro.libos.fs.ramfs import O_CREAT, O_TRUNC, O_WRONLY

        vfs = self.stub("vfs")
        staging = self._alloc.call("malloc_shared", self.BUF_SIZE)
        fd = vfs.call("open", path, O_WRONLY | O_CREAT | O_TRUNC)
        records = 0
        try:
            for key, (addr, length) in sorted(self._store.items()):
                header = (
                    len(key).to_bytes(2, "big")
                    + key
                    + length.to_bytes(4, "big")
                )
                self.machine.store(staging, header)
                if length:
                    # App copies its private value into the shared
                    # staging area itself (confused-deputy rule).
                    self.machine.copy(staging + len(header), addr, length)
                vfs.call("write", fd, staging, len(header) + length)
                records += 1
        finally:
            vfs.call("close", fd)
            self._alloc.call("free_shared", staging)
        return records

    def _read_exact(self, vfs, fd: int, staging: int, count: int, context: str) -> bytes:
        """Read exactly ``count`` bytes or raise :class:`DumpTruncatedError`.

        ``vfs.read`` legitimately returns short at EOF; *mid-record*
        that means the dump was truncated or torn, and silently using
        the stale staging-buffer bytes would rebuild a corrupt store.
        """
        got = vfs.call("read", fd, staging, count)
        if got != count:
            raise DumpTruncatedError(context, expected=count, got=got)
        return self.machine.load(staging, count)

    @export
    def load(self, path: str) -> int:
        """Restore the store from a dump; returns the record count.

        A dump that ends cleanly between records is a normal EOF; one
        that ends *inside* a record raises :class:`DumpTruncatedError`
        (and the store keeps the records restored so far — callers
        decide whether a partial restore is acceptable).
        """
        from repro.libos.fs.ramfs import O_RDONLY

        vfs = self.stub("vfs")
        staging = self._alloc.call("malloc_shared", self.BUF_SIZE)
        fd = vfs.call("open", path, O_RDONLY)
        records = 0
        try:
            while True:
                got = vfs.call("read", fd, staging, 2)
                if got == 0:
                    break  # clean EOF on a record boundary
                if got != 2:
                    raise DumpTruncatedError(
                        "record header", expected=2, got=got
                    )
                key_len = int.from_bytes(self.machine.load(staging, 2), "big")
                raw = self._read_exact(
                    vfs, fd, staging, key_len + 4, "key + value length"
                )
                key = raw[:key_len]
                value_len = int.from_bytes(raw[key_len:], "big")
                stored = self._alloc.call("malloc", max(1, value_len))
                remaining = value_len
                copied = 0
                try:
                    while remaining > 0:
                        chunk = min(remaining, self.BUF_SIZE)
                        self._read_exact(
                            vfs, fd, staging, chunk, f"value of {key!r}"
                        )
                        self.machine.copy(stored + copied, staging, chunk)
                        copied += chunk
                        remaining -= chunk
                except DumpTruncatedError:
                    self._alloc.call("free", stored)
                    raise
                old = self._store.pop(key, None)
                if old is not None:
                    self._alloc.call("free", old[0])
                self._store[key] = (stored, value_len)
                records += 1
        finally:
            vfs.call("close", fd)
            self._alloc.call("free_shared", staging)
        return records

    # --- durability (AOF-style journal via the kv micro-library) -----------------------

    @export
    def recover(self) -> dict:
        """Replay the durable kv journal into the in-memory store.

        The boot path of a durable deployment: runs kv recovery (log
        scan / hint load, CRC-discarding torn records), then pulls every
        live key back into the private heap.  Returns the recovery
        report plus the number of keys restored.  A no-op (``durable:
        False``) when the image has no kv library.
        """
        if self._kv is None:
            return {"durable": False, "restored": 0}
        report = self._kv.call("recover")
        staging = self._alloc.call("malloc_shared", KV_MAX_VALUE)
        restored = 0
        try:
            for key in self._kv.call("kv_keys"):
                length = self._kv.call("get", key, staging)
                if length < 0:
                    continue  # raced with a tombstone; nothing to restore
                old = self._store.pop(key, None)
                if old is not None:
                    self._alloc.call("free", old[0])
                stored = self._alloc.call("malloc", max(1, length))
                if length:
                    self.machine.copy(stored, staging, length)
                self._store[key] = (stored, length)
                restored += 1
        finally:
            self._alloc.call("free_shared", staging)
        report = dict(report)
        report.update({"durable": True, "restored": restored})
        return report

    # --- exports ---------------------------------------------------------------------

    @export
    def redis_stats(self) -> dict[str, int]:
        """Command counters."""
        return {
            "sets": self.sets,
            "gets": self.gets,
            "misses": self.misses,
            "errors": self.errors,
            "responses": self.responses,
            "durable": self.durable,
            "kv_writes": self.kv_writes,
            "redirects": self.redirects,
        }

    @export
    def dbsize(self) -> int:
        """Number of stored keys."""
        return len(self._store)

    def value_of(self, key: bytes) -> bytes | None:
        """Test helper: read a stored value back out of simulated memory."""
        entry = self._store.get(key)
        if entry is None:
            return None
        if self.machine is None:
            raise GateError("redis not installed")
        addr, length = entry
        return self.machine.dma_read(
            self.compartment.address_space, addr, length
        )
