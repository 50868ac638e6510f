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

Durability: when the image links the ``kv`` micro-library, the server
commits each request buffer (the complete commands one ``recv``
returned, one event-loop iteration) as one **commit group**, the way
redis under ``appendfsync always`` pays one AOF write and one fsync per
pipeline.  Commands execute in order; each write appends its journal
entry to an AOF buffer in shared memory: a SET's value, a DEL's
tombstone, an INCR/APPEND post-image (replayed like a SET, so an
acknowledged INCR survives crash→recover exactly like an acknowledged
SET).  Right after the buffer's last write, one ``kv.journal`` crossing
appends the whole buffer under one flush barrier.  Replies from the
group's first write through its last are held in the response buffer
until that call returns; the others go out at once.  A group whose
entries or held replies would overflow their buffer commits early, so
no reply ever leaves before a barrier covers every write before it.
:meth:`RedisServerApp.recover` replays the log into the in-memory store
after a reboot; whether an acknowledged write survives a power failure
then depends on the kv flush policy (``every-write`` is redis
``appendfsync always``; ``batch:N`` is ``everysec``-style batching).

Cluster hooks (host-side, installed by :mod:`repro.cluster`):

- :meth:`set_cluster_router` arms slot-ownership checks — a keyed
  command for a slot this shard does not own (or no longer owns: a
  fenced ex-primary after failover) answers ``-MOVED <slot> <shard>``
  instead of executing, the redirect a smart client follows;
- :attr:`replicator` mirrors each journaled group's AOF bytes to a
  follower shard over the fabric's vm-rpc-style storage channel,
  *before* the group's replies — journal-before-ack extends to
  replicate-before-ack.
"""

from __future__ import annotations

from typing import Generator

from repro.apps import resp as resp_proto
from repro.libos.kv.store import (
    JOURNAL_DELETE,
    JOURNAL_ENTRY,
    MAX_JOURNAL as KV_MAX_JOURNAL,
    MAX_VALUE as KV_MAX_VALUE,
)
from repro.libos.library import MicroLibrary, export
from repro.machine.faults import GateError


#: Commands that take a key (slot routing applies to these).
_KEYED = frozenset(("set", "get", "del", "exists", "incr", "append"))
#: Commands that may journal a write (they bound a commit group).
_WRITES = frozenset(("set", "del", "incr", "append"))

#: The argument-less command tuples and the constant replies, built once.
_ERR_COMMAND = ("err",)
_PING_COMMAND = ("ping",)
_OK = resp_proto.encode_simple(b"OK")
_PONG = resp_proto.encode_simple(b"PONG")
_ERR = resp_proto.encode_error(b"ERR")


class _Connection:
    """One connection's reply and journal buffers.

    ``held`` lists the ``(offset, length)`` of replies that wait in the
    response buffer, back to back from its start, for the commit of the
    group they belong to; ``aof_len`` bytes of ``entries`` journal
    entries wait in the AOF buffer (durable servers only).
    """

    __slots__ = ("sockfd", "resp_buf", "aof_buf", "aof_len", "entries", "held")

    def __init__(self, sockfd: int, resp_buf: int, aof_buf: int) -> None:
        self.sockfd = sockfd
        self.resp_buf = resp_buf
        self.aof_buf = aof_buf
        self.aof_len = 0
        self.entries = 0
        self.held: list[tuple[int, int]] = []

    @property
    def reply_end(self) -> int:
        """Offset of the response buffer's first free byte."""
        if not self.held:
            return 0
        offset, length = self.held[-1]
        return offset + length


class RedisServerApp(MicroLibrary):
    """Minimal pipelining-capable key/value server (RESP2)."""

    NAME = "redis"
    SPEC = """
    [Memory access] Read(Own,Shared); Write(Own,Shared)
    [Call] netstack::listen, netstack::recv, netstack::send, \
alloc::malloc, alloc::free, alloc::malloc_shared, alloc::free_shared, \
kv::journal, kv::get, kv::recover, kv::kv_keys
    [API] redis_stats(); dbsize(); recover()
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
            "kv::journal",
            "kv::get",
            "kv::recover",
            "kv::kv_keys",
        ],
    }

    PORT = 6379
    #: Request/response staging buffer sizes.
    BUF_SIZE = 4096
    #: Largest value a SET can carry (the parser's bulk bound) and so
    #: the largest value APPEND may build, as redis bounds strings by
    #: ``proto-max-bulk-len``.  Every stored value therefore journals
    #: (kv takes up to 4 KiB) and every GET reply fits the response
    #: buffer.
    MAX_VALUE = BUF_SIZE - 64
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
        #: Host-side replication channel (``.journal(bytes)``); mirrors
        #: each commit group's journal entries to a follower shard
        #: before the group's replies.
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
            aof_buf = 0
            if self._kv is not None:
                aof_buf = self._alloc.call("malloc_shared", KV_MAX_JOURNAL)
            conn = _Connection(sockfd, resp_buf, aof_buf)
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
                consumed = self._process(raw, req_buf, conn)
                if consumed < total:
                    # Shift the partial trailing command to the front.
                    self.machine.copy(req_buf, req_buf + consumed, total - consumed)
                pending = total - consumed
            self._alloc.call("free_shared", req_buf)
            self._alloc.call("free_shared", resp_buf)
            if aof_buf:
                self._alloc.call("free_shared", aof_buf)
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
                parsed = resp_proto.parse_array(raw, pos, max_bulk=self.MAX_VALUE)
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

    # --- execution and group commit ----------------------------------------

    def _process(self, raw: bytes, req_buf: int, conn: _Connection) -> int:
        """Execute every complete command in ``raw``; returns bytes consumed.

        On a durable server the commands from the buffer's first write
        through its last form one commit group: their replies are held
        until :meth:`_commit` has journaled the group's entries.
        """
        commands, consumed = self._parse_commands(raw)
        first_write = last_write = -1
        if self._kv is not None:
            writes = [
                index
                for index, command in enumerate(commands)
                if command[0] in _WRITES
            ]
            if writes:
                first_write, last_write = writes[0], writes[-1]
        for index, command in enumerate(commands):
            reply_len = self._execute(command, req_buf, conn)
            if first_write <= index <= last_write:
                conn.held.append((conn.reply_end, reply_len))
            else:
                self._send_reply(conn.resp_buf, reply_len, conn.sockfd)
            if index == last_write:
                self._commit(conn)
        return consumed

    def _commit(self, conn: _Connection) -> None:
        """Journal the group's entries in one kv crossing (one flush
        barrier), mirror them to the follower, then send the replies
        held so far."""
        if conn.entries:
            self._kv.call("journal", conn.aof_buf, conn.aof_len)
            if self.replicator is not None:
                self.replicator.journal(
                    self.machine.load(conn.aof_buf, conn.aof_len)
                )
            self.kv_writes += conn.entries
            conn.aof_len = conn.entries = 0
        for offset, length in conn.held:
            self._send_reply(conn.resp_buf + offset, length, conn.sockfd)
        conn.held.clear()

    def _journal(
        self,
        conn: _Connection,
        key: bytes,
        value_addr: int = 0,
        length: int = 0,
        flags: int = 0,
    ) -> None:
        """Append one entry to the AOF buffer; a full buffer commits
        the group so far first."""
        header = JOURNAL_ENTRY.pack(flags, len(key), length) + key
        if conn.aof_len + len(header) + length > KV_MAX_JOURNAL:
            self._commit(conn)
        entry = conn.aof_buf + conn.aof_len
        self.machine.store(entry, header)
        if length:
            # The app copies the value into the AOF buffer itself, from
            # the request buffer or its private heap.
            self.machine.copy(entry + len(header), value_addr, length)
        conn.aof_len += len(header) + length
        conn.entries += 1

    def _execute(self, command: tuple, req_buf: int, conn: _Connection) -> int:
        kind = command[0]
        if kind == "err":
            return self._reply_error(conn)
        if kind == "ping":
            return self._store_reply(conn, _PONG)
        key = command[1]
        if kind in _KEYED:
            redirect = self._route(key)
            if redirect is not None:
                return self._reply_moved(conn, redirect)
        if kind == "set":
            _, _, offset, length = command
            self._do_set(key, req_buf + offset, length, conn)
            return self._store_reply(conn, _OK)
        if kind == "get":
            return self._do_get(key, conn)
        if kind == "del":
            return self._do_del(key, conn)
        if kind == "exists":
            return self._do_exists(key, conn)
        if kind == "incr":
            return self._do_incr(key, conn)
        if kind == "append":
            _, _, offset, length = command
            return self._do_append(key, req_buf + offset, length, conn)
        return self._reply_error(conn)

    def _send_reply(self, reply_addr: int, reply_len: int, sockfd: int) -> None:
        # Per-request reply object, as redis allocates per command.
        reply_obj = self._alloc.call("malloc", self.REPLY_OBJ_SIZE)
        self._alloc.call("free", reply_obj)
        self._net.call("send", sockfd, reply_addr, reply_len)
        self.responses += 1

    # --- commands ---------------------------------------------------------------

    def _do_set(
        self, key: bytes, value_addr: int, length: int, conn: _Connection
    ) -> None:
        if self._kv is not None:
            self._journal(conn, key, value_addr, length)
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

    def _do_get(self, key: bytes, conn: _Connection) -> int:
        self.gets += 1
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            return self._store_reply(conn, resp_proto.NULL_BULK)
        addr, length = entry
        # A bulk reply framed in place: the value is copied straight
        # from the private heap between its header and terminator.
        head = b"$%d\r\n" % length
        total = len(head) + length
        reply = self._reply_slot(conn, total + 2)
        self.machine.store(reply, head)
        if length:
            self.machine.copy(reply + len(head), addr, length)
        self.machine.store(reply + total, resp_proto.CRLF)
        return total + 2

    def _do_del(self, key: bytes, conn: _Connection) -> int:
        entry = self._store.pop(key, None)
        if entry is not None:
            if self._kv is not None:
                self._journal(conn, key, flags=JOURNAL_DELETE)
            self._alloc.call("free", entry[0])
        return self._reply_int(conn, 1 if entry is not None else 0)

    def _do_exists(self, key: bytes, conn: _Connection) -> int:
        return self._reply_int(conn, 1 if key in self._store else 0)

    def _do_incr(self, key: bytes, conn: _Connection) -> int:
        entry = self._store.get(key)
        if entry is None:
            current = 0
        else:
            addr, length = entry
            raw = self.machine.load(addr, length) if length else b"0"
            try:
                current = int(raw)
            except ValueError:
                return self._reply_error(conn)
        current += 1
        encoded = b"%d" % current
        stored = self._alloc.call("malloc", len(encoded))
        self.machine.store(stored, encoded)
        if entry is not None:
            self._alloc.call("free", entry[0])
        self._store[key] = (stored, len(encoded))
        if self._kv is not None:
            # The post-image, replayed like a SET on recovery.
            self._journal(conn, key, stored, len(encoded))
        return self._reply_int(conn, current)

    def _do_append(
        self, key: bytes, suffix_addr: int, suffix_len: int, conn: _Connection
    ) -> int:
        entry = self._store.get(key)
        old_len = entry[1] if entry is not None else 0
        total = old_len + suffix_len
        if total > self.MAX_VALUE:
            # Past the largest value a SET can carry: refused, the
            # value unchanged.
            return self._reply_error(conn)
        stored = self._alloc.call("malloc", max(1, total))
        if entry is not None:
            if old_len:
                self.machine.copy(stored, entry[0], old_len)
            self._alloc.call("free", entry[0])
        if suffix_len:
            self.machine.copy(stored + old_len, suffix_addr, suffix_len)
        self._store[key] = (stored, total)
        if self._kv is not None:
            # The concatenated post-image, replayed like a SET.
            self._journal(conn, key, stored, total)
        return self._reply_int(conn, total)

    # --- reply framing ----------------------------------------------------

    def _reply_slot(self, conn: _Connection, length: int) -> int:
        """Address for the next reply; a group whose held replies it
        would overflow commits first."""
        if conn.reply_end + length > self.BUF_SIZE:
            self._commit(conn)
        return conn.resp_buf + conn.reply_end

    def _store_reply(self, conn: _Connection, reply: bytes) -> int:
        self.machine.store(self._reply_slot(conn, len(reply)), reply)
        return len(reply)

    def _reply_int(self, conn: _Connection, value: int) -> int:
        return self._store_reply(conn, resp_proto.encode_integer(value))

    def _reply_error(self, conn: _Connection) -> int:
        self.errors += 1
        return self._store_reply(conn, _ERR)

    def _reply_moved(self, conn: _Connection, redirect: tuple) -> int:
        slot, owner = redirect
        self.redirects += 1
        owner_bytes = owner.encode() if isinstance(owner, str) else owner
        reply = resp_proto.encode_error(b"MOVED %d %s" % (slot, owner_bytes))
        return self._store_reply(conn, reply)

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
