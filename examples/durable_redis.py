#!/usr/bin/env python3
"""Durable redis: crash-consistent storage behind a compartment gate.

1. Build a redis image whose storage stack — a write-back block cache
   (``blk``) and a bitcask-style KV log (``kv``) — lives in its own
   compartment behind an MPK gate.
2. Serve SETs over the simulated wire; every acknowledged write is
   journaled into the KV log before the +OK goes out.
3. Pull the plug with unflushed writes in the block cache (seeded, so
   the torn sectors are reproducible).
4. Reboot onto the same disk medium and recover: every acknowledged
   write survives, torn tails are discarded by CRC.
5. Run a seeded crash-recovery campaign cell for the matrix view.

Run:  python examples/durable_redis.py
"""

import random

from repro import BuildConfig, build_image
from repro.apps import start_redis
from repro.apps.resp import encode_command
from repro.apps.workload import run_redis_phase
from repro.libos.blk.blkdev import DiskMedium
from repro.resilience import default_recovery_plan, run_recovery_cell

LAYOUT = dict(
    libraries=["libc", "netstack", "blk", "kv", "redis"],
    compartments=[
        ["netstack"],                       # untrusted packet handling
        ["blk", "kv"],                      # the storage stack
        ["sched", "alloc", "libc", "redis"],  # the application core
    ],
    backend="mpk-shared",
)

# --- 1+2. A durable server takes writes --------------------------------------

medium = DiskMedium()  # host-side: survives the "machine" losing power

image = build_image(BuildConfig(**LAYOUT))
image.lib("blk").attach_medium(medium)
image.call("kv", "set_flush_policy", "every-write")
start_redis(image)

entries = {b"motd": b"welcome back", b"hits": b"1024", b"theme": b"dark"}
requests = [
    encode_command(b"SET", key, value) for key, value in entries.items()
]
run_redis_phase(image, requests, window=2, expect_prefix=b"+OK")

stats = image.call("redis", "redis_stats")
print(f"served {stats['sets']} SETs, journaled {stats['kv_writes']} "
      f"writes into the kv compartment (durable={stats['durable']})")

# --- 3. Power failure with dirty cache ---------------------------------------

image.call("kv", "set_flush_policy", "batch:1000")  # stop flushing
run_redis_phase(
    image,
    [encode_command(b"SET", b"doomed", b"lost")],
    window=1,
    expect_prefix=b"+OK",
)
kv_stats = image.call("kv", "kv_stats")
pending = kv_stats["seq"] - kv_stats["durable_seq"]
report = image.lib("blk").crash(random.Random(7))
print(f"power failure: {pending} journaled write(s) had not reached the "
      f"medium ({report.dirty} dirty cache sectors, "
      f"{len(report.torn_sectors)} torn)")

# --- 4. Reboot and recover ---------------------------------------------------

rebooted = build_image(BuildConfig(**LAYOUT))
rebooted.lib("blk").attach_medium(medium)
recovery = rebooted.call("redis", "recover")
print(f"recovered {recovery['restored']} keys "
      f"({recovery['torn_discarded']} torn records discarded by CRC)")
for key, value in entries.items():
    assert rebooted.lib("redis").value_of(key) == value, key
assert rebooted.lib("redis").value_of(b"doomed") is None
print("every flushed write survived; the unflushed one is gone "
      "(exactly what batch mode trades away)")

start_redis(rebooted)
run_redis_phase(
    rebooted,
    [encode_command(b"GET", b"motd")],
    window=1,
    expect_prefix=b"$12\r\nwelcome back\r\n",
)
print("GET motd -> 'welcome back' (served from the recovered store)")

# --- 5. One campaign cell: torn write during flush ---------------------------

cell = run_recovery_cell(
    "mpk-shared",
    "blk-torn-write",
    default_recovery_plan("blk-torn-write", seed=5),
    sets=12,
)
print(f"campaign cell blk-torn-write/mpk-shared: verdict={cell['verdict']} "
      f"(acked={cell['acked']}, restored={cell['restored']})")
