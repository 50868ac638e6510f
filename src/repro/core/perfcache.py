"""Persistent cache of measured candidate-deployment costs.

Simulation-backed exploration pays tens of milliseconds of host time
per candidate to build and run an image.  The measurement is a pure
function of *what gets built and driven*: the compartment partition,
the SH choices, the workload, the backend, and the build-config
overrides.  This module persists that function's graph to a JSON file
so repeated benchmark/report runs — or two explorations sharing
candidates — never re-simulate a known candidate.

Keys are canonical JSON strings built from
:meth:`repro.core.hardening.Deployment.key` (partition + sorted
choices), so colorings that differ only by a color permutation share
an entry.  Hits/misses/stores are counted in the shared
:func:`repro.obs.exploration_metrics` registry under
``explore.perfcache.*``.

Only measured simulation scores are cached; the analytic and
profile-guided estimators score a candidate without building an
image, so they keep no cache.

The file format is a flat ``{"version": 3, "entries": {key: cost}}``
object.  Bump :data:`PerfCache.VERSION` to invalidate on disk-format
or cost-model changes; a version mismatch (or unreadable file) is
treated as an empty cache, never an error.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import threading
from typing import TYPE_CHECKING

from repro.obs.metrics import exploration_metrics

if TYPE_CHECKING:
    from repro.core.hardening import Deployment


def candidate_key(
    deployment: "Deployment",
    workload: str,
    backend: str,
    scale: int = 1,
    config_overrides: dict | None = None,
) -> str:
    """Canonical string key for one measured candidate.

    Partition and choices come from ``Deployment.key()``; everything
    else that shapes the built image or the driven workload is folded
    in.  Stable across processes and color permutations.
    """
    partition, choices = deployment.key()
    payload = {
        "partition": sorted(sorted(members) for members in partition),
        "choices": [[name, list(techs)] for name, techs in choices],
        "workload": workload,
        "backend": backend,
        "scale": scale,
        "config": {
            key: repr(value)
            for key, value in sorted((config_overrides or {}).items())
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class PerfCache:
    """On-disk JSON memo: candidate key → measured cost (float).

    Write-through: every :meth:`put` rewrites the file via an atomic
    rename, so a crashed exploration never corrupts the cache and a
    concurrent reader sees either the old or the new file, whole.
    ``path=None`` degrades to a process-local dict (no persistence) so
    callers can treat the cache as always-present.
    """

    # v3: keys no longer carry a cost-estimator field, so v2 caches are
    # discarded rather than read through mismatched keys.
    VERSION = 3

    def __init__(self, path: str | os.PathLike | None) -> None:
        self.path = pathlib.Path(path) if path is not None else None
        self._entries: dict[str, float] = {}
        # Serialises entry-update + file-write so puts from several
        # threads sharing one cache can't persist a stale snapshot that
        # drops a concurrent put's entry.
        self._lock = threading.Lock()
        if self.path is not None and self.path.exists():
            try:
                data = json.loads(self.path.read_text())
            except (OSError, json.JSONDecodeError):
                data = None
            if (
                isinstance(data, dict)
                and data.get("version") == self.VERSION
                and isinstance(data.get("entries"), dict)
            ):
                self._entries = {
                    key: float(value)
                    for key, value in data["entries"].items()
                }

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> float | None:
        """Cached cost for ``key``; counts the hit/miss."""
        cost = self._entries.get(key)
        metrics = exploration_metrics()
        if cost is None:
            metrics.inc("explore.perfcache.misses")
        else:
            metrics.inc("explore.perfcache.hits")
        return cost

    def put(self, key: str, cost: float) -> None:
        """Store and (if backed by a file) persist one measurement."""
        with self._lock:
            self._entries[key] = float(cost)
            self._save()
        exploration_metrics().inc("explore.perfcache.stores")

    def _save(self) -> None:
        if self.path is None:
            return
        payload = json.dumps(
            {"version": self.VERSION, "entries": self._entries},
            indent=2,
            sort_keys=True,
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w") as handle:
                handle.write(payload)
            os.replace(temp_name, self.path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
