"""Shared reporting for the benchmark suite: the one way a bench records.

Every benchmark prints paper-style rows through the session ``report``
(shown in the terminal summary, so the paper-vs-measured comparison is
visible under output capture) and records its simulated numbers with
``report.value`` into ``benchmarks/results.json``, the one committed
benchmark artifact.  Host timings are rows only, so the file is a
function of the simulation: byte-identical across runs and hash seeds.

A passing run writes back the values it recorded and keeps every other
value byte for byte, so running one bench file or a ``-k`` subset
leaves the rest of the artifact alone; a failing run writes nothing.
To drop a value that no bench records any more, delete the file and
run the whole directory.
"""

from __future__ import annotations

import json
import pathlib

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ARTIFACT = HERE / "results.json"

_RESULTS: dict[str, list[str]] = {}
_RAW: dict[str, dict] = {}


class Report:
    """Accumulates human-readable rows and raw values per experiment."""

    def row(self, experiment: str, text: str) -> None:
        _RESULTS.setdefault(experiment, []).append(text)

    def value(self, experiment: str, key: str, value) -> None:
        _RAW.setdefault(experiment, {})[key] = value

    def metrics(self, experiment: str, key: str, snapshot: dict) -> None:
        """Attach an image's full metrics snapshot
        (``Image.metrics_snapshot()``) to the raw results.

        Gives results.json the per-configuration crossing counts and
        histograms alongside the headline numbers, so regressions can
        be traced to a specific gate edge rather than just a slower
        total.
        """
        _RAW.setdefault(experiment, {})[f"{key}:metrics"] = snapshot


@pytest.fixture(scope="session")
def report() -> Report:
    return Report()


def merge_results(existing: dict, recorded: dict) -> str:
    """``existing`` with every recorded ``(experiment, key)`` value
    replaced, as the canonical artifact text.

    A recorded value passes through JSON once, so it is laid out
    exactly as one read back from the file (integer keys become
    strings, in the order ``sort_keys`` gave them).
    """
    merged = {name: dict(section) for name, section in existing.items()}
    for experiment, values in recorded.items():
        section = merged.setdefault(experiment, {})
        for key, value in values.items():
            section[key] = json.loads(json.dumps(value, sort_keys=True))
    ordered = {
        name: dict(sorted(section.items()))
        for name, section in sorted(merged.items())
    }
    return json.dumps(ordered, indent=2)


def pytest_terminal_summary(terminalreporter, exitstatus):
    if _RESULTS:
        terminalreporter.section("FlexOS reproduction: paper-style results")
        for experiment in sorted(_RESULTS):
            terminalreporter.write_line(f"== {experiment} ==")
            for line in _RESULTS[experiment]:
                terminalreporter.write_line("  " + line)
    if not _RAW or exitstatus != 0:
        return
    existing = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    ARTIFACT.write_text(merge_results(existing, _RAW))
    terminalreporter.write_line(f"raw values written to {ARTIFACT}")
