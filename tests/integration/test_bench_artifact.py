"""The write rule of the benchmark artifact (``benchmarks/conftest.py``).

A passing bench run writes back only the values it recorded, so a
partial run leaves every other value of ``benchmarks/results.json``
byte for byte — provided the committed file is already in the layout
the merge writes.
"""

import importlib.util
import json
import pathlib

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def merge_results(existing, recorded):
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", BENCHMARKS / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.merge_results(existing, recorded)


def test_committed_artifact_is_in_merge_layout():
    text = (BENCHMARKS / "results.json").read_text()
    assert merge_results(json.loads(text), {}) == text


def test_merge_replaces_only_recorded_values():
    recorded = {
        "fig3": {"A": {64: 1.0, 1024: 2.0}, "B": {64: 3.0}},
        "gates": {"none": 4.5},
    }
    # A fresh write is the plain sorted dump.
    fresh = merge_results({}, recorded)
    assert fresh == json.dumps(recorded, indent=2, sort_keys=True)

    text = merge_results(json.loads(fresh), {"fig3": {"A": {64: 1.5}}})
    merged = json.loads(text)
    assert merged["fig3"]["A"] == {"64": 1.5}
    assert merged["fig3"]["B"] == {"64": 3.0}
    assert merged["gates"] == {"none": 4.5}
    # Recording the same values again changes no byte.
    assert merge_results(json.loads(fresh), recorded) == fresh
