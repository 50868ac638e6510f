"""Every entry point the traced benchmark wraps still exists.

``perfbench/run.py --trace 1`` wraps each ``(owner, attribute)`` that
``perfbench/layers.py`` lists in ``_targets()``, looking it up with
``getattr``; a renamed or deleted one makes the traced worker exit 1.
This checks the same lookups without running a workload.
"""

import importlib.util
import pathlib

LAYERS = pathlib.Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_entry_point_resolves():
    targets = load_layers()._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if not hasattr(owner, attr)
    ]
    assert missing == []
