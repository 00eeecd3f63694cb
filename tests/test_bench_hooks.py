"""The benchmark's tracer still finds every name it wraps.

``perfbench/spans.py`` replaces functions by name in ``reuselab.experiments``,
``reuselab.selection`` and ``reuselab.cli``. A refactor that renames or
unbinds one of them breaks the benchmark, so this installs the tracer and
restores it without running a workload.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_resolve_and_restore():
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for module, attr, original in patches:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.restore()
    for module, attr, original in patches:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
