"""Every function the benchmark tracer times must exist under its name.

``bench/tracing.py`` finds its targets by name. A missing target is only a
warning in traced runs and is dropped silently by the untraced stopwatch,
so a renamed set-up or phase function would skew ``setup_s`` or
``train_graphs_per_s`` without failing anything. This test resolves each
target the way ``tracing.install`` does, without installing a wrapper.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_bindings",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name", sorted(tracing.SPANS))
def test_span_target_exists(name):
    module_name, attr = tracing.SPANS[name].split(":")
    owner = importlib.import_module(f"flowgad.{module_name}")
    if "." in attr:
        class_name, method = attr.split(".")
        cls = getattr(owner, class_name, None)
        assert cls is not None, f"{name}: no class {module_name}.{class_name}"
        fn = cls.__dict__.get(method)
    else:
        fn = getattr(owner, attr, None)
    assert callable(fn), f"{name}: no target {tracing.SPANS[name]}"

