"""The benchmark's tracer still finds every entry point it wraps.

perfbench/tracing.py wraps sloshspec functions by module attribute name,
so renaming one under src/ would silently drop its span from the traced
benchmark run.  The tracer is installed and restored in process here.
"""

import importlib.util
import os

import sloshspec.cli  # noqa: F401  (loads every module the tracer patches)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_expected_entry_point_and_restores_them():
    tracing = _load("tracing")
    expected = _load("selftest").EXPECTED_WRAPPERS
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = tracing.wrapped_attributes()
    finally:
        tracer.restore()
    assert [name for name in expected if name not in installed] == []
    assert tracing.wrapped_attributes() == []
