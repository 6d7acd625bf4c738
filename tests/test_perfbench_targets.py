"""The benchmark's tracer wraps functions by (module, name) from outside
the program (``perfbench/tracing.py``, ``TARGETS``).  A rename or deletion
in ``src/`` that drops one of those names would break
``perfbench/run.py --trace 1``; this test catches it in the tier-1 run.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for modname, names in tracing.TARGETS.items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), "%s.%s" % (modname, name)
