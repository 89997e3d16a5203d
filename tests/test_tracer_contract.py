"""The benchmark's tracer wraps program functions by name, and reports a
name it cannot find as absent instead of failing. This test fails instead:
every traced name must resolve to a callable in the package, so a change
that deletes or renames one shows here and not only in a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it loads
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    targets = load_tracer(monkeypatch).TARGETS
    assert targets
    missing = [f"{t.module}.{t.name}" for t in targets
               if not callable(getattr(importlib.import_module(t.module),
                                       t.name, None))]
    assert missing == []


def test_numfield_factors_through_the_traced_binding():
    # the tracer sees numfield's factorisations only through this binding
    from torsionfree import numfield, polyalg

    assert numfield.factor_mod_p is polyalg.factor_mod_p
