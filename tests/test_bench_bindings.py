"""The traced benchmark rebinds names inside mf_readout's modules; every
name it targets must stay bound there, or only the traced run breaks."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    """perfbench/spans.py as a module of its own, registered only for the
    test (its dataclasses look their module up while they are built)."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_bound_in_its_module(monkeypatch):
    targets = _load_spans(monkeypatch).TARGETS
    assert targets
    missing = [
        f"{mod_name}.{name}"
        for mod_name, name in targets
        if not callable(getattr(importlib.import_module(f"mf_readout.{mod_name}"), name, None))
    ]
    assert missing == []
