"""The traced benchmark rebinds names inside mf_readout's modules; every
name it targets must stay bound there, and called on the thread that runs
the sweep, or only the traced run breaks."""

import functools
import importlib
import importlib.util
import sys
import threading
from pathlib import Path

from mf_readout import RunConfig, default_config, run_pipeline

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


def test_every_traced_call_runs_on_the_calling_thread(monkeypatch, tmp_path):
    # the tracer keeps one span stack, so a target called on a worker
    # thread (the render pool) would corrupt it
    calls = []

    def recorded(name, inner):
        @functools.wraps(inner)
        def call(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return inner(*args, **kwargs)

        return call

    for mod_name, attr in _load_spans(monkeypatch).TARGETS:
        module = importlib.import_module(f"mf_readout.{mod_name}")
        monkeypatch.setattr(module, attr, recorded(f"{mod_name}.{attr}", getattr(module, attr)))
    run = RunConfig(
        sim=default_config(n_images=260, seed=0),
        output_dir=str(tmp_path / "out"),
        exposure_sweep_ms=(20.0,),
        n_shuffles=2,
        label_source="truth",
        crossfid_frames=60,
    )
    run_pipeline(run)
    assert {"pipeline.locate_sites", "pipeline.train_all_sites", "metrics.classify_stack"} <= {n for n, _ in calls}
    assert [name for name, thread in calls if thread is not threading.current_thread()] == []
