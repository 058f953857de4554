"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import mf_readout  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0.1", "--trace", str(trace), "--smoke"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(capsys, workload, trace):
    result = _bench(capsys, workload, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def _module_attributes() -> dict:
    mods = [mf_readout] + [
        importlib.import_module(f"mf_readout.{m.name}") for m in pkgutil.iter_modules(mf_readout.__path__)
    ]
    return {mod.__name__: dict(vars(mod)) for mod in mods}


def _assert_same_bindings(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    for mod, attrs in before.items():
        assert attrs.keys() == after[mod].keys(), mod
        changed = [name for name, value in attrs.items() if after[mod][name] is not value]
        assert not changed, f"{mod}: {changed}"


def test_tracer_leaves_module_attributes_as_it_found_them(tmp_path):
    before = _module_attributes()
    tracer = spans.Tracer("t")
    with pytest.raises(RuntimeError), spans.instrumented(tracer):
        assert mf_readout.train.fit_ridge is not before["mf_readout.train"]["fit_ridge"]
        raise RuntimeError("the traced run raises")
    _assert_same_bindings(before, _module_attributes())

    wl = workloads.SweepWarm(tmp_path, 0, workloads.SMOKE)
    run.run_traced(wl, 0.1, "t", tmp_path / "out")
    _assert_same_bindings(before, _module_attributes())


def test_traced_and_untraced_output_dirs_are_byte_identical(tmp_path):
    wl = workloads.SweepWarm(tmp_path, 0, workloads.SMOKE)
    wl.setup(spans.NullTracer())
    _, untraced = wl.iterate(spans.NullTracer())
    plain = workloads.tree_digests(tmp_path / "run")
    tracer = spans.Tracer("t")
    with spans.instrumented(tracer):
        _, traced = wl.iterate(tracer)
    assert tracer.spans, "the traced iteration recorded no spans"
    assert workloads.tree_digests(tmp_path / "run") == plain
    assert not untraced.problems and not traced.problems


def test_layer_self_times_add_up_to_the_traced_wall_time(tmp_path):
    wl = workloads.Readout(tmp_path, 0, workloads.SMOKE)
    metrics, _, _ = run.run_traced(wl, 0.1, "t", tmp_path / "out")
    value = {name: v for name, (v, _, _) in metrics.items()}
    total = sum(value[f"{layer}.self_s"] for layer in spans.LAYERS) + value["trace.unattributed_s"]
    assert total == pytest.approx(value["trace.wall_s"], rel=1e-9)
    assert value["qimg.bytes_read"] > 0 and value["sim.frames_rendered"] > 0


def test_checks_fail_on_a_corrupted_one_frame_prediction(capsys, monkeypatch):
    predict = mf_readout.filters.FilterModel.predict

    def corrupted(self, images):
        out = predict(self, images)
        return 1 - out if len(images) == 1 and self.kind == "mf-array" else out

    monkeypatch.setattr(mf_readout.filters.FilterModel, "predict", corrupted)
    result = _bench(capsys, "readout", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 4


def test_checks_fail_when_a_site_fails_to_train(capsys, monkeypatch):
    train_all_sites = mf_readout.pipeline.train_all_sites

    def one_site_fails(data, kind, *args):
        model_set = train_all_sites(data, kind, *args)
        if kind == "mf-site":
            del model_set.models[0]
            model_set.failures[0] = "failed on purpose"
        return model_set

    monkeypatch.setattr(mf_readout.pipeline, "train_all_sites", one_site_fails)
    result = _bench(capsys, "sweep-warm", 0)
    assert result["correct"] is False
    assert result["failed"] > 0
