import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mf_readout import (
    ConfigError,
    DataError,
    RunConfig,
    dataset_cache_key,
    default_config,
    load_or_generate,
    run_pipeline,
)
import mf_readout.pipeline as pipeline_mod


def _tiny_run(tmp_path, **overrides) -> RunConfig:
    base = dict(
        sim=default_config(n_images=260, seed=0),
        output_dir=str(tmp_path / "out"),
        exposure_sweep_ms=(20.0,),
        kinds=("square", "gaussian"),
        n_shuffles=2,
        label_source="truth",
    )
    base.update(overrides)
    return RunConfig(**base)


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# -------------------------------------------------------------- config

def test_run_config_validation(tmp_path):
    ok = _tiny_run(tmp_path)
    cases = [
        dict(exposure_sweep_ms=()),
        dict(exposure_sweep_ms=(0.0,)),
        dict(exposure_sweep_ms=(10.0, 10.0)),
        dict(kinds=()),
        dict(kinds=("square", "parquet")),
        dict(kinds=("square", "square")),
        dict(crop=(0, 0, 10)),
        dict(crop=(-1, 0, 10, 10)),
        dict(alpha=-1.0),
        dict(s_grid=()),
        dict(s_grid=(0,)),
        dict(theta_grid=(0.5, 0.4, 0.1)),
        dict(theta_grid=(0.1, 0.9, 0.0)),
        dict(n_shuffles=0),
        dict(seed=-1),
        dict(label_source="guess"),
        dict(crossfid_frames=-5),
        dict(output_dir=""),
    ]
    for bad in cases:
        with pytest.raises(ConfigError):
            replace(ok, **bad)


def test_run_config_normalizes_kind_tokens(tmp_path):
    run = _tiny_run(tmp_path, kinds=("mfsite", "mfarray"))
    assert run.kinds == ("mf-site", "mf-array")
    assert _tiny_run(tmp_path, exposure_sweep_ms=(10,)).exposure_sweep_ms == (10.0,)


def test_run_config_round_trip(tmp_path):
    run = _tiny_run(tmp_path, crop=(2, 2, 24, 24), s_grid=(3, 5), crossfid_frames=100)
    again = RunConfig.from_dict(run.to_dict())
    assert again == run
    path = tmp_path / "run.json"
    run.save(path)
    assert RunConfig.load(path) == run


def test_run_config_from_minimal_dict(tmp_path):
    d = {
        "sim": default_config().to_dict(),
        "output_dir": str(tmp_path),
        "exposure_sweep_ms": [20.0],
    }
    run = RunConfig.from_dict(d)
    assert run.kinds == ("square", "gaussian", "mf-site", "mf-array")
    assert run.n_shuffles == 10
    assert run.label_source == "label"
    assert run.crossfid_frames == 0
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"output_dir": "x"})


# --------------------------------------------------------------- cache

def test_dataset_cache_key_tracks_the_config():
    a = default_config(n_images=100, seed=1)
    assert dataset_cache_key(a) == dataset_cache_key(default_config(n_images=100, seed=1))
    assert dataset_cache_key(a) != dataset_cache_key(replace(a, exposure_ms=21.0))
    assert dataset_cache_key(a) != dataset_cache_key(replace(a, seed=2))


def test_generator_version_is_part_of_the_cache_key(tmp_path, monkeypatch):
    sim = default_config(n_images=40, seed=5)
    old_key = dataset_cache_key(sim)
    old_stack, _ = load_or_generate(sim, "label", tmp_path)
    old_files = _tree_digest(tmp_path)

    monkeypatch.setattr(pipeline_mod, "GENERATOR_VERSION", pipeline_mod.GENERATOR_VERSION + 1)
    new_key = dataset_cache_key(sim)
    assert new_key != old_key
    read = []
    real_read_stack = pipeline_mod.read_stack
    monkeypatch.setattr(pipeline_mod, "read_stack", lambda p: read.append(p) or real_read_stack(p))
    rendered = []
    real_generate = pipeline_mod.generate_dataset
    monkeypatch.setattr(pipeline_mod, "generate_dataset", lambda c: rendered.append(c) or real_generate(c))

    stack, _ = load_or_generate(sim, "label", tmp_path)
    # the old entry is neither read nor touched; the new one is rendered
    assert read == [] and rendered == [sim]
    assert stack.images.tobytes() == old_stack.images.tobytes()
    assert {k: v for k, v in _tree_digest(tmp_path).items() if k.startswith(old_key)} == old_files
    assert (tmp_path / f"{new_key}.qimg").exists()
    assert (tmp_path / f"{new_key}.labels.json").exists()


def test_load_or_generate_uses_the_cache(tmp_path, monkeypatch):
    sim = default_config(n_images=40, seed=5)
    stack1, labels1 = load_or_generate(sim, "truth", tmp_path)
    assert (tmp_path / f"{dataset_cache_key(sim)}.qimg").exists()

    def boom(*a, **k):
        raise AssertionError("dataset regenerated despite a warm cache")

    monkeypatch.setattr(pipeline_mod, "generate_dataset", boom)
    stack2, labels2 = load_or_generate(sim, "truth", tmp_path)
    assert np.array_equal(stack1.images, stack2.images)
    assert np.array_equal(labels1, labels2)


def test_load_or_generate_caches_second_path_labels(tmp_path):
    sim = default_config(n_images=40, seed=6)
    _, labels1 = load_or_generate(sim, "label", tmp_path)
    label_file = tmp_path / f"{dataset_cache_key(sim)}.labels.json"
    assert label_file.exists()
    _, labels2 = load_or_generate(sim, "label", tmp_path)
    assert np.array_equal(labels1, labels2)
    assert json.loads(label_file.read_text())["source"] == "label"


def _damage_truncate_binary(stem: Path):
    qimg = stem.with_suffix(".qimg")
    qimg.write_bytes(qimg.read_bytes()[:-100])


def _damage_delete_sidecar(stem: Path):
    stem.with_suffix(".json").unlink()


def _damage_half_write_labels(stem: Path):
    labels = stem.with_suffix(".labels.json")
    labels.write_text(labels.read_text()[: len(labels.read_text()) // 2])


def _damage_misshape_labels(stem: Path):
    stem.with_suffix(".labels.json").write_text('{"labels":[[0,1]],"source":"label"}\n')


@pytest.mark.parametrize(
    "damage",
    [_damage_truncate_binary, _damage_delete_sidecar, _damage_half_write_labels,
     _damage_misshape_labels],
)
def test_damaged_cache_entries_are_regenerated(tmp_path, damage):
    sim = default_config(n_images=40, seed=7)
    fresh_stack, fresh_labels = load_or_generate(sim, "label", tmp_path / "fresh")
    fresh = _tree_digest(tmp_path / "fresh")

    cache = tmp_path / "cache"
    load_or_generate(sim, "label", cache)
    damage(cache / dataset_cache_key(sim))
    stack, labels = load_or_generate(sim, "label", cache)
    assert stack.images.tobytes() == fresh_stack.images.tobytes()
    assert np.array_equal(labels, fresh_labels)
    # every file is back with its fresh bytes and no temporary file is left
    assert _tree_digest(cache) == fresh


def test_cache_collision_is_still_an_error(tmp_path):
    sim = default_config(n_images=40, seed=7)
    load_or_generate(sim, "truth", tmp_path)
    other = default_config(n_images=40, seed=8)
    key = dataset_cache_key(other)
    (tmp_path / f"{dataset_cache_key(sim)}.qimg").rename(tmp_path / f"{key}.qimg")
    (tmp_path / f"{dataset_cache_key(sim)}.json").rename(tmp_path / f"{key}.json")
    with pytest.raises(DataError, match="cache collision"):
        load_or_generate(other, "truth", tmp_path)


# ------------------------------------------------------------ pipeline

@pytest.fixture(scope="module")
def tiny_result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    run = _tiny_run(tmp, crossfid_frames=60)
    report = run_pipeline(run)
    return run, report, Path(run.output_dir)


def test_pipeline_layout(tiny_result):
    run, report, out = tiny_result
    assert (out / "run_config.json").exists()
    assert (out / "sweep.csv").exists()
    assert (out / "sweep.svg").exists()
    exp = out / "exp_20ms"
    for name in (
        "audit.json",
        "geometry.json",
        "stats.json",
        "fidelity.csv",
        "crossfidelity.csv",
        "reduction.csv",
        "crossfidelity_holdout.csv",
    ):
        assert (exp / name).exists(), name
    models = sorted(p.name for p in (exp / "models").glob("*.json"))
    assert len(models) == 18  # 9 sites x 2 kinds
    assert "square_site1.json" in models and "gaussian_site9.json" in models


def test_pipeline_sweep_rows(tiny_result):
    run, report, out = tiny_result
    assert len(report.rows) == 2
    kinds = {row.kind for row in report.rows}
    assert kinds == {"square", "gaussian"}
    for row in report.rows:
        assert row.exposure_ms == 20.0
        assert 0.0 <= row.mean_infidelity <= 1.0
        assert row.stderr >= 0.0


def test_pipeline_audit_partitions(tiny_result):
    run, report, out = tiny_result
    audit = json.loads((out / "exp_20ms" / "audit.json").read_text())
    assert audit["label_source"] == "truth"
    assert len(audit["shuffles"]) == 2
    for entry in audit["shuffles"]:
        merged = entry["train_idx"] + entry["test_idx"] + entry["val_idx"]
        assert sorted(merged) == list(range(260))
    assert audit["shuffles"][0]["train_idx"] != audit["shuffles"][1]["train_idx"]


def test_pipeline_fidelity_csv_contents(tiny_result):
    run, report, out = tiny_result
    lines = (out / "exp_20ms" / "fidelity.csv").read_text().splitlines()
    assert lines[0] == "site,kind,F,stderr"
    assert len(lines) == 1 + 9 * 2
    sites = [int(line.split(",")[0]) for line in lines[1:10]]
    assert sites == list(range(1, 10))


def test_pipeline_rerun_is_byte_identical(tmp_path):
    run = _tiny_run(tmp_path, kinds=("square",), n_shuffles=2)
    run_pipeline(run)
    first = _tree_digest(Path(run.output_dir))
    run_pipeline(run)
    second = _tree_digest(Path(run.output_dir))
    assert first == second


def test_pipeline_releases_the_freed_heap_on_return_and_on_error(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(pipeline_mod, "release_free_heap", lambda: calls.append(1))
    run_pipeline(_tiny_run(tmp_path / "a", kinds=("square",), n_shuffles=1))
    assert calls == [1]
    with pytest.raises(Exception, match=r"exposure 20 ms, shuffle 0"):
        run_pipeline(_tiny_run(tmp_path / "b", kinds=("mf-site",), s_grid=(40,)))
    assert calls == [1, 1]


def test_pipeline_single_shuffle_reports_zero_spread(tmp_path):
    run = _tiny_run(tmp_path, kinds=("square",), n_shuffles=1)
    report = run_pipeline(run)
    assert len(report.rows) == 1
    assert report.rows[0].stderr == 0.0


def test_pipeline_errors_carry_stage_context(tmp_path):
    run = _tiny_run(tmp_path, kinds=("mf-site",), s_grid=(40,))
    with pytest.raises(Exception, match=r"exposure 20 ms, shuffle 0"):
        run_pipeline(run)
