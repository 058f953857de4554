import contextlib
import hashlib
import json
import struct
import threading
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mf_readout import (
    ConfigError,
    DataError,
    RunConfig,
    apply_stats,
    crosstalk_config,
    dataset_cache_key,
    default_config,
    evaluate,
    fit_stats,
    generate_dataset,
    load_or_generate,
    run_pipeline,
    train_all_sites,
)
import mf_readout.locate as locate_mod
import mf_readout.pipeline as pipeline_mod
import mf_readout.train as train_mod
from mf_readout.filters import KINDS
from mf_readout.train import LEARNED_KINDS
from mf_readout.util import canonical_json, derive_seed


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
        dict(exposure_sweep_ms=(10.0, 10.0000001)),  # both would write exp_10ms/
        dict(kinds=()),
        dict(kinds=("square", "parquet")),
        dict(kinds=("square", "square")),
        dict(crop=(0, 0, 10)),
        dict(crop=(-1, 0, 10, 10)),
        dict(crop=(0, 0, 10, 40)),  # off the 28x28 frame
        dict(crop=(0, 0, 10, 12)),  # inside it, but cutting off sites
        dict(alpha=-1.0),
        dict(s_grid=()),
        dict(s_grid=(0,)),
        dict(s_grid=(1,)),
        dict(s_grid=(1, 3)),
        dict(theta_grid=(0.5, 0.4, 0.1)),
        dict(theta_grid=(0.1, 0.9, 0.0)),
        dict(theta_grid=(0.0, 0.9, 0.1)),
        dict(theta_grid=(0.5, 1.0, 0.1)),
        dict(n_shuffles=0),
        dict(seed=-1),
        dict(label_source="guess"),
        dict(crossfid_frames=-5),
        dict(output_dir=""),
    ]
    for bad in cases:
        with pytest.raises(ConfigError):
            replace(ok, **bad)
    nan, inf = float("nan"), float("inf")
    for field, value in [
        ("exposure_sweep_ms", (nan,)),
        ("exposure_sweep_ms", (10.0, inf)),
        ("alpha", nan),
        ("alpha", inf),
        ("theta_grid", (0.1, nan, 0.1)),
    ]:
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            replace(ok, **{field: value})


def test_run_config_rejects_a_repeated_window_size(tmp_path):
    with pytest.raises(ConfigError, match=r"bad s grid \(3, 3, 5\): window size\(s\) 3 repeated in \(3, 3, 5\)"):
        _tiny_run(tmp_path, s_grid=(3, 3, 5))


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


@pytest.mark.parametrize("path, key", [
    ((), "n_shufles"), (("sim",), "exposure"), (("sim", "geometry"), "spacing"),
], ids=["run", "sim", "geometry"])
def test_run_config_rejects_an_unknown_key(tmp_path, path, key):
    # a misspelled optional key would otherwise run its default
    d = _tiny_run(tmp_path).to_dict()
    inner = d
    for name in path:
        inner = inner[name]
    inner[key] = 3
    with pytest.raises(ConfigError, match=f"unknown .* key.*'{key}'"):
        RunConfig.from_dict(d)


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
    stem.with_suffix(".labels.json").write_text('{"labels":["01"],"source":"label"}\n')


@contextlib.contextmanager
def _edited_sidecar(stem: Path):
    path = stem.with_suffix(".json")
    sidecar = json.loads(path.read_text())
    yield sidecar
    path.write_text(json.dumps(sidecar))


def _damage_truth_256(stem: Path):
    # a character outside ASCII: code point 256
    with _edited_sidecar(stem) as sidecar:
        sidecar["truth"][0] = chr(256) + sidecar["truth"][0][1:]


def _damage_truth_x(stem: Path):
    with _edited_sidecar(stem) as sidecar:
        sidecar["truth"][0] = "x" + sidecar["truth"][0][1:]


def _damage_truth_list_row(stem: Path):
    with _edited_sidecar(stem) as sidecar:
        sidecar["truth"][0] = [int(c) for c in sidecar["truth"][0]]


def _damage_truth_missing_row(stem: Path):
    with _edited_sidecar(stem) as sidecar:
        sidecar["truth"].pop()


def _damage_seed_abc(stem: Path):
    with _edited_sidecar(stem) as sidecar:
        sidecar["seed"] = "abc"


def _damage_drop_config_key(stem: Path):
    with _edited_sidecar(stem) as sidecar:
        del sidecar["config"]["p_bright"]


def _damage_unknown_config_key(stem: Path):
    with _edited_sidecar(stem) as sidecar:
        sidecar["config"]["geometry"]["spacing"] = 6.0


def _damage_truth_3_columns(stem: Path):
    with _edited_sidecar(stem) as sidecar:
        sidecar["truth"] = [row[:3] for row in sidecar["truth"]]


def _damage_relabel_to_two(stem: Path):
    path = stem.with_suffix(".labels.json")
    labels = json.loads(path.read_text())
    labels["labels"][0] = "2" + labels["labels"][0][1:]
    path.write_text(json.dumps(labels))


def _damage_short_label_row(stem: Path):
    path = stem.with_suffix(".labels.json")
    labels = json.loads(path.read_text())
    labels["labels"][-1] = labels["labels"][-1][:-1]
    path.write_text(json.dumps(labels))


@pytest.mark.parametrize(
    "damage",
    [_damage_truncate_binary, _damage_delete_sidecar, _damage_half_write_labels,
     _damage_misshape_labels, _damage_truth_256, _damage_truth_x, _damage_truth_list_row,
     _damage_truth_missing_row, _damage_seed_abc, _damage_drop_config_key,
     _damage_unknown_config_key, _damage_truth_3_columns, _damage_relabel_to_two, _damage_short_label_row],
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


def _write_version_1_entry(stem: Path):
    """Rewrite a cache entry the way qimg format version 1 stored it: the
    same pixels under a version-1 header, and nested integer lists for the
    sidecar's truth and the cached labels."""
    qimg = stem.with_suffix(".qimg")
    raw = bytearray(qimg.read_bytes())
    raw[4:6] = struct.pack("<H", 1)
    qimg.write_bytes(bytes(raw))
    sidecar = json.loads(stem.with_suffix(".json").read_text())
    sidecar["truth"] = [[int(c) for c in row] for row in sidecar["truth"]]
    stem.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")
    labels = stem.with_suffix(".labels.json")
    rows = json.loads(labels.read_text())["labels"]
    old = {"labels": [[int(c) for c in row] for row in rows], "source": "label"}
    labels.write_text(json.dumps(old, sort_keys=True, separators=(",", ":")) + "\n")


def test_a_version_1_entry_is_rendered_again(tmp_path, monkeypatch):
    sim = default_config(n_images=40, seed=7)
    load_or_generate(sim, "label", tmp_path / "fresh")
    fresh = _tree_digest(tmp_path / "fresh")

    cache = tmp_path / "cache"
    load_or_generate(sim, "label", cache)
    _write_version_1_entry(cache / dataset_cache_key(sim))
    assert _tree_digest(cache) != fresh
    rendered = []
    for name in ("generate_dataset", "generate_label_path"):
        real = getattr(pipeline_mod, name)
        monkeypatch.setattr(pipeline_mod, name, lambda *a, _f=real, _n=name: rendered.append(_n) or _f(*a))
    load_or_generate(sim, "label", cache)
    assert rendered == ["generate_dataset", "generate_label_path"]
    assert _tree_digest(cache) == fresh
    # rendered once: the rewritten entry is a hit
    load_or_generate(sim, "label", cache)
    assert len(rendered) == 2


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


def test_pipeline_drops_the_frames_before_the_held_out_stage(tmp_path, monkeypatch):
    frames, alive = [], []
    load, holdout = pipeline_mod.load_or_generate, pipeline_mod._holdout_rows

    def loaded(*args):
        stack, labels = load(*args)
        frames.append(weakref.ref(stack.images))
        return stack, labels

    def held_out(*args):
        alive.append(frames[-1]() is not None)
        return holdout(*args)

    monkeypatch.setattr(pipeline_mod, "load_or_generate", loaded)
    monkeypatch.setattr(pipeline_mod, "_holdout_rows", held_out)
    run_pipeline(_tiny_run(tmp_path, kinds=("square",), exposure_sweep_ms=(10.0, 20.0), crossfid_frames=60))
    assert alive == [False, False]


# ---------------------------------------------------------- one shuffle

@pytest.fixture(scope="module")
def shuffle_stacks():
    """Float32 stacks of both presets, sized as the memory bounds below."""
    return {
        "default": generate_dataset(default_config(n_images=2000, seed=5)),
        "crosstalk": generate_dataset(crosstalk_config(n_images=3000, seed=5)),
    }


def _shuffle_run(stack) -> RunConfig:
    sim = stack.config
    return RunConfig(sim=sim, output_dir="unused", exposure_sweep_ms=(sim.exposure_ms,), label_source="truth")


def _bits(array: np.ndarray):
    return array.dtype, array.shape, array.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("preset", ["default", "crosstalk"])
def test_one_shuffle_matches_the_whole_stack_reference(
    shuffle_stacks, whole_stack_shuffle, preset, dtype, tmp_path, monkeypatch
):
    """Normalizing each split block on its own gives the bits of slicing
    the normalized whole stack: stats, blocks, geometry, models, reports."""
    stack = shuffle_stacks[preset]
    images = stack.images.astype(dtype)
    before = _bits(images)
    run = _shuffle_run(stack)
    blocks = []

    def recorded(frames, stats, out=None):
        blocks.append(apply_stats(frames, stats, out=out))
        return blocks[-1]

    monkeypatch.setattr(pipeline_mod, "apply_stats", recorded)
    split, stats, geometry, sets, reports = pipeline_mod._one_shuffle(run, images, stack.truth, 0)
    monkeypatch.undo()
    assert _bits(images) == before
    ref_split, ref_stats, ref_geometry, ref_sets, ref_reports, ref_blocks = whole_stack_shuffle(
        run, images, stack.truth, 0
    )

    assert split.to_dict() == ref_split.to_dict()
    assert stats == ref_stats
    assert [_bits(b) for b in blocks] == [_bits(b) for b in ref_blocks]
    for field in ("centers", "sigmas", "amplitudes"):
        assert _bits(getattr(geometry, field)) == _bits(getattr(ref_geometry, field))
    assert geometry.fallbacks == ref_geometry.fallbacks
    for kind in run.kinds:
        paths = sets[kind].save(tmp_path / "shuffle")
        ref_paths = ref_sets[kind].save(tmp_path / "reference")
        assert [p.read_bytes() for p in paths] == [p.read_bytes() for p in ref_paths]
        got, want = vars(reports[kind]).copy(), vars(ref_reports[kind]).copy()
        assert _bits(got.pop("fidelities")) == _bits(want.pop("fidelities"))
        assert got == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_block_is_cast_once_and_normalized_in_place(shuffle_stacks, dtype, monkeypatch):
    """The train block is one float64 array: its stats are fitted on it and
    it is normalized in place, with the bits of fit_stats and apply_stats
    on the caller's train frames, and stats.json's bytes."""
    stack = shuffle_stacks["default"]
    images = stack.images.astype(dtype)
    run = replace(_shuffle_run(stack), kinds=("gaussian",))
    calls = []

    def recorded(frames, stats, out=None):
        calls.append((frames, out, apply_stats(frames, stats, out=out)))
        return calls[-1][2]

    monkeypatch.setattr(pipeline_mod, "apply_stats", recorded)
    split, stats, *_ = pipeline_mod._one_shuffle(run, images, stack.truth, 0)
    monkeypatch.undo()
    frames, out, train = calls[0]
    assert out is frames and train is frames and train.dtype == np.float64

    ref_stats = fit_stats(images[split.train_idx])
    assert canonical_json(stats.to_dict()) == canonical_json(ref_stats.to_dict())
    assert _bits(train) == _bits(apply_stats(images[split.train_idx], ref_stats))


# The whole-stack path peaked at 2.55x (crosstalk) and 2.92x (default)
# the stack's float64 size, and one float64 copy per frame, cut from a
# float32 copy of the split and held through training, at 1.49x and
# 1.92x. Gathered straight into float64, with the train block released
# before the nested solves, the shuffle peaks at 1.108x and 1.338x; each
# bound leaves about 8 % above that. The rest is training's moments,
# products and solves, a larger share of the smaller stack.
@pytest.mark.parametrize("preset, bound", [("crosstalk", 1.2), ("default", 1.45)])
def test_one_shuffle_holds_each_frame_in_float64_once(shuffle_stacks, preset, bound):
    stack = shuffle_stacks[preset]
    run = _shuffle_run(stack)
    tracemalloc.start()
    try:
        pipeline_mod._one_shuffle(run, stack.images, stack.truth, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * stack.images.size * 8


def test_no_train_block_is_alive_while_the_learned_kinds_train(shuffle_stacks, monkeypatch):
    """The fixed kinds tune while the float64 train block is held; the
    window systems and the learned tuning run after it is freed."""
    stack = shuffle_stacks["default"]
    blocks, alive = [], []
    gather, window_systems, tune_all = pipeline_mod.gather_frames, train_mod._window_systems, train_mod._tune_all

    def gathered(images, idx):
        block = gather(images, idx)
        blocks.append(weakref.ref(block))
        return block

    def solves(*args):
        alive.append(("solves", blocks[0]() is not None))
        return window_systems(*args)

    def tuned(data, kind, *args):
        alive.append((kind, blocks[0]() is not None))
        out = tune_all(data, kind, *args)
        alive.append((kind, blocks[0]() is not None))
        return out

    monkeypatch.setattr(pipeline_mod, "gather_frames", gathered)
    monkeypatch.setattr(train_mod, "_window_systems", solves)
    monkeypatch.setattr(train_mod, "_tune_all", tuned)
    pipeline_mod._one_shuffle(_shuffle_run(stack), stack.images, stack.truth, 0)
    assert alive == [
        ("square", True), ("square", True), ("gaussian", True), ("gaussian", True),
        ("mf-site", False), ("solves", False), ("mf-site", False),
        ("mf-array", False), ("solves", False), ("mf-array", False),
    ]


def test_a_shuffle_starts_no_thread(shuffle_stacks, monkeypatch):
    """A four-kind shuffle, the learned kinds' moments included, runs on
    the calling thread alone: starting any thread fails it."""
    def must_not_start(thread):
        raise AssertionError(f"the shuffle started thread {thread.name!r}")

    stack = shuffle_stacks["default"]
    run = _shuffle_run(stack)
    assert set(run.kinds) == set(KINDS)
    monkeypatch.setattr(threading.Thread, "start", must_not_start)
    _, _, _, sets, _ = pipeline_mod._one_shuffle(run, stack.images, stack.truth, 0)
    assert list(sets) == list(run.kinds)


def test_a_shuffle_forms_the_train_label_sums_once(shuffle_stacks, monkeypatch):
    """Localization and the learned kinds' moments read one label_sums of
    the train block, with all four kinds in the run."""
    stack = shuffle_stacks["default"]
    calls = []

    def counted(inner):
        def label_sums(*args):
            calls.append(args[0].shape)
            return inner(*args)

        return label_sums

    for module in (pipeline_mod, train_mod, locate_mod):
        monkeypatch.setattr(module, "label_sums", counted(module.label_sums))
    run = _shuffle_run(stack)
    assert set(run.kinds) == set(KINDS)
    for split_seed in (0, 1):
        pipeline_mod._one_shuffle(run, stack.images, stack.truth, split_seed)
    assert calls == [(1200, *stack.images.shape[1:])] * 2


@pytest.mark.parametrize("preset", ["default", "crosstalk"])
def test_the_moments_are_completed_without_the_train_frames(shuffle_stacks, preset, monkeypatch):
    """release_train_block completes the moments from the train frames and
    the shuffle's one label_sums, then drops the frames, and the moments
    have the bits of the lazy moments of the same frames."""
    stack = shuffle_stacks[preset]
    pairs = []
    release = train_mod.TrainingData.release_train_block

    def released(data, *args):
        lazy = replace(data)._moments
        release(data, *args)
        assert data.train_images is None
        pairs.append((data._moments, lazy))

    monkeypatch.setattr(train_mod.TrainingData, "release_train_block", released)
    pipeline_mod._one_shuffle(_shuffle_run(stack), stack.images, stack.truth, 0)
    [(got_moments, lazy_moments)] = pairs
    for got, want in zip(got_moments, lazy_moments):
        assert _bits(got) == _bits(want)


def test_a_failure_in_a_shuffle_names_the_exposure_shuffle_and_split_seed(tmp_path, monkeypatch):
    """locate_sites raises in a run with a learned kind: the error names
    the exposure, the shuffle and its split seed."""
    def failing_locate(*args):
        raise DataError("no lattice found")

    monkeypatch.setattr(pipeline_mod, "locate_sites", failing_locate)
    run = _tiny_run(tmp_path, kinds=("square", "mf-site"))
    split_seed = derive_seed(run.seed, "split", repr(20.0), 0)
    with pytest.raises(DataError, match=rf"^exposure 20 ms, shuffle 0 \(split seed {split_seed}\): no lattice found$"):
        run_pipeline(run)


def test_fallback_fits_from_the_moments_after_the_release(small_training, tmp_path, monkeypatch):
    """On the 260-frame default stack every learned (site, window) is fit
    by the fallback, after the shuffle released its train block and from
    its moments alone: the models have the bits of those trained on the
    whole float64 block."""
    t = small_training
    fits = []
    fallback = train_mod._fallback_weights

    def counted(data, window, site, pix, nbr, alpha):
        fits.append(len(pix) + len(nbr))
        return fallback(data, window, site, pix, nbr, alpha)

    monkeypatch.setattr(train_mod, "_fallback_weights", counted)
    run = _shuffle_run(t.stack)
    _, _, _, sets, _ = pipeline_mod._one_shuffle(run, t.stack.images, t.stack.truth, 0)
    assert len(fits) == 2 * 117
    for kind in LEARNED_KINDS:
        want = train_all_sites(replace(t.data), kind)
        paths = sets[kind].save(tmp_path / "shuffle")
        ref_paths = want.save(tmp_path / "reference")
        assert [p.read_bytes() for p in paths] == [p.read_bytes() for p in ref_paths]
        for site, model in sets[kind].models.items():
            assert _bits(model.weights) == _bits(want.models[site].weights)
    assert len(fits) == 4 * 117


# The whole-stack held-out stage held the float32 stack and its float64
# normalization, a peak of 3.0x the stack's float32 size here; block by
# block it holds the float32 stack and one block's float64 frames, 1.36x.
def test_held_out_stage_normalizes_one_block_at_a_time(crosstalk_study, tmp_path):
    sim_e = crosstalk_study.config
    run = RunConfig(
        sim=sim_e, output_dir=str(tmp_path / "out"), exposure_sweep_ms=(sim_e.exposure_ms,),
        label_source="truth", crossfid_frames=3000,
    )
    cache = tmp_path / "cache"
    args = (run, sim_e.exposure_ms, sim_e, cache, crosstalk_study.stats0, crosstalk_study.sets0)
    rows = pipeline_mod._holdout_rows(*args)  # renders and caches the held-out stack

    tracemalloc.start()
    try:
        again = pipeline_mod._holdout_rows(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again == rows
    sim_h = replace(sim_e, n_images=3000, seed=derive_seed(run.seed, "crossfid", repr(float(sim_e.exposure_ms))))
    stack, labels = load_or_generate(sim_h, "truth", cache)
    assert peak < 1.5 * stack.images.nbytes

    # the rows of the normalized whole stack
    norm = apply_stats(stack.images, crosstalk_study.stats0)
    reference = []
    for kind, model_set in crosstalk_study.sets0.items():
        rep = evaluate(model_set, norm, labels)
        reference += [(k + 1, l + 1, kind, v, None if v is None else 0.0) for (k, l), v in zip(rep.cross_pairs, rep.cross_values)]
    assert rows == reference
