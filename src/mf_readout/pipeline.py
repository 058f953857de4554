"""End-to-end orchestration of the readout study.

A RunConfig pins everything: simulation parameters, exposure sweep, model
kinds, grids, shuffle count, and the master seed. run_pipeline expands it
into datasets (cached on disk by content hash), per-shuffle training and
evaluation, aggregated CSV reports, and the sweep chart.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, MFReadoutError
from .filters import KINDS, classify_stack, frame_blocks
from .locate import apply_stats, crop, crop_config, fit_stats, gather_frames, label_sums, locate_sites, mean_image
from .metrics import evaluate, evaluate_predictions, standard_error
from .qimg import label_matrix, label_rows, read_stack, write_stack
from .report import (
    SweepReport,
    SweepRow,
    emit_svg,
    write_crossfidelity_csv,
    write_fidelity_csv,
    write_reduction_csv,
    write_sweep_csv,
)
from .sim import (
    GENERATOR_VERSION,
    LabeledImageStack,
    SimConfig,
    generate_dataset,
    generate_label_path,
)
from .train import (
    LEARNED_KINDS,
    TOKEN_KINDS,
    TrainingData,
    check_window_grid,
    split_dataset,
    theta_grid_default,
    train_all_sites,
)
from .util import (
    canonical_json,
    cast_fields,
    content_hash,
    derive_seed,
    finite_fields,
    read_dataclass,
    read_json,
    release_free_heap,
    write_atomic,
)

LABEL_SOURCES = ("label", "truth")


def exposure_dir(exposure: float) -> str:
    """The name of an exposure's artifact directory under output_dir."""
    return f"exp_{exposure:g}ms"


@dataclass(frozen=True)
class RunConfig:
    """One sweep run, fully specified; every artifact is a function of it.

    theta_grid is a (lo, hi, step) triple expanded into the threshold
    search grid of the matched filters. s_grid None means the library
    default window search (under which the square filter keeps its fixed
    lattice-pitch window). label_source selects the training labels:
    "label" for second-path classifications, "truth" for the exact
    simulated states. crossfid_frames > 0 adds a held-out cross-fidelity
    evaluation of the shuffle-0 models at every exposure.
    """

    sim: SimConfig
    output_dir: str
    exposure_sweep_ms: tuple[float, ...]
    kinds: tuple[str, ...] = KINDS
    crop: tuple[int, int, int, int] | None = None
    alpha: float = 0.0
    s_grid: tuple[int, ...] | None = None
    theta_grid: tuple[float, float, float] = (0.01, 0.99, 0.01)
    n_shuffles: int = 10
    seed: int = 0
    label_source: str = "label"
    crossfid_frames: int = 0

    def __post_init__(self):
        # canonicalize up front so validation, hashing, and reports all see
        # one spelling (CLI kind tokens, list-vs-tuple, int-vs-float)
        if not isinstance(self.output_dir, (str, os.PathLike)) or not os.fspath(self.output_dir):
            raise ConfigError(f"output_dir must be a non-empty path, got {self.output_dir!r}")
        cast_fields(self, os.fspath, "output_dir")
        cast_fields(self, str, "label_source")
        cast_fields(self, float, "alpha")
        cast_fields(self, int, "n_shuffles", "seed", "crossfid_frames")
        cast_fields(self, lambda values: tuple(map(float, values)), "exposure_sweep_ms", "theta_grid")
        finite_fields(self, "alpha", "exposure_sweep_ms", "theta_grid")
        object.__setattr__(self, "kinds", tuple(TOKEN_KINDS.get(k, k) for k in self.kinds))
        for name in ("crop", "s_grid"):
            if getattr(self, name) is not None:
                cast_fields(self, lambda values: tuple(map(int, values)), name)

        if not self.exposure_sweep_ms:
            raise ConfigError("exposure sweep is empty")
        if any(e <= 0 for e in self.exposure_sweep_ms):
            raise ConfigError(f"exposures must be positive: {self.exposure_sweep_ms}")
        dirs = {}
        for e in self.exposure_sweep_ms:
            if (name := exposure_dir(e)) in dirs:
                raise ConfigError(f"exposures {dirs[name]!r} and {e!r} ms would both write {name}/")
            dirs[name] = e
        if not self.kinds:
            raise ConfigError("kinds is empty")
        for k in self.kinds:
            if k not in KINDS:
                raise ConfigError(f"unknown model kind {k!r}")
        if len(set(self.kinds)) != len(self.kinds):
            raise ConfigError(f"duplicate model kind in {self.kinds}")
        if self.crop is not None:
            if len(self.crop) != 4:
                raise ConfigError(f"crop must be (top, left, height, width), got {self.crop}")
            crop_config(self.sim, *self.crop)  # raises ConfigError if it leaves the frame or cuts off a site
        if self.alpha < 0:
            raise ConfigError("alpha must be non-negative")
        if self.s_grid is not None:
            try:
                check_window_grid(self.s_grid)
            except ConfigError as exc:
                raise ConfigError(f"bad s grid {self.s_grid}: {exc}") from exc
        theta_grid_default(*self.theta_grid)  # raises ConfigError for a bad grid
        if self.n_shuffles < 1:
            raise ConfigError("n_shuffles must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.label_source not in LABEL_SOURCES:
            raise ConfigError(f"label_source must be one of {LABEL_SOURCES}")
        if self.crossfid_frames < 0:
            raise ConfigError("crossfid_frames must be non-negative")

    to_dict = asdict

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        return read_dataclass(RunConfig, d, ConfigError, sim=SimConfig.from_dict)

    def save(self, path) -> None:
        Path(path).write_text(canonical_json(self.to_dict()) + "\n")

    @staticmethod
    def load(path) -> "RunConfig":
        return RunConfig.from_dict(read_json(path, ConfigError))


def dataset_cache_key(sim: SimConfig) -> str:
    """Content hash identifying one generated dataset (exposure included).

    The generator version is hashed with the config, so a stack cached by
    a generator that drew other bytes is never read as this one's.
    """
    return content_hash({"generator": GENERATOR_VERSION, "sim": sim.to_dict()})


def load_or_generate(
    sim: SimConfig, label_source: str, cache_dir
) -> tuple[LabeledImageStack, np.ndarray]:
    """Dataset and its training labels, cached under the config hash.

    Sweeps revisit the same (config, exposure) many times; the first call
    renders and writes cache files, later calls read them back bit-exactly.
    Entries are written whole (see write_atomic); one that still cannot be
    read, such as a truncated binary, a lost sidecar, broken label JSON or
    an entry of an older qimg format version, counts as a miss and is
    rendered again.
    """
    cache_dir = Path(cache_dir)
    key = dataset_cache_key(sim)
    stack_path = cache_dir / f"{key}.qimg"
    stack = None
    if stack_path.exists():
        with contextlib.suppress(DataError):  # unreadable: a miss
            stack = read_stack(stack_path)
    if stack is None:
        stack = generate_dataset(sim)
        cache_dir.mkdir(parents=True, exist_ok=True)
        write_stack(stack_path, stack)
    elif stack.config != sim:
        raise DataError(f"{stack_path}: cache collision, config does not match")
    if label_source == "truth":
        return stack, stack.truth

    label_path = cache_dir / f"{key}.labels.json"
    labels = _read_cached_labels(label_path, stack.truth.shape)
    if labels is None:
        labels = generate_label_path(sim, stack.truth)
        cache_dir.mkdir(parents=True, exist_ok=True)
        text = canonical_json({"labels": label_rows(labels), "source": "label"}) + "\n"
        write_atomic(label_path, text.encode())
    return stack, labels


def _read_cached_labels(path: Path, shape) -> np.ndarray | None:
    """Cached second-path labels, or None when missing, invalid, misshaped,
    not 0/1 or not in label_rows' row strings."""
    try:
        return label_matrix(read_json(path)["labels"], shape)
    except (DataError, KeyError, TypeError):
        return None


def _one_shuffle(run: RunConfig, images, labels, split_seed: int):
    """Split, normalize, locate, train every kind, evaluate the test split.

    Only train and validation frames feed fitting and tuning; the test
    block is touched once, for the final metrics.

    Each split block is gathered from the caller's frames, which are never
    modified, straight into float64 a few hundred frames at a time
    (gather_frames) and normalized in place, so no copy of a split is made
    in the stack's own dtype, and every block is bit-equal to a slice of
    the normalized whole stack: the cast is exact and apply_stats is
    elementwise. The train block's stats are fitted on it before it is
    normalized. Its readers are fit_stats, mean_image, label_sums (with
    the train labels), the fixed kinds' tuning and the learned kinds'
    moments. The column and label sums are formed once: localization
    reads the difference images built from them, and the moments are
    completed from them and the pixel Gram when the block is dropped
    (TrainingData.release_train_block), so the nested solves, their
    fallback and the learned tuning run from the moments alone. The
    Gram is allocated only then, after the fixed kinds. The test block
    is gathered after the TrainingData, with its cached moments and
    solves, has been released. So every frame is held in float64 at
    most once, and the train and test blocks never together. A run
    without learned kinds builds no moments, and a shuffle starts no
    thread. sets keep run.kinds order.
    """
    split = split_dataset(images.shape[0], seed=split_seed)
    train = gather_frames(images, split.train_idx)
    stats = fit_stats(train)
    apply_stats(train, stats, out=train)
    train_labels = labels[split.train_idx]
    sums = label_sums(train, train_labels)
    geometry = locate_sites(mean_image(train), sums.difference_images())
    val = gather_frames(images, split.val_idx)
    data = TrainingData(
        train_images=train,
        train_labels=train_labels,
        val_images=apply_stats(val, stats, out=val),
        val_labels=labels[split.val_idx],
        geometry=geometry,
    )
    del train, val
    grids = (run.s_grid, theta_grid_default(*run.theta_grid), run.alpha)
    sets = {kind: train_all_sites(data, kind, *grids) for kind in run.kinds if kind not in LEARNED_KINDS}
    learned = [kind for kind in run.kinds if kind in LEARNED_KINDS]
    if learned:
        data.release_train_block(sums)
        sets |= {kind: train_all_sites(data, kind, *grids) for kind in learned}
    sets = {kind: sets[kind] for kind in run.kinds}
    del data
    test = gather_frames(images, split.test_idx)
    reports = _evaluate_sets(sets, apply_stats(test, stats, out=test), labels[split.test_idx])
    return split, stats, geometry, sets, reports


def _evaluate_sets(sets: dict, images, labels) -> dict:
    """{kind: MetricsReport} of every model set on one labeled stack, each
    set classified once: every kind but the gaussian gets its eta from
    the gaussian report."""
    base = evaluate(sets["gaussian"], images, labels) if "gaussian" in sets else None
    return {
        kind: base if kind == "gaussian" else evaluate(model_set, images, labels, base)
        for kind, model_set in sets.items()
    }


def _stderr(vals) -> float:
    # single-shuffle runs have no spread to report
    return 0.0 if len(vals) < 2 else standard_error(vals)


def report_rows(per_kind: dict):
    """Fidelity, cross-fidelity and reduction CSV rows, 1-based, of
    {kind: [MetricsReport per shuffle]} in the dict's kind order: shuffle
    means and standard errors (0 for one report), and eta rows for each
    kind whose reports carry an eta."""
    fid_rows, cross_rows, red_rows = [], [], []
    for kind, reps in per_kind.items():
        fids = np.array([r.fidelities for r in reps])
        for s in range(fids.shape[1]):
            fid_rows.append((s + 1, kind, float(fids[:, s].mean()), _stderr(fids[:, s])))
        for j, (k, l) in enumerate(reps[0].cross_pairs):
            vals = [r.cross_values[j] for r in reps if r.cross_values[j] is not None]
            if vals:
                cross_rows.append((k + 1, l + 1, kind, float(np.mean(vals)), _stderr(vals)))
            else:
                cross_rows.append((k + 1, l + 1, kind, None, None))
        if reps[0].eta_vs_baseline is not None:
            for s in range(fids.shape[1]):
                vals = [
                    r.eta_vs_baseline[s] for r in reps if r.eta_vs_baseline[s] is not None
                ]
                red_rows.append((s + 1, kind, float(np.mean(vals)) if vals else None))
    return fid_rows, cross_rows, red_rows


def _holdout_rows(run: RunConfig, exposure: float, sim_e: SimConfig, cache_dir, stats0, sets0):
    """Cross-fidelities of the shuffle-0 models on a fresh held-out stack.

    Cross-fidelity only reads predictions, so the held-out stack keeps its
    exact truth labels and skips the second-path render. The stack is
    normalized and classified block by block, so no more than one block's
    frames are held in float64; apply_stats is elementwise and each
    frame's readout is independent of its block, so the predictions are
    those of the normalized whole stack.
    """
    sim_h = replace(
        sim_e,
        n_images=run.crossfid_frames,
        seed=derive_seed(run.seed, "crossfid", repr(float(exposure))),
    )
    stack, labels = load_or_generate(sim_h, "truth", cache_dir)
    if run.crop is not None:
        stack = crop(stack, *run.crop)
    models = {kind: model_set.ordered() for kind, model_set in sets0.items()}
    preds = {kind: np.empty((len(labels), len(m)), dtype=np.uint8) for kind, m in models.items()}
    for lo, hi in frame_blocks(len(labels)):
        norm = apply_stats(stack.images[lo:hi], stats0)
        for kind in models:
            preds[kind][lo:hi] = classify_stack(models[kind], norm)
    reports = {kind: [evaluate_predictions(model_set, preds[kind], labels)] for kind, model_set in sets0.items()}
    return report_rows(reports)[1]


def run_pipeline(run: RunConfig) -> SweepReport:
    """Execute the sweep described by run and write all artifacts.

    Layout under run.output_dir:
      run_config.json          echo of the configuration
      cache/                   generated datasets, keyed by content hash
      exp_<E>ms/               per exposure:
        models/                  shuffle-0 tuned models, one JSON per site
        geometry.json, stats.json, audit.json
        fidelity.csv, crossfidelity.csv, reduction.csv
        crossfidelity_holdout.csv   when crossfid_frames > 0
      sweep.csv, sweep.svg     aggregate, rewritten after each exposure

    Reruns with an identical RunConfig rewrite every artifact with the
    same bytes. audit.json records each shuffle's train/val/test index
    partition; training and tuning never see the test block. The heap the
    sweep freed goes back to the operating system before it returns.
    """
    try:
        return _sweep(run)
    finally:
        release_free_heap()


def _sweep(run: RunConfig) -> SweepReport:
    """The body of run_pipeline: every exposure, shuffle and artifact.

    An exposure's frames are held only through its shuffles: they are
    dropped before its held-out stage loads the held-out stack, so the two
    stacks are never resident together.
    """
    out_dir = Path(run.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = out_dir / "cache"
    run.save(out_dir / "run_config.json")

    sweep_rows: list[SweepRow] = []
    for exposure in run.exposure_sweep_ms:
        sim_e = replace(
            run.sim,
            exposure_ms=float(exposure),
            seed=derive_seed(run.seed, "sim", repr(float(exposure))),
        )
        try:
            stack, labels = load_or_generate(sim_e, run.label_source, cache_dir)
            if run.crop is not None:
                stack = crop(stack, *run.crop)
        except MFReadoutError as exc:
            raise type(exc)(f"exposure {exposure:g} ms, dataset stage: {exc}") from exc

        exp_dir = out_dir / exposure_dir(exposure)
        exp_dir.mkdir(parents=True, exist_ok=True)
        audit = {
            "exposure_ms": float(exposure),
            "dataset_hash": dataset_cache_key(sim_e),
            "label_source": run.label_source,
            "shuffles": [],
        }
        per_kind = {kind: [] for kind in run.kinds}
        shuffle0 = None
        for i in range(run.n_shuffles):
            split_seed = derive_seed(run.seed, "split", repr(float(exposure)), i)
            try:
                split, stats, geometry, sets, reports = _one_shuffle(run, stack.images, labels, split_seed)
            except MFReadoutError as exc:
                raise type(exc)(
                    f"exposure {exposure:g} ms, shuffle {i} (split seed {split_seed}): {exc}"
                ) from exc
            audit["shuffles"].append({"shuffle": i, **split.to_dict()})
            for kind in run.kinds:
                per_kind[kind].append(reports[kind])
            if i == 0:
                shuffle0 = (stats, geometry, sets)
        del stack, labels

        stats0, geometry0, sets0 = shuffle0
        geometry0.save(exp_dir / "geometry.json")
        (exp_dir / "stats.json").write_text(canonical_json(stats0.to_dict()) + "\n")
        for kind in run.kinds:
            sets0[kind].save(exp_dir / "models")
        (exp_dir / "audit.json").write_text(canonical_json(audit) + "\n")

        fid_rows, cross_rows, red_rows = report_rows(per_kind)
        write_fidelity_csv(exp_dir / "fidelity.csv", fid_rows)
        write_crossfidelity_csv(exp_dir / "crossfidelity.csv", cross_rows)
        write_reduction_csv(exp_dir / "reduction.csv", red_rows)

        if run.crossfid_frames > 0:
            try:
                hold = _holdout_rows(run, exposure, sim_e, cache_dir, stats0, sets0)
            except MFReadoutError as exc:
                raise type(exc)(f"exposure {exposure:g} ms, held-out stage: {exc}") from exc
            write_crossfidelity_csv(exp_dir / "crossfidelity_holdout.csv", hold)

        for kind in run.kinds:
            vals = np.array([1.0 - r.mean_fidelity for r in per_kind[kind]])
            sweep_rows.append(
                SweepRow(float(exposure), kind, float(vals.mean()), _stderr(vals))
            )
        partial = SweepReport(rows=list(sweep_rows))
        write_sweep_csv(out_dir / "sweep.csv", partial)
        emit_svg(partial, out_dir / "sweep.svg")

    return SweepReport(rows=sweep_rows)
