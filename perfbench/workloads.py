"""The three readout-study workloads: set-up, timed part and checks.

sweep-warm   run_pipeline on the default preset with its dataset cache
             filled in set-up: the criterion-7 study a user reruns after
             changing model settings. Nearly all time is tuning; nothing
             is rendered.
sweep-cold   run_pipeline on the crosstalk preset from an empty cache, with
             second-path labels and a held-out cross-fidelity stack: the
             first run of a study. Rendering, the label path and the cache
             writes dominate.
readout      trained filters reading out a fresh held-out stack: read it,
             normalize it, classify one frame at a time, then evaluate the
             whole stack per kind. Set-up trains the filters.

Every call into mf_readout goes through a module attribute looked up at
call time, so the traced run sees the same calls the untraced run makes.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import mf_readout.filters as filters
import mf_readout.locate as locate
import mf_readout.metrics as metrics
import mf_readout.pipeline as pipeline
import mf_readout.qimg as qimg
import mf_readout.sim as sim
import mf_readout.train as train
from mf_readout.util import derive_seed

KINDS = filters.KINDS


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; the smoke sizes only check plumbing."""

    warm_frames: int
    cold_frames: int
    cold_holdout: int
    readout_train_frames: int
    readout_frames: int
    single_frames: int
    s_grid: tuple[int, ...] | None


FULL = Sizes(
    warm_frames=3000,
    cold_frames=6000,
    cold_holdout=4000,
    readout_train_frames=6000,
    readout_frames=10000,
    single_frames=1000,
    s_grid=None,
)
SMOKE = Sizes(
    warm_frames=400,
    cold_frames=2000,
    cold_holdout=1500,
    readout_train_frames=2000,
    readout_frames=400,
    single_frames=40,
    s_grid=(3, 5, 7),
)


@dataclass
class Outcome:
    """Operations attempted and failed in one timed iteration, plus why."""

    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class ReadoutResult:
    """One pass of one-frame and batched readout over a normalized stack."""

    n_frames: int
    latencies: dict[str, np.ndarray]
    singles: dict[str, np.ndarray]
    evaluate_s: dict[str, float]
    reports: dict


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def file_stamps(root: Path) -> dict[str, tuple[int, int]]:
    """(mtime in ns, size) of every file under root: a rewrite shows even
    when it writes the same bytes."""
    return {str(p.relative_to(root)): (p.stat().st_mtime_ns, p.stat().st_size) for p in root.rglob("*") if p.is_file()}


def describe_error(exc: BaseException) -> str:
    last = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__} at {Path(last.filename).name}:{last.lineno}: {exc}"


@contextlib.contextmanager
def observe_fits(log: list):
    """Collect every ModelSet that run_pipeline trains, for the fit count."""
    inner = pipeline.train_all_sites

    @functools.wraps(inner)
    def observed(*args, **kwargs):
        model_set = inner(*args, **kwargs)
        log.append(model_set)
        return model_set

    pipeline.train_all_sites = observed
    try:
        yield log
    finally:
        pipeline.train_all_sites = inner


def readout_pass(sets: dict, norm: np.ndarray, labels: np.ndarray, n_single: int, tracer, eval_repeats: int = 1) -> ReadoutResult:
    """One-frame classify_stack calls per kind, then evaluate per kind.

    The one-frame calls cycle over the stack when it has fewer frames than
    n_single; each is timed on its own. evaluate_s is the median of
    eval_repeats batched evaluations.
    """
    idx = np.arange(n_single) % norm.shape[0]
    latencies, singles = {}, {}
    for kind in KINDS:
        models = sets[kind].ordered()
        lat = np.empty(n_single)
        preds = np.empty((n_single, len(models)), dtype=np.uint8)
        for j, i in enumerate(idx):
            frame = norm[i]
            t0 = time.perf_counter()
            pred = filters.classify_stack(models, frame)
            t1 = time.perf_counter()
            tracer.record("filters.classify_stack.one_frame", "filters", t0, t1, tag=kind, frames=1)
            lat[j] = t1 - t0
            preds[j] = pred[0]
        latencies[kind], singles[kind] = lat, preds
    evaluate_s, reports = {}, {}
    for kind in KINDS:
        times = []
        for _ in range(eval_repeats):
            t0 = time.perf_counter()
            reports[kind] = tracer.call(metrics.evaluate, sets[kind], norm, labels)
            times.append(time.perf_counter() - t0)
        evaluate_s[kind] = float(np.median(times))
    return ReadoutResult(norm.shape[0], latencies, singles, evaluate_s, reports)


def one_frame_mismatches(result: ReadoutResult, sets: dict, norm: np.ndarray) -> dict[str, int]:
    """Frames whose one-frame prediction differs from the batched one, per kind."""
    n_single = next(iter(result.singles.values())).shape[0]
    idx = np.arange(n_single) % norm.shape[0]
    out = {}
    for kind, single in result.singles.items():
        batched = filters.classify_stack(sets[kind].ordered(), norm[idx])
        out[kind] = int(np.any(batched != single, axis=1).sum())
    return out


def mismatch_outcome(mismatches: dict[str, int], ops: int) -> Outcome:
    outcome = Outcome(ops=ops, failed=sum(mismatches.values()))
    for kind, n in mismatches.items():
        if n:
            outcome.problems.append(f"{kind}: {n} one-frame predictions differ from the batched ones")
    return outcome


def readout_figures(readouts: list[ReadoutResult]) -> dict:
    """mf-array one-frame latency percentiles and batched throughput.

    Throughput is every frame evaluated over the time the evaluations
    took, all four kinds, summed over the readout passes of the run.
    """
    lat = np.concatenate([r.latencies["mf-array"] for r in readouts])
    frames = sum(r.n_frames for r in readouts)
    seconds = sum(sum(r.evaluate_s.values()) for r in readouts)
    note = f"mf-array, one-frame classify_stack, n={lat.size}"
    return {
        "frame_latency_p50_us": (1e6 * float(np.percentile(lat, 50)), "us", note),
        "frame_latency_p99_us": (1e6 * float(np.percentile(lat, 99)), "us", note),
        "readout_frames_per_s": (frames / seconds, "1/s", f"{frames} frames evaluated with each of the four kinds"),
    }


def load_trained(exp_dir: Path) -> tuple[dict, locate.PreprocessStats, str]:
    """Shuffle-0 model sets, normalization and dataset hash of one exposure."""
    sets = train.load_models(exp_dir / "models")
    stats = locate.PreprocessStats.from_dict(json.loads((exp_dir / "stats.json").read_text()))
    dataset_hash = json.loads((exp_dir / "audit.json").read_text())["dataset_hash"]
    return sets, stats, dataset_hash


def cnn_crossfid(rows: list[dict], kind: str, n_rows: int, n_cols: int) -> float:
    """Mean |F_CF| over the center-to-nearest-neighbor rows of one kind."""
    pairs = {(k + 1, l + 1) for k, l in metrics.cnn_pairs(n_rows, n_cols)}
    vals = [abs(float(r["F_CF"])) for r in rows if r["kind"] == kind and (int(r["k"]), int(r["l"])) in pairs]
    return float(np.mean(vals))


class Workload:
    """Set-up, one timed iteration, and a readout probe of what it trained."""

    name = ""

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.first_tree: dict[str, str] | None = None

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def iterate(self, tracer) -> tuple[float, Outcome]:
        raise NotImplementedError

    def readouts(self, tracer) -> tuple[list[ReadoutResult], Outcome]:
        """One-frame and batched readouts with the filters the workload trained."""
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        """Mean infidelity per kind of the last iteration."""
        raise NotImplementedError

    def trained_sets(self) -> dict:
        raise NotImplementedError

    def _same_tree(self, root: Path, outcome: Outcome) -> None:
        """Every iteration must leave byte-identical artifacts."""
        tree = tree_digests(root)
        if self.first_tree is None:
            self.first_tree = tree
            return
        differ = sorted(k for k in set(tree) | set(self.first_tree) if tree.get(k) != self.first_tree.get(k))
        if differ:
            outcome.problems.append(f"output_dir differs between repetitions: {differ[:5]}")


class Sweep(Workload):
    """Shared timed part of the two sweeps: one run_pipeline call."""

    def run_config(self) -> pipeline.RunConfig:
        raise NotImplementedError

    report = None  # SweepReport of the last iteration that completed

    def _sweep(self, tracer):
        run = self.run_config()
        n_sites = run.sim.geometry.n_sites
        expected = len(run.exposure_sweep_ms) * run.n_shuffles * len(run.kinds) * n_sites
        outcome = Outcome(ops=expected)
        log: list = []
        report = None
        t0 = time.perf_counter()
        try:
            with tracer.root("iteration"), observe_fits(log):
                report = tracer.call(pipeline.run_pipeline, run)
        except Exception as exc:  # the run is reported as failed, not aborted
            outcome.problems.append(describe_error(exc))
        wall = time.perf_counter() - t0
        fitted = sum(ms.n_sites - len(ms.failures) for ms in log)
        outcome.failed = max(expected - fitted, 0)
        for ms in log:
            if ms.failures:
                outcome.problems.append(f"{ms.kind}: failed sites {sorted(ms.failures)}")
        if report is not None:
            self.report = report
        return wall, outcome, report

    def quality(self) -> dict[str, float]:
        return mean_infidelity(self.report)

    def last_exposure_dir(self) -> Path:
        run = self.run_config()
        return Path(run.output_dir) / f"exp_{run.exposure_sweep_ms[-1]:g}ms"

    def trained_sets(self) -> dict:
        return load_trained(self.last_exposure_dir())[0]

    def readouts(self, tracer) -> tuple[list[ReadoutResult], Outcome]:
        """Read out the last exposure's dataset with its shuffle-0 filters.

        The batched evaluate is short on a sweep-sized stack, so it is
        repeated and its median taken.
        """
        sets, stats, dataset_hash = load_trained(self.last_exposure_dir())
        cache = Path(self.run_config().output_dir) / "cache"
        stack = tracer.call(qimg.read_stack, cache / f"{dataset_hash}.qimg")
        norm = tracer.call(locate.apply_stats, stack.images, stats)
        result = readout_pass(sets, norm, stack.truth, self.sizes.single_frames, tracer, eval_repeats=3)
        return [result], mismatch_outcome(one_frame_mismatches(result, sets, norm), ops=0)


class SweepWarm(Sweep):
    name = "sweep-warm"

    def run_config(self) -> pipeline.RunConfig:
        return pipeline.RunConfig(
            sim=sim.default_config(n_images=self.sizes.warm_frames, seed=self.seed),
            output_dir=str(self.work / "run"),
            exposure_sweep_ms=(10.0, 40.0),
            n_shuffles=2,
            label_source="truth",
            s_grid=self.sizes.s_grid,
            seed=self.seed,
        )

    def setup(self, tracer) -> None:
        """Fill the dataset cache through the pipeline's own cache path."""
        fresh_dir(self.work / "run")
        self.first_tree = None
        fill = replace(self.run_config(), kinds=("square",), n_shuffles=1)
        tracer.call(pipeline.run_pipeline, fill)

    def iterate(self, tracer) -> tuple[float, Outcome]:
        cache = Path(self.run_config().output_dir) / "cache"
        before = file_stamps(cache)
        wall, outcome, report = self._sweep(tracer)
        if file_stamps(cache) != before:
            outcome.problems.append("a dataset was regenerated: the cache was not hit")
        if report is not None:
            outcome.problems.extend(monotone_violations(report))
        self._same_tree(self.work / "run", outcome)
        return wall, outcome


def mean_infidelity(report) -> dict[str, float]:
    """Mean over the sweep rows, per kind."""
    return {kind: float(np.mean([r.mean_infidelity for r in report.rows if r.kind == kind])) for kind in KINDS}


def monotone_violations(report) -> list[str]:
    """Criterion 7: infidelity falls with exposure, one tolerated inversion."""
    violations, inversions = [], 0
    for kind in report.kinds():
        rows = sorted((r for r in report.rows if r.kind == kind), key=lambda r: r.exposure_ms)
        for a, b in zip(rows, rows[1:]):
            rise = b.mean_infidelity - a.mean_infidelity
            if rise <= 0:
                continue
            if rise <= 2.0 * max(a.stderr, b.stderr):
                inversions += 1
            else:
                violations.append(f"{kind}: infidelity rises {rise:.3g} from {a.exposure_ms:g} to {b.exposure_ms:g} ms")
    if inversions > 1:
        violations.append(f"{inversions} tolerated inversions, at most 1 allowed")
    return violations


class SweepCold(Sweep):
    name = "sweep-cold"

    def run_config(self) -> pipeline.RunConfig:
        return pipeline.RunConfig(
            sim=sim.crosstalk_config(n_images=self.sizes.cold_frames, seed=self.seed),
            output_dir=str(self.work / "run"),
            exposure_sweep_ms=(47.0,),
            n_shuffles=1,
            label_source="label",
            s_grid=self.sizes.s_grid,
            crossfid_frames=self.sizes.cold_holdout,
            seed=self.seed,
        )

    def setup(self, tracer) -> None:
        """An empty work directory, and a small sweep that warms code paths.

        The warm-up uses the default preset, whose sites locate reliably
        from a few hundred frames; the crosstalk preset's do not.
        """
        fresh_dir(self.work)
        self.first_tree = None
        warm = replace(
            self.run_config(),
            sim=sim.default_config(n_images=1000, exposure_ms=47.0, seed=self.seed),
            output_dir=str(self.work / "warmup"),
            s_grid=(3,),
            crossfid_frames=500,
        )
        tracer.call(pipeline.run_pipeline, warm)
        shutil.rmtree(self.work / "warmup")

    def iterate(self, tracer) -> tuple[float, Outcome]:
        fresh_dir(self.work / "run")
        wall, outcome, report = self._sweep(tracer)
        if report is not None:
            inf = mean_infidelity(report)
            if not inf["mf-array"] < inf["gaussian"]:
                outcome.problems.append(
                    f"mf-array infidelity {inf['mf-array']:.4g} is not below gaussian's {inf['gaussian']:.4g}"
                )
            geom = self.run_config().sim.geometry
            with open(self.last_exposure_dir() / "crossfidelity_holdout.csv") as f:
                rows = list(csv.DictReader(f))
            cf = {kind: cnn_crossfid(rows, kind, geom.rows, geom.cols) for kind in ("mf-array", "gaussian")}
            if not cf["mf-array"] < cf["gaussian"]:
                outcome.problems.append(
                    f"held-out mf-array |F_CF| {cf['mf-array']:.4g} is not below gaussian's {cf['gaussian']:.4g}"
                )
        self._same_tree(self.work / "run", outcome)
        return wall, outcome


class Readout(Workload):
    name = "readout"

    def setup(self, tracer) -> None:
        """Train all four kinds on a crosstalk stack; write a fresh held-out stack."""
        fresh_dir(self.work)
        base = sim.crosstalk_config(n_images=self.sizes.readout_train_frames, seed=self.seed)
        run = pipeline.RunConfig(
            sim=base,
            output_dir=str(self.work / "train"),
            exposure_sweep_ms=(base.exposure_ms,),
            n_shuffles=1,
            label_source="truth",
            s_grid=self.sizes.s_grid,
            seed=self.seed,
        )
        tracer.call(pipeline.run_pipeline, run)
        exp_dir = Path(run.output_dir) / f"exp_{base.exposure_ms:g}ms"
        self.sets, self.stats, _ = load_trained(exp_dir)
        held = replace(base, n_images=self.sizes.readout_frames, seed=derive_seed(self.seed, "readout"))
        stack = tracer.call(sim.generate_dataset, held)
        self.stack_path = self.work / "heldout.qimg"
        tracer.call(qimg.write_stack, self.stack_path, stack)
        self.results: list[ReadoutResult] = []

    def iterate(self, tracer) -> tuple[float, Outcome]:
        t0 = time.perf_counter()
        with tracer.root("iteration"):
            stack = tracer.call(qimg.read_stack, self.stack_path)
            norm = tracer.call(locate.apply_stats, stack.images, self.stats)
            result = readout_pass(self.sets, norm, stack.truth, self.sizes.single_frames, tracer)
        wall = time.perf_counter() - t0
        self.results.append(result)
        ops = self.sizes.single_frames * len(KINDS)
        return wall, mismatch_outcome(one_frame_mismatches(result, self.sets, norm), ops)

    def readouts(self, tracer) -> tuple[list[ReadoutResult], Outcome]:
        return self.results, Outcome()

    def quality(self) -> dict[str, float]:
        return {kind: 1.0 - self.results[-1].reports[kind].mean_fidelity for kind in KINDS}

    def trained_sets(self) -> dict:
        return self.sets


WORKLOADS = {w.name: w for w in (SweepWarm, SweepCold, Readout)}
