"""Command line front end.

Subcommands cover the individual stages (simulate, preprocess, locate,
train, classify, evaluate, complexity) and the orchestrated runs (sweep,
plot). Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .filters import KINDS, FilterModel
from .locate import SiteGeometry, apply_stats, crop, fit_stats, locate_sites, mean_image
from .metrics import evaluate
from .pipeline import RunConfig, run_pipeline
from .qimg import read_stack, write_stack
from .report import (
    emit_svg,
    read_sweep_csv,
    write_complexity_csv,
    write_crossfidelity_csv,
    write_fidelity_csv,
    write_preds_csv,
    write_reduction_csv,
)
from .sim import (
    LabeledImageStack,
    SimConfig,
    crosstalk_config,
    default_config,
    generate_dataset,
    generate_label_path,
)
from .train import (
    TOKEN_KINDS,
    TrainingData,
    count_complexity,
    load_models,
    split_dataset,
    theta_grid_default,
    train_all_sites,
)

EXIT_CODES = ((ConfigError, 2), (DataError, 3), (NumericalError, 4))
PRESETS = {"default": default_config, "crosstalk": crosstalk_config}


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _read_stem(stem) -> LabeledImageStack:
    return read_stack(Path(f"{stem}.qimg"))


def _seed(args) -> int:
    return 0 if args.seed is None else args.seed


def _labels_for(stack: LabeledImageStack, source: str) -> np.ndarray:
    """Training/evaluation labels for a stack read back from disk.

    The second-path render only needs the config echo and the true states,
    both of which travel in the sidecar, so labels can be rebuilt for any
    stack, cropped or not.
    """
    if source == "truth":
        return stack.truth
    return generate_label_path(stack.config, stack.truth)


def _parse_crop(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--crop wants r,c,h,w, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--crop wants integers, got {text!r}") from exc


def _parse_s_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(p) for p in text.split(",") if p)
    except ValueError as exc:
        raise ConfigError(f"--s-grid wants a comma list of integers, got {text!r}") from exc
    if not grid:
        raise ConfigError("--s-grid is empty")
    return grid


def _parse_theta(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--theta wants lo:hi:step, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--theta wants numbers, got {text!r}") from exc


def cmd_simulate(args) -> int:
    if args.config:
        config = SimConfig.from_dict(_load_json(args.config))
    else:
        config = PRESETS[args.preset]()
    overrides = {}
    if args.exposure_ms is not None:
        overrides["exposure_ms"] = args.exposure_ms
    if args.n_images is not None:
        overrides["n_images"] = args.n_images
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = replace(config, **overrides)
    stack = generate_dataset(config)
    write_stack(Path(f"{args.out}.qimg"), stack)
    print(f"wrote {stack.n_images} frames ({config.image_height}x{config.image_width}) to {args.out}.qimg")
    return 0


def cmd_preprocess(args) -> int:
    stack = _read_stem(args.in_stem)
    if args.crop:
        stack = crop(stack, *_parse_crop(args.crop))
    split = split_dataset(stack.n_images, seed=_seed(args))
    stats = fit_stats(stack.images[split.train_idx])
    norm = apply_stats(stack.images, stats).astype(np.float32)
    write_stack(Path(f"{args.out}.qimg"), LabeledImageStack(norm, stack.truth, stack.config))
    stats_path = args.stats_out or f"{args.out}_stats.json"
    payload = {
        "stats": stats.to_dict(),
        "split_seed": _seed(args),
        "crop": None if not args.crop else list(_parse_crop(args.crop)),
    }
    with open(stats_path, "w") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")
    print(f"preprocessed {stack.n_images} frames -> {args.out}.qimg (stats: {stats_path})")
    return 0


def cmd_locate(args) -> int:
    stack = _read_stem(args.in_stem)
    split = split_dataset(stack.n_images, seed=_seed(args))
    geometry = locate_sites(mean_image(stack.images[split.train_idx]), args.sites)
    for i, used in enumerate(geometry.fallbacks):
        if used:
            print(f"warning: site {i + 1}: per-site refit did not confirm the joint fit", file=sys.stderr)
    geometry.save(args.out)
    print(f"located {geometry.n_sites} sites -> {args.out}")
    return 0


def cmd_train(args) -> int:
    stack = _read_stem(args.in_stem)
    labels = _labels_for(stack, args.labels)
    split = split_dataset(stack.n_images, seed=_seed(args))
    geometry = SiteGeometry.load(args.geometry)
    data = TrainingData(
        train_images=stack.images[split.train_idx],
        train_labels=labels[split.train_idx],
        val_images=stack.images[split.val_idx],
        val_labels=labels[split.val_idx],
        geometry=geometry,
    )
    s_grid = None if args.s_grid is None else _parse_s_grid(args.s_grid)
    theta_grid = None if args.theta is None else theta_grid_default(*_parse_theta(args.theta))
    model_set = train_all_sites(data, TOKEN_KINDS[args.kind], s_grid, theta_grid, args.alpha)
    for site, reason in sorted(model_set.failures.items()):
        print(f"warning: site {site + 1} failed to train: {reason}", file=sys.stderr)
    paths = model_set.save(args.out)
    print(f"wrote {len(paths)} {args.kind} models to {args.out}")
    return 0


def cmd_classify(args) -> int:
    try:
        with open(args.model) as f:
            model = FilterModel.from_dict(json.load(f))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read model {args.model}: {exc}") from exc
    stack = _read_stem(args.in_stem)
    scores = model.scores(stack.images)
    rows = [
        (i + 1, model.site + 1, float(scores[i]), int(scores[i] >= model.theta))
        for i in range(scores.size)
    ]
    write_preds_csv(args.out, rows)
    print(f"classified {scores.size} frames with {model.kind} site {model.site + 1} -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    sets = load_models(args.models)
    stack = _read_stem(args.in_stem)
    labels = _labels_for(stack, args.labels)
    baseline = None
    if args.baseline:
        base_sets = load_models(args.baseline)
        if "gaussian" in base_sets:
            baseline = base_sets["gaussian"]
        elif len(base_sets) == 1:
            baseline = next(iter(base_sets.values()))
        else:
            raise ConfigError(
                f"baseline dir {args.baseline} holds {sorted(base_sets)}; "
                "need a gaussian set or a single kind"
            )
    base_report = None if baseline is None else evaluate(baseline, stack.images, labels)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fid_rows, cross_rows, red_rows = [], [], []
    for kind in KINDS:
        if kind not in sets:
            continue
        report = evaluate(sets[kind], stack.images, labels, base_report)
        for s, f in enumerate(report.fidelities):
            fid_rows.append((s + 1, kind, float(f), 0.0))
        for (k, l), v in zip(report.cross_pairs, report.cross_values):
            cross_rows.append((k + 1, l + 1, kind, v, 0.0 if v is not None else None))
        if report.eta_vs_baseline is not None:
            for s, eta in enumerate(report.eta_vs_baseline):
                red_rows.append((s + 1, kind, eta))
        print(f"{kind}: mean fidelity {report.mean_fidelity:.6f}")
    write_fidelity_csv(out_dir / "fidelity.csv", fid_rows)
    write_crossfidelity_csv(out_dir / "crossfidelity.csv", cross_rows)
    write_reduction_csv(out_dir / "reduction.csv", red_rows)
    print(f"wrote report to {out_dir}")
    return 0


def cmd_complexity(args) -> int:
    sets = load_models(args.models)
    rows = []
    for kind in KINDS:
        if kind not in sets:
            continue
        counts = count_complexity(sets[kind])
        rows.append(
            (kind, counts["n_trainable"], counts["n_multiplications"], counts["n_nonlinear"])
        )
        print(
            f"{kind}: {counts['n_trainable']} trainable, "
            f"{counts['n_multiplications']} multiplications, "
            f"{counts['n_nonlinear']} nonlinear"
        )
    write_complexity_csv(args.out, rows)
    return 0


def cmd_sweep(args) -> int:
    run = RunConfig.from_dict(_load_json(args.config))
    if args.out:
        run = replace(run, output_dir=args.out)
    if args.seed is not None:
        run = replace(run, seed=args.seed)
    report = run_pipeline(run)
    for row in report.rows:
        print(
            f"{row.exposure_ms:g} ms {row.kind}: "
            f"infidelity {row.mean_infidelity:.5f} +- {row.stderr:.5f}"
        )
    print(f"artifacts in {run.output_dir}")
    return 0


def cmd_plot(args) -> int:
    emit_svg(read_sweep_csv(args.in_csv), args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="base seed (default 0)")

    parser = argparse.ArgumentParser(
        prog="mf-readout",
        description="Matched-filter state readout on synthetic fluorescence images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="render a labeled image stack")
    p.add_argument("--config", help="SimConfig JSON file (default: built-in preset)")
    p.add_argument("--preset", choices=sorted(PRESETS), default="default")
    p.add_argument("--exposure-ms", type=float, default=None)
    p.add_argument("--n-images", type=int, default=None)
    p.add_argument("--out", required=True, help="output stem; writes <stem>.qimg + <stem>.json")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("preprocess", parents=[common], help="crop and normalize a stack")
    p.add_argument("--in", dest="in_stem", required=True, help="input stem")
    p.add_argument("--crop", default=None, help="r,c,h,w rectangle")
    p.add_argument("--out", required=True, help="output stem")
    p.add_argument("--stats-out", default=None, help="stats JSON path (default <out>_stats.json)")
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("locate", parents=[common], help="fit site centers from the mean image")
    p.add_argument("--in", dest="in_stem", required=True)
    p.add_argument("--sites", type=int, required=True, help="expected number of sites")
    p.add_argument("--out", required=True, help="geometry JSON path")
    p.set_defaults(fn=cmd_locate)

    p = sub.add_parser("train", parents=[common], help="tune one filter kind for every site")
    p.add_argument("--in", dest="in_stem", required=True)
    p.add_argument("--kind", choices=sorted(TOKEN_KINDS), required=True)
    p.add_argument("--geometry", required=True)
    p.add_argument("--alpha", type=float, default=0.0, help="ridge strength")
    p.add_argument("--labels", choices=("label", "truth"), default="label")
    p.add_argument("--s-grid", default=None, help="comma list of window sizes")
    p.add_argument("--theta", default=None, help="lo:hi:step threshold grid")
    p.add_argument("--out", required=True, help="model output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("classify", parents=[common], help="score a stack with one model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--in", dest="in_stem", required=True)
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("evaluate", parents=[common], help="fidelity report for trained models")
    p.add_argument("--models", required=True, help="directory of model JSON files")
    p.add_argument("--in", dest="in_stem", required=True)
    p.add_argument("--baseline", default=None, help="baseline model directory (for eta)")
    p.add_argument("--labels", choices=("label", "truth"), default="label")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("complexity", parents=[common], help="parameter and operation counts")
    p.add_argument("--models", required=True)
    p.add_argument("--out", required=True, help="complexity CSV path")
    p.set_defaults(fn=cmd_complexity)

    p = sub.add_parser("sweep", parents=[common], help="run the full exposure sweep")
    p.add_argument("--config", required=True, help="RunConfig JSON file")
    p.add_argument("--out", default=None, help="override output_dir")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("plot", parents=[common], help="re-render the sweep chart from its CSV")
    p.add_argument("--in", dest="in_csv", required=True, help="sweep.csv path")
    p.add_argument("--out", required=True, help="SVG path")
    p.set_defaults(fn=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cls, code in EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 1  # unreachable


if __name__ == "__main__":
    sys.exit(main())
