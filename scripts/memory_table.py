"""Peak memory of one pipeline shuffle, stage by stage.

    python3 scripts/memory_table.py
    python3 scripts/memory_table.py --rows crosstalk-6000 8x8

Run it from the root of a checkout; it imports mf_readout from ./src.
Each row is one pipeline._one_shuffle (dataset seed 0, split seed 0,
true-state labels, the four kinds, the default grids) on a float32 stack
read back from a qimg file, as a sweep reads its cached stacks. Rows: the
default and crosstalk presets at 3000 and 6000 frames, and 3 x 3, 5 x 5
and 8 x 8 arrays (6 px pitch, first site at (8, 8), the default optics,
frames of (16 + 6(n - 1))^2 pixels, 3000 frames).

Every row renders its stack in one process and measures it in another,
so that the peak RSS is the shuffle's own, not the renderer's. The
measuring process reads the stack, runs the shuffle once untraced and
prints ru_maxrss before and after it. It then runs the shuffle again
under tracemalloc and prints the traced peak of each stage: normalize
(fit_stats and every apply_stats), locate (mean_image, label_sums,
whose column and label sums serve localization and the moments alike,
and locate_sites), moments (TrainingData.release_train_block, which
allocates the learned kinds' pixel Gram after the fixed kinds, completes
the moments from it and the sums and frees the float64 train block),
train (the largest train_all_sites call) and evaluate (_evaluate_sets),
and the whole shuffle's peak, in MB and as a multiple of the stack's
float64 size. The Gram is held from the moments stage on, so the train
stage counts it too. Traced figures leave out the float32 stack itself,
which is allocated before tracing starts. One BLAS thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
ROWS = ("default-3000", "default-6000", "crosstalk-3000", "crosstalk-6000", "3x3", "5x5", "8x8")
STAGES = ("normalize", "locate", "moments", "train", "evaluate")
MB = 2.0**20


def sim_config(row: str):
    """The SimConfig of one row: a preset at a frame count, or an n x n array."""
    from dataclasses import replace

    from mf_readout.sim import crosstalk_config, default_config, default_geometry

    preset, _, frames = row.partition("-")
    if frames:
        return {"default": default_config, "crosstalk": crosstalk_config}[preset](n_images=int(frames), seed=0)
    n = int(preset.split("x")[0])
    size = 16 + 6 * (n - 1)
    geometry = replace(default_geometry(), rows=n, cols=n)
    return default_config(geometry=geometry, image_height=size, image_width=size, n_images=3000, seed=0)


def stage_functions() -> dict:
    """Stage name -> the functions it wraps, read as attributes of the
    pipeline module, so that a renamed one fails the scripts' name check
    (tests/test_scripts.py) rather than this script."""
    import mf_readout.pipeline as pipeline

    return {
        "normalize": (pipeline.fit_stats, pipeline.apply_stats),
        "locate": (pipeline.mean_image, pipeline.label_sums, pipeline.locate_sites),
        "moments": (pipeline.TrainingData.release_train_block,),
        "train": (pipeline.train_all_sites,),
        "evaluate": (pipeline._evaluate_sets,),
    }


def render(row: str, path: Path) -> None:
    from mf_readout import generate_dataset, write_stack

    write_stack(path, generate_dataset(sim_config(row)))


def traced_stages(pipeline, shuffle) -> dict[str, int]:
    """Traced peak in bytes of each stage of one shuffle, and of the whole.

    Each stage function is rebound where the pipeline reaches it, in the
    pipeline module or, for a method, on its class (the path its
    qualified name gives), for the call and restored afterwards. Each
    stage's peak is taken from a peak reset at its start, so it counts
    what the shuffle already held.
    """
    import tracemalloc

    peaks = dict.fromkeys([*STAGES, "shuffle"], 0)

    def wrap(stage, inner):
        def traced(*args, **kwargs):
            peaks["shuffle"] = max(peaks["shuffle"], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            try:
                return inner(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                peaks[stage] = max(peaks[stage], peak)
                peaks["shuffle"] = max(peaks["shuffle"], peak)

        return traced

    def owner(fn):
        *path, attr = fn.__qualname__.split(".")
        obj = pipeline
        for part in path:
            obj = getattr(obj, part)
        return obj, attr

    originals = {}
    for stage, fns in stage_functions().items():
        for fn in fns:
            originals[fn] = owner(fn)
            setattr(*originals[fn], wrap(stage, fn))
    tracemalloc.start()
    try:
        shuffle()
        peaks["shuffle"] = max(peaks["shuffle"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        for fn, (obj, attr) in originals.items():
            setattr(obj, attr, fn)
    return peaks


def measure(row: str, path: Path) -> dict:
    import resource

    import mf_readout.pipeline as pipeline
    from mf_readout import read_stack

    def maxrss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stack = read_stack(path)
    sim = stack.config
    run = pipeline.RunConfig(
        sim=sim, output_dir=str(path.parent), exposure_sweep_ms=(sim.exposure_ms,), label_source="truth"
    )

    def shuffle():
        pipeline._one_shuffle(run, stack.images, stack.truth, 0)

    before = maxrss_mb()
    shuffle()
    after = maxrss_mb()
    peaks = traced_stages(pipeline, shuffle)
    return {
        "row": row,
        "frame": f"{sim.image_height}x{sim.image_width}",
        "stack_f64_mb": stack.images.size * 8 / MB,
        "maxrss_before_mb": before,
        "maxrss_after_mb": after,
        **{f"{name}_mb": value / MB for name, value in peaks.items()},
    }


def print_row(r: dict) -> None:
    stages = "  ".join(f"{r[f'{s}_mb']:7.1f}" for s in STAGES)
    ratio = r["shuffle_mb"] / r["stack_f64_mb"]
    print(
        f"{r['row']:15s} {r['frame']:6s} {r['stack_f64_mb']:7.1f}  {r['maxrss_before_mb']:7.1f}"
        f"  {r['maxrss_after_mb']:7.1f}  {stages}  {r['shuffle_mb']:7.1f} {ratio:5.2f}x",
        flush=True,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", nargs="+", choices=ROWS, default=ROWS, help="rows to measure, in order")
    ap.add_argument("--render", nargs=2, metavar=("ROW", "PATH"), help=argparse.SUPPRESS)
    ap.add_argument("--measure", nargs=2, metavar=("ROW", "PATH"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.render or args.measure:
        sys.path.insert(0, str(SRC))
        if args.render:
            render(args.render[0], Path(args.render[1]))
        else:
            print(json.dumps(measure(args.measure[0], Path(args.measure[1]))))
        return 0

    print("all figures in MB; normalize .. evaluate and the shuffle peak are tracemalloc peaks", flush=True)
    print(
        f"{'row':15s} {'frame':6s} {'f64 stk':>7s}  {'rss pre':>7s}  {'rss post':>7s}  "
        + "  ".join(f"{s[:7]:>7s}" for s in STAGES)
        + f"  {'shuffle':>7s} {'x f64':>6s}",
        flush=True,
    )
    with tempfile.TemporaryDirectory() as tmp:
        for row in args.rows:
            path = Path(tmp) / f"{row}.qimg"
            subprocess.run([sys.executable, __file__, "--render", row, str(path)], check=True)
            out = subprocess.run(
                [sys.executable, __file__, "--measure", row, str(path)], check=True, stdout=subprocess.PIPE, text=True
            )
            print_row(json.loads(out.stdout.strip().splitlines()[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
