"""Byte parity of two reference sweeps between checkouts.

    python3 scripts/sweep_parity.py --out manifest.json
    python3 scripts/sweep_parity.py --against manifest.json

Run it from the root of a checkout; it imports mf_readout from ./src.
It runs two sweeps with second-path labels, each in a temporary
directory: the default preset (2000 frames, seed 3, 10 and 20 ms, 2
shuffles) and the crosstalk preset (3000 frames, seed 4, 47 ms, 2
shuffles, 2000 held-out frames). Their manifest maps every file the
sweeps write, named "<sweep>/<path under its output_dir>", to its
sha256, cache/ included. run_config.json is left out, because it holds
the temporary output_dir. --out writes the manifest as JSON. --against
reads one written by another checkout, names every changed, missing or
extra file, and exits 1 when there is any, and 0 otherwise. One BLAS
thread, pinned before numpy loads, since the BLAS thread count changes
the bits of the sums.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mf_readout import RunConfig, crosstalk_config, default_config, run_pipeline  # noqa: E402

SWEEPS = {
    "default": dict(preset=default_config, frames=2000, seed=3, exposures=(10.0, 20.0), crossfid_frames=0),
    "crosstalk": dict(preset=crosstalk_config, frames=3000, seed=4, exposures=(47.0,), crossfid_frames=2000),
}


def run_sweep(name: str, output_dir: Path) -> None:
    spec = SWEEPS[name]
    run_pipeline(RunConfig(
        sim=spec["preset"](n_images=spec["frames"]),
        output_dir=str(output_dir),
        exposure_sweep_ms=spec["exposures"],
        n_shuffles=2,
        seed=spec["seed"],
        label_source="label",
        crossfid_frames=spec["crossfid_frames"],
    ))


def sweep_manifest() -> dict[str, str]:
    """"<sweep>/<path>" -> sha256 of every file both sweeps write, but
    each run_config.json."""
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in SWEEPS:
            root = Path(tmp) / name
            run_sweep(name, root)
            for path in sorted(root.rglob("*")):
                rel = path.relative_to(root).as_posix()
                if path.is_file() and rel != "run_config.json":
                    manifest[f"{name}/{rel}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return manifest


def differences(now: dict[str, str], prev: dict[str, str]) -> list[str]:
    """One line per file whose digest changed, that prev has and now
    lacks, or that now has and prev lacks."""
    lines = [f"changed: {k}" for k in sorted(now.keys() & prev.keys()) if now[k] != prev[k]]
    lines += [f"missing: {k}" for k in sorted(prev.keys() - now.keys())]
    lines += [f"extra: {k}" for k in sorted(now.keys() - prev.keys())]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write the manifest here as JSON")
    ap.add_argument("--against", help="a manifest written by another checkout")
    args = ap.parse_args(argv)

    manifest = sweep_manifest()
    print(f"{len(manifest)} files in {len(SWEEPS)} sweeps", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    if not args.against:
        return 0
    lines = differences(manifest, json.loads(Path(args.against).read_text()))
    for line in lines:
        print(line)
    print(f"{len(lines)} file(s) differ from {args.against}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
