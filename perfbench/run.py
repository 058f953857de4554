"""Readout benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Run it from the root of a checkout; it imports mf_readout from ./src and
writes only below ./.bench_work (scratch, removed at exit) and
./.bench_out (result and span files). One process, one thread: the BLAS
pool is pinned to one thread before numpy loads.

--trace 0 reports the end-to-end metrics: set-up time as the median of
SETUP_REPEATS set-ups, then the timed part repeated until --seconds have
passed (at least twice), reported as medians. --trace 1 reports the per-layer metrics:
one traced set-up, then untraced and traced iterations in turn, so the
difference gives the tracing overhead. Every line but the last is for
people; the last line is the JSON result.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# Per-call latency and short throughput windows are left out: on a host
# whose speed flips between two modes every few seconds their run-to-run
# spread exceeds any bound the benchmark may set. The traced run reports
# them as per-layer figures, and every run prints them for people.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "infidelity.mf-array": "1",
    "infidelity.gaussian": "1",
}


def machine() -> dict:
    """What the numbers were measured on."""
    import ctypes
    import glob

    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.exists() else None
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "git_commit": commit,
    }


def run_untraced(wl, seconds: float) -> tuple[dict, dict, list]:
    from spans import NullTracer

    tracer = NullTracer()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(tracer)
        setups.append(time.perf_counter() - t0)
    walls, outcomes = [], []
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start < seconds:
        wall, outcome = wl.iterate(tracer)
        walls.append(wall)
        outcomes.append(outcome)
    try:
        readouts, probe = wl.readouts(tracer)
        outcomes.append(probe)
        metrics, info = end_to_end(wl, setups, walls, readouts)
        return metrics, info, outcomes
    except Exception as exc:  # a broken program is reported, not measured
        return unmeasured(END_TO_END, exc, outcomes)


def unmeasured(declared: dict, exc: Exception, outcomes: list) -> tuple[dict, dict, list]:
    """Metrics of a run whose outputs could not be read out: null values."""
    from workloads import Outcome, describe_error

    outcomes.append(Outcome(problems=[f"measuring failed: {describe_error(exc)}"]))
    return {name: (None, unit, "not measured") for name, unit in declared.items()}, {}, outcomes


def end_to_end(wl, setups, walls, readouts) -> tuple[dict, dict]:
    """The bounded metrics, and the readout figures printed beside them."""
    import numpy as np

    from workloads import readout_figures

    quality = wl.quality()
    values = {
        "setup_s": float(np.median(setups)),
        "wall_s": float(np.median(walls)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "infidelity.mf-array": quality["mf-array"],
        "infidelity.gaussian": quality["gaussian"],
    }
    notes = {
        "setup_s": "median of " + " ".join(f"{t:.3f}" for t in setups),
        "wall_s": "median of " + " ".join(f"{t:.3f}" for t in walls),
    }
    out = {name: (values[name], unit, notes.get(name, "")) for name, unit in END_TO_END.items()}
    return out, readout_figures(readouts)


def run_traced(wl, seconds: float, run_id: str, out_dir: Path) -> tuple[dict, dict, list]:
    from layers import PER_LAYER, layer_metrics
    from spans import NullTracer, Tracer, instrumented, write_spans

    tracer = Tracer(run_id)
    with instrumented(tracer), tracer.root("setup"):
        wl.setup(tracer)
    untraced, outcomes = [], []
    start = time.perf_counter()
    while len(outcomes) < 2 or time.perf_counter() - start < seconds:
        if len(outcomes) % 2 == 0:
            wall, outcome = wl.iterate(NullTracer())
            untraced.append(wall)
        else:
            with instrumented(tracer):
                wall, outcome = wl.iterate(tracer)
        outcomes.append(outcome)
    try:
        with instrumented(tracer), tracer.root("probe"):
            readouts, probe = wl.readouts(tracer)
        outcomes.append(probe)
        per_layer = layer_metrics(tracer.spans, untraced, wl.trained_sets(), readouts)
    except Exception as exc:  # a broken program is reported, not measured
        return unmeasured(PER_LAYER, exc, outcomes)
    finally:
        write_spans(tracer, out_dir / f"{run_id}.spans.json")
    return {name: (value, unit, "") for name, (value, unit) in per_layer.items()}, {}, outcomes


def run_all(args) -> int:
    """Every workload in turn at one seed, each in a process of its own so
    that its peak RSS is its own. The last line sums the operations and
    prefixes each metric with its workload's name."""
    import subprocess

    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mf_readout" / "__init__.py").is_file():
        print(f"error: no mf_readout package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import FULL, SMOKE, WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = ROOT / ".bench_work" / run_id
    out_dir = ROOT / ".bench_out"
    wl = WORKLOADS[args.workload](work, args.seed, SMOKE if args.smoke else FULL)
    try:
        if args.trace:
            metrics, info, outcomes = run_traced(wl, args.seconds, run_id, out_dir)
        else:
            metrics, info, outcomes = run_untraced(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = sorted({p for o in outcomes for p in o.problems})
    host = machine()
    for name, (value, unit, note) in metrics.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {unit:6s} {note}")
    for name, (value, unit, note) in info.items():
        print(f"{name:40s} {value:>14.6g} {unit:6s} {note} (not bounded)")
    print(f"ops {attempted}  ops_failed {failed}")
    for p in problems:
        print(f"FAILED CHECK: {p}")
    print("machine " + json.dumps(host, sort_keys=True))

    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "machine": host, "problems": problems,
              "info": {name: value for name, (value, _, _) in info.items()}, **result}
    (out_dir / f"{run_id}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
