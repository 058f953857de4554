"""Per-layer metrics derived from the spans of one traced workload run.

The run has three kinds of root span: one traced set-up, the traced
iterations of the timed part, and the readout probe. Counts and rates
cover one set-up plus one average iteration plus the probe, so they do
not depend on how many iterations fit into the run. Self times cover
one average iteration only, so that they add up to ``trace.wall_s``:

    sum of <layer>.self_s + trace.unattributed_s == trace.wall_s

A layer's self time is the time of its spans minus the time of their
child spans; ``trace.unattributed_s`` is the benchmark's own code in the
iteration root. A rate whose layer did no work in the run reads 0.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from spans import LAYERS, Span, roots, self_times, subtree

KINDS = ("square", "gaussian", "mf-site", "mf-array")
GENERATORS = ("sim.generate_dataset", "sim.generate_label_path")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "sim.render_us_per_frame": "us",
    "sim.label_us_per_frame": "us",
    "sim.frames_rendered": "count",
    "qimg.write_mb_per_s": "MB/s",
    "qimg.read_mb_per_s": "MB/s",
    "qimg.bytes_written": "bytes",
    "qimg.bytes_read": "bytes",
    "pipeline.cache_hits": "count",
    "pipeline.cache_misses": "count",
    "locate.ms_per_call": "ms",
    "locate.calls": "count",
    "locate.fallback_sites": "count",
    "locate.normalize_ms_per_call": "ms",
    **{f"train.tune_ms_per_site.{k}": "ms" for k in KINDS},
    "train.fit_ridge_calls": "count",
    "train.fit_ridge_s": "s",
    "train.features_s": "s",
    "train.fits_per_site": "count",
    "train.failed_sites": "count",
    **{f"filters.frame_latency_p50_us.{k}": "us" for k in KINDS},
    "filters.frame_latency_p99_us.mf-array": "us",
    **{f"filters.classify_us_per_frame.{k}": "us" for k in KINDS},
    **{f"filters.mults_per_frame.{k}": "count" for k in KINDS},
    "metrics.evaluate_us_per_frame": "us",
    "metrics.readout_frames_per_s": "1/s",
    "metrics.crossfid_cnn.mf-array": "1",
    "report.write_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _root_stats(spans: list[Span], selfs: list[float], root: int) -> Counter:
    """Durations, calls and counts by (name, tag), and self time by layer."""
    st: Counter = Counter()
    inside = subtree(spans, root)
    members = set(inside)
    missed = set()
    for i in inside:
        s = spans[i]
        st["dur", s.name, s.tag] += s.duration
        st["calls", s.name, s.tag] += 1
        for key, value in s.counts.items():
            st["n", s.name, s.tag, key] += value
        st["self", s.layer] += selfs[i]
        if s.name in GENERATORS:
            p = s.parent
            while p is not None and p in members:
                if spans[p].name == "pipeline.load_or_generate":
                    missed.add(p)
                    break
                p = spans[p].parent
    loads = [i for i in inside if spans[i].name == "pipeline.load_or_generate"]
    st["cache_misses",] = len(missed)
    st["cache_hits",] = len(loads) - len(missed)
    st["wall",] = spans[root].duration
    return st


def _mean(stats: list[Counter]) -> Counter:
    out: Counter = Counter()
    for st in stats:
        for key, value in st.items():
            out[key] += value / len(stats)
    return out


def _sum(st: Counter, field: str, name: str, tag=None, key=None) -> float:
    """Total of one field of one span name, over every tag unless one is given."""
    return sum(
        v
        for k, v in st.items()
        if k[0] == field and k[1] == name and tag in (None, k[2]) and key in (None, k[-1])
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], untraced_walls: list[float], sets: dict, readouts: list) -> dict:
    """Every PER_LAYER metric as {name: (value, unit)}."""
    from mf_readout.train import count_complexity
    from workloads import readout_figures

    figures = readout_figures(readouts)
    selfs = self_times(spans)
    phases = defaultdict(list)
    for r in roots(spans):
        phases[spans[r].name].append(_root_stats(spans, selfs, r))
    iteration = _mean(phases["bench.iteration"])
    run = Counter()
    for stats in phases.values():
        run.update(_mean(stats))

    dur = lambda name, tag=None: _sum(run, "dur", name, tag)  # noqa: E731
    calls = lambda name, tag=None: _sum(run, "calls", name, tag)  # noqa: E731
    n = lambda name, key, tag=None: _sum(run, "n", name, tag, key)  # noqa: E731

    one_frame = defaultdict(list)
    for s in spans:
        if s.name == "filters.classify_stack.one_frame":
            one_frame[s.tag].append(s.duration)
    learned_tunes = calls("train.tune", "mf-site") + calls("train.tune", "mf-array")
    normalize = ("locate.fit_stats", "locate.apply_stats")

    values = {
        "sim.render_us_per_frame": 1e6 * _ratio(dur("sim.generate_dataset"), n("sim.generate_dataset", "frames")),
        "sim.label_us_per_frame": 1e6 * _ratio(dur("sim.generate_label_path"), n("sim.generate_label_path", "frames")),
        "sim.frames_rendered": sum(n(g, "frames") for g in GENERATORS),
        "qimg.write_mb_per_s": 1e-6 * _ratio(n("qimg.write_stack", "bytes"), dur("qimg.write_stack")),
        "qimg.read_mb_per_s": 1e-6 * _ratio(n("qimg.read_stack", "bytes"), dur("qimg.read_stack")),
        "qimg.bytes_written": n("qimg.write_stack", "bytes"),
        "qimg.bytes_read": n("qimg.read_stack", "bytes"),
        "pipeline.cache_hits": run["cache_hits",],
        "pipeline.cache_misses": run["cache_misses",],
        "locate.ms_per_call": 1e3 * _ratio(dur("locate.locate_sites"), calls("locate.locate_sites")),
        "locate.calls": calls("locate.locate_sites"),
        "locate.fallback_sites": n("locate.locate_sites", "fallback_sites"),
        "locate.normalize_ms_per_call": 1e3 * _ratio(sum(map(dur, normalize)), sum(map(calls, normalize))),
        **{f"train.tune_ms_per_site.{k}": 1e3 * _ratio(dur("train.tune", k), calls("train.tune", k)) for k in KINDS},
        "train.fit_ridge_calls": calls("train.fit_ridge"),
        "train.fit_ridge_s": dur("train.fit_ridge"),
        "train.features_s": dur("filters.extract_site_features") + dur("filters.extract_array_features"),
        "train.fits_per_site": _ratio(calls("train.fit_ridge"), learned_tunes),
        "train.failed_sites": n("train.train_all_sites", "failed_sites"),
        **{f"filters.frame_latency_p50_us.{k}": 1e6 * float(np.median(one_frame[k])) if one_frame[k] else 0.0 for k in KINDS},
        **{
            f"filters.classify_us_per_frame.{k}": 1e6
            * _ratio(dur("filters.classify_stack", k), n("filters.classify_stack", "frames", k))
            for k in KINDS
        },
        "filters.frame_latency_p99_us.mf-array": 1e6 * float(np.percentile(one_frame["mf-array"], 99)),
        **{f"filters.mults_per_frame.{k}": count_complexity(sets[k])["n_multiplications"] for k in KINDS},
        "metrics.evaluate_us_per_frame": 1e6 * _ratio(dur("metrics.evaluate"), n("metrics.evaluate", "frames")),
        "metrics.readout_frames_per_s": figures["readout_frames_per_s"][0],
        "metrics.crossfid_cnn.mf-array": readouts[-1].reports["mf-array"].cnn_mean_abs,
        "report.write_s": sum(v for k, v in run.items() if k[0] == "dur" and k[1].startswith("report.")),
        **{f"{layer}.self_s": iteration["self", layer] for layer in LAYERS},
        "trace.wall_s": iteration["wall",],
        "trace.overhead_s": iteration["wall",] - float(np.mean(untraced_walls)),
        "trace.unattributed_s": iteration["self", "bench"],
    }
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER.items()}
