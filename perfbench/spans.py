"""In-memory span tracer that instruments mf_readout from the outside.

The traced run rebinds public names inside the modules that call them
(for example ``mf_readout.pipeline.train_all_sites``) with wrappers that
record a span per call, and restores every original binding afterwards,
also when the run raises. No source file of the package is touched.

A span has a name (``<layer>.<function>``), a layer (the mf_readout module
that defines the function), start and end times from ``perf_counter``, the
index of its parent span, the workload-run id, the model kind where the
call takes one, and a few counts taken at the call boundary (frames
rendered, bytes read, fallback sites, ...).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

LAYERS = ("sim", "qimg", "pipeline", "locate", "train", "filters", "metrics", "report")

# (calling module, public name): every call site the traced run observes.
# Names called per frame or per pixel window (render_image, the score
# helpers inside FilterModel) are left alone so tracing stays cheap.
TARGETS = (
    ("pipeline", "load_or_generate"),
    ("pipeline", "generate_dataset"),
    ("pipeline", "generate_label_path"),
    ("pipeline", "read_stack"),
    ("pipeline", "write_stack"),
    ("pipeline", "split_dataset"),
    ("pipeline", "fit_stats"),
    ("pipeline", "apply_stats"),
    ("pipeline", "mean_image"),
    ("pipeline", "locate_sites"),
    ("pipeline", "crop"),
    ("pipeline", "train_all_sites"),
    ("pipeline", "evaluate"),
    ("pipeline", "write_fidelity_csv"),
    ("pipeline", "write_crossfidelity_csv"),
    ("pipeline", "write_reduction_csv"),
    ("pipeline", "write_sweep_csv"),
    ("pipeline", "emit_svg"),
    ("train", "tune"),
    ("train", "fit_ridge"),
    ("train", "extract_site_features"),
    ("train", "extract_array_features"),
    ("train", "square_score"),
    ("train", "gaussian_score"),
    ("train", "gaussian_weight_map"),
    ("metrics", "classify_stack"),
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: str
    tag: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_bytes(path) -> int:
    path = Path(path)
    sidecar = path.with_suffix(".json")
    return path.stat().st_size + (sidecar.stat().st_size if sidecar.exists() else 0)


def _tag(name: str, args) -> str:
    """Model kind of the call, where the function takes one."""
    if name == "tune":
        return args[2]
    if name == "train_all_sites":
        return args[1]
    if name == "classify_stack" and args[0]:
        return args[0][0].kind
    if name == "evaluate":
        return args[0].kind
    return ""


def _counts(name: str, args, result) -> dict:
    """Counts recorded at the boundary of one call, by function name."""
    if name in ("generate_dataset", "generate_label_path"):
        return {"frames": args[0].n_images}
    if name in ("read_stack", "write_stack"):
        return {"bytes": _file_bytes(args[0])}
    if name == "locate_sites":
        return {"fallback_sites": sum(result.fallbacks)}
    if name == "train_all_sites":
        return {"sites": result.n_sites, "failed_sites": len(result.failures)}
    if name in ("classify_stack", "evaluate"):
        return {"frames": len(args[1])}
    return {}


class Tracer:
    """Records spans, nested by call order.

    One tracer serves one workload run. ``root`` opens a top-level span
    per phase (setup, iteration, probe) so each can be read on its own.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, layer: str, tag: str = "") -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent, self.run_id, tag))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, counts: dict | None = None) -> None:
        self.spans[idx].end = time.perf_counter()
        if counts:
            self.spans[idx].counts.update(counts)
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, phase: str):
        idx = self._open(f"bench.{phase}", "bench")
        try:
            yield
        finally:
            self._close(idx)

    def record(self, name: str, layer: str, start: float, end: float, tag: str = "", **counts) -> None:
        """Add a finished leaf span timed by the caller."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, start, end, parent, self.run_id, tag, counts))

    def wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"

        def traced(*args, **kwargs):
            idx = self._open(name, layer, _tag(fn.__name__, args))
            counts = None
            try:
                result = fn(*args, **kwargs)
                counts = _counts(fn.__name__, args, result)
                return result
            finally:
                self._close(idx, counts)

        traced.__wrapped__ = fn
        return traced

    def call(self, fn, *args, **kwargs):
        """Call fn inside a span, as if it had been rebound."""
        return self.wrap(fn)(*args, **kwargs)


class NullTracer:
    """Tracer stand-in for the untraced run: records nothing."""

    @contextlib.contextmanager
    def root(self, phase: str):
        yield

    def record(self, name, layer, start, end, tag="", **counts) -> None:
        pass

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@contextlib.contextmanager
def instrumented(tracer: Tracer, targets=TARGETS):
    """Rebind every target to a tracing wrapper; restore all on exit."""
    saved = []
    try:
        for mod_name, attr in targets:
            module = importlib.import_module(f"mf_readout.{mod_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one parent run one after another on one thread, so their
    durations do not overlap and the covered time is their sum.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def roots(spans: list[Span]) -> list[int]:
    return [i for i, s in enumerate(spans) if s.parent is None]


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of root and all its descendants (spans are in start order)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


def write_spans(tracer: Tracer, path) -> None:
    """All spans of the run as one JSON file, written whole or not at all."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    spans = [asdict(s) for s in tracer.spans]
    tmp.write_text(json.dumps({"run_id": tracer.run_id, "spans": spans}) + "\n")
    os.replace(tmp, path)
