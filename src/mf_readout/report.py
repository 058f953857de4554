"""CSV and SVG report emission.

Every writer produces byte-identical output for identical inputs: floats go
through the shortest round-trip form, rows are emitted in the order given,
and nothing timestamped or environment-dependent is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError
from .util import fmt

PALETTE = {
    "square": "#4477aa",
    "gaussian": "#ee6677",
    "mf-site": "#228833",
    "mf-array": "#aa3377",
}
FALLBACK_COLOR = "#666666"


@dataclass(frozen=True)
class SweepRow:
    exposure_ms: float
    kind: str
    mean_infidelity: float
    stderr: float


@dataclass
class SweepReport:
    """Mean infidelity with its shuffle standard error, one row per
    (exposure, kind)."""

    rows: list[SweepRow]

    def kinds(self) -> list[str]:
        seen = []
        for r in self.rows:
            if r.kind not in seen:
                seen.append(r.kind)
        return seen

    def exposures(self) -> list[float]:
        return sorted({r.exposure_ms for r in self.rows})


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, float):
        return fmt(v)
    return str(v)


def _write_csv(path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_fidelity_csv(path, rows) -> None:
    """rows: (site, kind, F, stderr); sites are 1-based in artifacts."""
    _write_csv(path, "site,kind,F,stderr", rows)


def write_crossfidelity_csv(path, rows) -> None:
    """rows: (k, l, kind, F_CF, stderr); empty cells mark undefined pairs."""
    _write_csv(path, "k,l,kind,F_CF,stderr", rows)


def write_reduction_csv(path, rows) -> None:
    """rows: (site, kind, eta) vs the gaussian baseline."""
    _write_csv(path, "site,kind,eta", rows)


def write_complexity_csv(path, rows) -> None:
    _write_csv(path, "kind,n_trainable,n_multiplications,n_nonlinear", rows)


def write_preds_csv(path, rows) -> None:
    """rows: (frame, site, y_hat, y_bin); frame and site are 1-based."""
    _write_csv(path, "frame,site,y_hat,y_bin", rows)


def write_sweep_csv(path, report: SweepReport) -> None:
    rows = [(r.exposure_ms, r.kind, r.mean_infidelity, r.stderr) for r in report.rows]
    _write_csv(path, "exposure_ms,kind,mean_infidelity,stderr", rows)


def read_sweep_csv(path) -> SweepReport:
    """The rows of a write_sweep_csv file. DataError, naming the file,
    when it cannot be read or holds another table, and naming the line
    too for a row that is not four cells with a finite exposure, mean
    and standard error, or whose exposure is not positive or whose
    standard error is negative."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = [(i, ln) for i, ln in enumerate(text.split("\n"), 1) if ln]
    if not lines or lines[0][1] != "exposure_ms,kind,mean_infidelity,stderr":
        raise DataError(f"{path}: not a sweep report")
    rows = []
    for i, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise DataError(f"{path}, line {i}: bad sweep row {ln!r}: it needs 4 cells")
        try:
            numbers = [float(parts[j]) for j in (0, 2, 3)]
        except ValueError:
            numbers = [math.nan]
        if not all(map(math.isfinite, numbers)):
            raise DataError(f"{path}, line {i}: bad sweep row {ln!r}: its three numbers must be finite")
        if numbers[0] <= 0 or numbers[2] < 0:
            raise DataError(
                f"{path}, line {i}: bad sweep row {ln!r}: its exposure must be positive and its stderr non-negative"
            )
        rows.append(SweepRow(numbers[0], parts[1], *numbers[1:]))
    return SweepReport(rows=rows)


# SVG layout. The plot box is fixed; the right margin holds the legend.
_W, _H = 640.0, 420.0
_L, _R, _T, _B = 64.0, 150.0, 24.0, 52.0


def _f(v: float) -> str:
    return f"{v:.2f}"


def emit_svg(report: SweepReport, path) -> None:
    """Render the sweep as a self-contained SVG line chart.

    Log-scale infidelity against exposure, one polyline per kind (at least
    two points needed for a segment), one error-bar path per row, and a
    legend. The y axis spans [min/2, max*2] of the plotted means; zero or
    negative means are clamped to the axis floor. The chosen ranges are
    echoed as data-* attributes on the root element.
    """
    rows = report.rows
    if not rows:
        raise DataError("empty sweep report")
    kinds = report.kinds()
    xs = report.exposures()
    positive = [r.mean_infidelity for r in rows if r.mean_infidelity > 0]
    if positive:
        ylo, yhi = min(positive) / 2.0, max(positive) * 2.0
    else:
        ylo, yhi = 1e-4, 1.0
    xlo, xhi = xs[0], xs[-1]
    pw, ph = _W - _L - _R, _H - _T - _B
    lg_lo, lg_hi = math.log10(ylo), math.log10(yhi)

    def sx(x: float) -> float:
        if xhi == xlo:
            return _L + pw / 2.0
        return _L + pw * (x - xlo) / (xhi - xlo)

    def sy(v: float) -> float:
        v = ylo if v <= ylo else min(v, yhi)
        return _T + ph * (lg_hi - math.log10(v)) / (lg_hi - lg_lo)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(_W)}" height="{_f(_H)}" '
        f'viewBox="0 0 {_f(_W)} {_f(_H)}" font-family="sans-serif" font-size="12" '
        f'data-xlo="{fmt(xlo)}" data-xhi="{fmt(xhi)}" data-ylo="{fmt(ylo)}" data-yhi="{fmt(yhi)}">',
        f'<rect x="0" y="0" width="{_f(_W)}" height="{_f(_H)}" fill="white"/>',
        f'<line x1="{_f(_L)}" y1="{_f(_H - _B)}" x2="{_f(_W - _R)}" y2="{_f(_H - _B)}" stroke="black"/>',
        f'<line x1="{_f(_L)}" y1="{_f(_T)}" x2="{_f(_L)}" y2="{_f(_H - _B)}" stroke="black"/>',
    ]

    for k in range(math.ceil(lg_lo), math.floor(lg_hi) + 1):
        y = sy(10.0**k)
        out.append(
            f'<line x1="{_f(_L - 4)}" y1="{_f(y)}" x2="{_f(_L)}" y2="{_f(y)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_f(_L - 7)}" y="{_f(y + 4)}" text-anchor="end">1e{k}</text>'
        )
    for x in xs:
        px = sx(x)
        out.append(
            f'<line x1="{_f(px)}" y1="{_f(_H - _B)}" x2="{_f(px)}" y2="{_f(_H - _B + 4)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_f(px)}" y="{_f(_H - _B + 18)}" text-anchor="middle">{x:g}</text>'
        )
    out.append(
        f'<text x="{_f(_L + pw / 2)}" y="{_f(_H - 10)}" text-anchor="middle">exposure (ms)</text>'
    )
    out.append(
        f'<text x="16" y="{_f(_T + ph / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_f(_T + ph / 2)})">infidelity</text>'
    )

    for kind in kinds:
        color = PALETTE.get(kind, FALLBACK_COLOR)
        pts = sorted((r for r in rows if r.kind == kind), key=lambda r: r.exposure_ms)
        coords = [(sx(r.exposure_ms), sy(r.mean_infidelity)) for r in pts]
        if len(coords) >= 2:
            joined = " ".join(f"{_f(x)},{_f(y)}" for x, y in coords)
            out.append(
                f'<polyline class="curve" points="{joined}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        for (x, y), r in zip(coords, pts):
            y1 = sy(r.mean_infidelity - r.stderr)
            y2 = sy(r.mean_infidelity + r.stderr)
            out.append(
                f'<path class="ebar" d="M {_f(x)} {_f(y1)} L {_f(x)} {_f(y2)} '
                f'M {_f(x - 3)} {_f(y1)} L {_f(x + 3)} {_f(y1)} '
                f'M {_f(x - 3)} {_f(y2)} L {_f(x + 3)} {_f(y2)}" '
                f'stroke="{color}" fill="none"/>'
            )
        for x, y in coords:
            out.append(f'<circle class="pt" cx="{_f(x)}" cy="{_f(y)}" r="3" fill="{color}"/>')

    for i, kind in enumerate(kinds):
        color = PALETTE.get(kind, FALLBACK_COLOR)
        ly = _T + 10 + 18 * i
        lx = _W - _R + 14
        out.append(
            f'<line class="legend" x1="{_f(lx)}" y1="{_f(ly)}" x2="{_f(lx + 22)}" y2="{_f(ly)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(f'<text x="{_f(lx + 28)}" y="{_f(ly + 4)}">{kind}</text>')

    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")
