"""Deterministic rendering of plane colorings to PGM and SVG.

Images show the exact interior of one plane with the attacker's
counter rightward and the defender's counter upward, black for
simulation candidates and white for refuted cells.  Images read the
black cells off the plane's thresholds (cell (m,n) is black exactly
when m < thresholds[n]), so only the companion rank matrices build the
white ranks.  Plain PGM keeps the output dependency-free and
diff-able; SVG adds the frontier polyline and fitted belt lines as
overlays.  Identical inputs give identical bytes.  A PGM over
``DEFAULT_CELL_BUDGET`` pixels, or an SVG over ``SVG_CELLS`` cells, is
refused with ``ResourceGuardError`` before any of it is built.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fractions import Fraction

from .ocnsim import (DEFAULT_CELL_BUDGET, INF, BeltFit, PlaneColoring,
                     ResourceGuardError, frontier)

# An SVG costs about 60 bytes per cell, whatever the cell size: this
# bound keeps it near the 30 MB of the largest PGM.
SVG_CELLS = DEFAULT_CELL_BUDGET // 32


class RenderError(ValueError):
    """Bad render parameters or an unwritable output path."""


@dataclass
class RenderSpec:
    """Output format, scaling, and overlay switches.

    ``cell_size`` is the square pixel edge per cell.  ``show_frontier``
    and ``show_fitted`` only affect SVG output; ``emit_ranks`` makes
    render_all write a companion plain-text matrix of white ranks next
    to each image.
    """

    format: str = "pgm"
    cell_size: int = 1
    show_frontier: bool = True
    show_fitted: bool = False
    emit_ranks: bool = False

    def __post_init__(self):
        if self.format not in ("pgm", "svg"):
            raise RenderError(f"unknown format {self.format!r}")
        if self.cell_size < 1:
            raise RenderError("cell size must be at least 1")


def _fmt(value) -> str:
    """Fixed decimal rendering of exact coordinates, without noise zeros."""
    text = f"{float(value):.6f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-0") else "0"


def render_plane(coloring: PlaneColoring, spec: RenderSpec,
                 fit: BeltFit | None = None) -> bytes:
    """Encode one plane's interior; see the module docstring for layout."""
    if coloring.interior < 1:
        raise RenderError("empty interior")
    if spec.format == "pgm":
        return _render_pgm(coloring, spec.cell_size)
    return _render_svg(coloring, spec, fit)


def _render_pgm(coloring: PlaneColoring, cs: int) -> bytes:
    r = coloring.interior
    # About two bytes per pixel, so the image is refused before a row
    # of it is built.
    if (r * cs) ** 2 > DEFAULT_CELL_BUDGET:
        raise ResourceGuardError(
            f"PGM image needs {r * cs}x{r * cs} pixels ({r} cells of size {cs}), "
            f"more than {DEFAULT_CELL_BUDGET}")
    blacks = coloring.black_counts().tolist()
    lines = ["P2", f"{r * cs} {r * cs}", "1"]
    for n in reversed(range(r)):
        row = " ".join(["0"] * (blacks[n] * cs) + ["1"] * ((r - blacks[n]) * cs))
        lines.extend([row] * cs)
    return ("\n".join(lines) + "\n").encode("ascii")


def _render_svg(coloring: PlaneColoring, spec: RenderSpec,
                fit: BeltFit | None) -> bytes:
    r, cs = coloring.interior, spec.cell_size
    if r * r > SVG_CELLS:
        raise ResourceGuardError(
            f"SVG image needs {r}x{r} cells, one element each, more than {SVG_CELLS}")
    side = r * cs
    blacks = coloring.black_counts().tolist()
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}"'
        f' viewBox="0 0 {side} {side}">'
    ]
    for n in reversed(range(r)):
        y = (r - 1 - n) * cs
        for m in range(r):
            fill = "#000000" if m < blacks[n] else "#ffffff"
            parts.append(f'<rect x="{m * cs}" y="{y}" width="{cs}" height="{cs}"'
                         f' fill="{fill}"/>')
    if spec.show_frontier:
        points = []
        for n, v in enumerate(frontier(coloring).values):
            x = side if v == INF else (v + 1) * cs
            y = Fraction((r - 1 - n) * cs) + Fraction(cs, 2)
            points.append(f"{_fmt(x)},{_fmt(y)}")
        parts.append('<polyline fill="none" stroke="#cc2222" stroke-width="1"'
                     ' points="' + " ".join(points) + '"/>')
    if spec.show_fitted and fit is not None:
        parts.extend(_fitted_lines(fit, r, cs))
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("ascii")


def _fitted_lines(fit: BeltFit, r: int, cs: int) -> list:
    """Belt edge lines in image coordinates; empty for half-plane fits."""
    lines = []
    if fit.kind == "VF":
        x = _fmt((fit.level + 1) * cs)
        lines.append(f'<line x1="{x}" y1="0" x2="{x}" y2="{r * cs}"'
                     ' stroke="#2255cc" stroke-width="1"/>')
        return lines
    if fit.kind != "SF":
        return lines
    n_bottom, n_top = Fraction(-1, 2), Fraction(2 * r - 1, 2)
    for c in dict.fromkeys(fit.band):
        x1 = (fit.alpha * n_bottom + c + 1) * cs
        x2 = (fit.alpha * n_top + c + 1) * cs
        y1 = (Fraction(2 * r - 1, 2) - n_bottom) * cs
        y2 = (Fraction(2 * r - 1, 2) - n_top) * cs
        lines.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}"'
                     f' y2="{_fmt(y2)}" stroke="#2255cc" stroke-width="1"/>')
    return lines


def rank_matrix(coloring: PlaneColoring) -> bytes:
    """White ranks as plain text, rows top-to-bottom matching the images."""
    r = coloring.interior
    white = coloring.interior_view()
    rows = [" ".join(str(int(white[m, n])) for m in range(r))
            for n in reversed(range(r))]
    return ("\n".join(rows) + "\n").encode("ascii")


def fit_summary(fit: BeltFit | None) -> str:
    if fit is None:
        return "unclassified"
    if fit.kind == "HF":
        return f"HF inf_from={fit.inf_from}"
    if fit.kind == "VF":
        return f"VF level={fit.level}"
    lo, hi = fit.band
    return (f"SF alpha={fit.alpha} band=[{lo},{hi}] "
            f"period_hint=({fit.period_hint[0]},{fit.period_hint[1]}) step={fit.step}")


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]", "_", name) or "_"


def _write(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise RenderError(f"cannot write {path}: {exc}") from None


def render_all(colorings: dict, fits: dict | None, directory: str,
               spec: RenderSpec) -> list:
    """One image per plane plus manifest.txt; returns the written paths.

    Files are named plane_{p}_{q} with non-filename characters replaced
    and numeric suffixes on collisions; the manifest lists each file
    with its plane and fit summary.  Re-runs overwrite deterministically.
    """
    if not directory:
        raise RenderError("empty directory path")
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise RenderError(f"cannot create {directory}: {exc}") from None
    names = {}
    used = set()
    for plane in sorted(colorings):
        base = f"plane_{_sanitize(plane[0])}_{_sanitize(plane[1])}"
        candidate, k = base, 1
        while candidate in used:
            k += 1
            candidate = f"{base}_{k}"
        used.add(candidate)
        names[plane] = candidate
    written = []
    manifest_lines = []
    for plane in sorted(colorings):
        fit = fits.get(plane) if fits else None
        filename = f"{names[plane]}.{spec.format}"
        path = os.path.join(directory, filename)
        _write(path, render_plane(colorings[plane], spec, fit))
        written.append(path)
        if spec.emit_ranks:
            rank_path = os.path.join(directory, f"{names[plane]}_ranks.txt")
            _write(rank_path, rank_matrix(colorings[plane]))
            written.append(rank_path)
        manifest_lines.append(f"{filename}\t({plane[0]},{plane[1]})\t{fit_summary(fit)}")
    manifest_path = os.path.join(directory, "manifest.txt")
    _write(manifest_path, ("\n".join(manifest_lines) + "\n").encode("utf-8"))
    written.append(manifest_path)
    return written
