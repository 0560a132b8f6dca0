import os

import numpy as np
import pytest

from ocn_gamelab import (PlaneColoring, RenderError, RenderSpec, ResourceGuardError, Rule,
                         Socn, classify_and_fit, color_planes, fit_summary,
                         frontier, rank_matrix, render_all, render_plane)
from ocn_gamelab.ocnsim import DEFAULT_CELL_BUDGET
from ocn_gamelab.render import SVG_CELLS

from oracles import parse_pgm, time_limit


def tiny_net():
    # p needs one unit per step, q pays nothing: (p,q) is all black.
    return Socn(states=("p", "q"), actions=("a",),
                rules=(Rule("p", "a", -1, "p"), Rule("q", "a", 0, "q")))


def tiny_coloring(view=2):
    return color_planes(tiny_net(), 2 * view, view)


def test_pgm_golden_bytes():
    cols = tiny_coloring()
    data = render_plane(cols[("p", "q")], RenderSpec(format="pgm"))
    assert data == b"P2\n2 2\n1\n0 0\n0 0\n"


def test_pgm_round_trips_the_coloring():
    cols = color_planes(tiny_net(), 12, 6)
    for col in cols.values():
        w, h, maxval, values = parse_pgm(
            render_plane(col, RenderSpec(format="pgm")))
        assert (w, h, maxval) == (6, 6, 1)
        for m in range(6):
            for n in range(6):
                # image row 0 is the top: n = 5 first
                pixel = values[(5 - n) * 6 + m]
                assert pixel == (0 if col.white[m, n] == 0 else 1)


def test_pgm_cell_size_scales_pixels():
    cols = tiny_coloring()
    data = render_plane(cols[("p", "q")], RenderSpec(format="pgm", cell_size=3))
    w, h, maxval, values = parse_pgm(data)
    assert (w, h) == (6, 6)
    assert values == [0] * 36


def test_oversized_pgm_is_refused_before_it_is_built(tmp_path):
    col = tiny_coloring()[("p", "q")]  # 2 x 2 cells
    side = 4000  # the largest square within the pixel budget
    assert side * side <= DEFAULT_CELL_BUDGET < (side + 2) ** 2
    for cs in (side // 2 + 1, 10 ** 5, 10 ** 30):
        with time_limit(1.0), pytest.raises(ResourceGuardError, match="PGM image needs"):
            render_plane(col, RenderSpec(format="pgm", cell_size=cs))
    with time_limit(1.0), pytest.raises(ResourceGuardError):
        render_all({("p", "q"): col}, None, str(tmp_path / "imgs"),
                   RenderSpec(cell_size=10 ** 5))
    assert os.listdir(tmp_path / "imgs") == []
    # The cell count, not the pixel count, sizes an SVG.
    assert render_plane(col, RenderSpec(format="svg", cell_size=10 ** 5)).startswith(b"<svg")


def test_oversized_svg_is_refused_before_it_is_built():
    # Thresholds only: a read of the white ranks would raise NetError.
    side = 708  # the first square past the SVG cell bound
    assert SVG_CELLS == 500_000 and (side - 1) ** 2 <= SVG_CELLS < side ** 2
    for r in (side, 4000):
        col = PlaneColoring("s", "s", np.zeros(r, dtype=np.int64), r, 1, 0)
        with time_limit(1.0), pytest.raises(
                ResourceGuardError, match=f"SVG image needs {r}x{r} cells"):
            render_plane(col, RenderSpec(format="svg"))


def test_images_read_black_cells_from_the_thresholds():
    # A staircase with rows of 0, 1 and 3 black cells, built by hand.
    col = PlaneColoring("p", "q", np.array([0, 1, 2 ** 62]), 3, 1, 0)
    assert render_plane(col, RenderSpec()) == b"P2\n3 3\n1\n0 0 0\n0 1 1\n1 1 1\n"
    svg = render_plane(col, RenderSpec(format="svg", show_frontier=False)).decode()
    fills = [line.split('fill="')[1][:7] for line in svg.splitlines() if "<rect" in line]
    assert fills == ["#000000"] * 3 + ["#000000", "#ffffff", "#ffffff"] + ["#ffffff"] * 3


def test_svg_structure_and_overlays():
    cols = color_planes(tiny_net(), 12, 6)
    fits = classify_and_fit({pl: frontier(c) for pl, c in cols.items()})
    spec = RenderSpec(format="svg", cell_size=8, show_fitted=True)
    svg = render_plane(cols[("q", "p")], spec, fits[("q", "p")]).decode()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert 'width="48"' in svg and 'height="48"' in svg
    assert "polyline" in svg  # the frontier staircase
    black_plane = render_plane(cols[("p", "q")], spec,
                               fits[("p", "q")]).decode()
    assert "<rect" in black_plane


def test_svg_frontier_can_be_hidden():
    cols = tiny_coloring()
    spec = RenderSpec(format="svg", show_frontier=False)
    svg = render_plane(cols[("q", "p")], spec).decode()
    assert "polyline" not in svg


def test_rank_matrix_layout():
    cols = tiny_coloring()
    # (q,p): q(m) vs p(0 cost): rank n+1 everywhere
    text = rank_matrix(cols[("q", "p")]).decode()
    assert text == "2 2\n1 1\n"


def test_render_spec_validation():
    with pytest.raises(RenderError):
        RenderSpec(format="png")
    with pytest.raises(RenderError):
        RenderSpec(cell_size=0)


def test_render_all_writes_manifest(tmp_path):
    cols = tiny_coloring()
    fits = classify_and_fit({pl: frontier(c) for pl, c in cols.items()})
    out = str(tmp_path / "imgs")
    written = render_all(cols, fits, out, RenderSpec(format="pgm"))
    names = sorted(os.path.basename(p) for p in written)
    assert names == ["manifest.txt", "plane_p_p.pgm", "plane_p_q.pgm",
                     "plane_q_p.pgm", "plane_q_q.pgm"]
    manifest = open(os.path.join(out, "manifest.txt")).read().splitlines()
    assert len(manifest) == 4
    assert manifest[1].startswith("plane_p_q.pgm\t(p,q)\t")
    for line in manifest:
        name, plane, summary = line.split("\t")
        assert summary and summary != "unclassified"


def test_render_all_emits_rank_matrices(tmp_path):
    cols = tiny_coloring()
    out = str(tmp_path / "ranks")
    written = render_all(cols, None, out,
                         RenderSpec(format="pgm", emit_ranks=True))
    assert any(p.endswith("plane_q_p_ranks.txt") for p in written)
    manifest = open(os.path.join(out, "manifest.txt")).read()
    assert "unclassified" in manifest


def test_render_all_resolves_name_collisions(tmp_path):
    # Distinct states that sanitize to the same filename stem.
    net = Socn(states=("x.1", "x_1"), actions=("a",),
               rules=(Rule("x.1", "a", 0, "x.1"),))
    cols = color_planes(net, 4, 2)
    out = str(tmp_path / "clash")
    written = render_all(cols, None, out, RenderSpec(format="pgm"))
    names = sorted(os.path.basename(p) for p in written)
    assert "plane_x_1_x_1.pgm" in names
    assert "plane_x_1_x_1_2.pgm" in names


def test_render_all_rejects_empty_directory():
    cols = tiny_coloring()
    with pytest.raises(RenderError):
        render_all(cols, None, "", RenderSpec())


def test_rendering_is_deterministic(tmp_path):
    cols = tiny_coloring()
    fits = classify_and_fit({pl: frontier(c) for pl, c in cols.items()})
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    spec = RenderSpec(format="svg", show_fitted=True, emit_ranks=True)
    render_all(cols, fits, a, spec)
    render_all(cols, fits, b, spec)
    files_a = sorted(os.listdir(a))
    assert files_a == sorted(os.listdir(b))
    for name in files_a:
        with open(os.path.join(a, name), "rb") as fa, \
                open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read()
