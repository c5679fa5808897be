"""Frame rendering: SVG for curve states, OBJ meshes for surface states.

One file per trace step plus the initial state; output bytes are a pure
function of the trace, so reruns are byte-identical.  States come from
`DeformationTrace.states()` and each frame highlights the cells its step
reports as changed (`changed_cells` on the step records in `deform`).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from .cells import CubicalCell
from .deform import DeformationTrace
from .errors import GridTopoError

_SCALE = 24
_PAD = 12


def _svg_frame(trace: DeformationTrace, state, changed) -> str:
    (x_lo, x_hi), (y_lo, y_hi) = trace.ambient.extent
    width = (x_hi - x_lo) * _SCALE + 2 * _PAD
    height = (y_hi - y_lo) * _SCALE + 2 * _PAD

    def pt(v):
        x = (v[0] - x_lo) * _SCALE + _PAD
        y = (y_hi - v[1]) * _SCALE + _PAD
        return x, y

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for cell in sorted(state):
        (a,) = cell.axes
        u = cell.base
        w = list(u)
        w[a] += 1
        x1, y1 = pt(u)
        x2, y2 = pt(tuple(w))
        color = "#d62728" if cell in changed else "#1f77b4"
        swidth = 4 if cell in changed else 2
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="{swidth}" stroke-linecap="round"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _quad_vertices(cell: CubicalCell):
    a1, a2 = cell.axes
    b = list(cell.base)
    v0 = tuple(b)
    v1 = list(b)
    v1[a1] += 1
    v2 = list(v1)
    v2[a2] += 1
    v3 = list(b)
    v3[a2] += 1
    return [v0, tuple(v1), tuple(v2), tuple(v3)]


def _obj_frame(state, changed) -> str:
    verts: List = []
    index = {}
    quads = []
    for cell in sorted(state):
        q = []
        for v in _quad_vertices(cell):
            if v not in index:
                index[v] = len(verts) + 1
                verts.append(v)
            q.append(index[v])
        quads.append((cell in changed, q))
    lines = ["# gridtopo frame"]
    for v in verts:
        lines.append("v " + " ".join(str(x) for x in v))
    lines.append("g surface")
    for is_changed, q in quads:
        if not is_changed:
            lines.append("f " + " ".join(str(i) for i in q))
    if any(c for c, _ in quads):
        lines.append("g changed")
        for is_changed, q in quads:
            if is_changed:
                lines.append("f " + " ".join(str(i) for i in q))
    return "\n".join(lines) + "\n"


# What each format draws: (ambient dimension, cell dimension).
_DRAWS = {"svg-2d": (2, 1), "obj-3d": (3, 2)}


def frame_format(fmt: str, n: int, m: int) -> str:
    """The format `fmt` names for m-cells in an n-dimensional ambient,
    `auto` choosing by the ambient.  Raises GridTopoError when that
    format cannot draw them."""
    if fmt == "auto":
        fmt = "svg-2d" if n == 2 else "obj-3d"
    if fmt not in _DRAWS:
        raise ValueError(f"unknown format {fmt!r}")
    if _DRAWS[fmt] != (n, m):
        want_n, want_m = _DRAWS[fmt]
        raise GridTopoError(f"{fmt} draws {want_m}-cells in a {want_n}-d ambient, not {m}-cells in a {n}-d one")
    return fmt


def render(trace: DeformationTrace, out_dir: Union[str, Path], fmt: str = "auto") -> List[Path]:
    """Write one frame file per state; returns the paths written.  The
    format is checked (`frame_format`) and the trace replayed before
    anything is written, so a refused trace leaves no output directory."""
    fmt = frame_format(fmt, trace.ambient.n, trace.m)
    frames = list(zip(trace.states(), [frozenset()] + [step.changed_cells for step in trace.steps]))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (state, changed) in enumerate(frames):
        if fmt == "svg-2d":
            body = _svg_frame(trace, state, changed)
            path = out_dir / f"frame_{i:04d}.svg"
        else:
            body = _obj_frame(state, changed)
            path = out_dir / f"frame_{i:04d}.obj"
        path.write_text(body, encoding="utf-8")
        paths.append(path)
    return paths
