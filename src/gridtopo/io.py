"""Fixture files and trace serialization.

Fixture grammar, one statement per line, `#` starting a comment:

    ambient <n> <lo:hi> ... <lo:hi>
    cell <b0> ... <b_{n-1}> axes <a1> ... <am>

Cells are written in canonical order on save, so load/save round-trips are
stable.  Every vertex must lie strictly inside the ambient bounds: the
manifold keeps one empty grid unit of margin on every side.

Traces serialize to a line-per-step text form and to a JSON dump that
carries enough structure to replay and render.  This module writes the
document envelope (ambient, initial and final cells, nested children);
each step record in `deform` writes and reads its own line and JSON
object.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from .cells import AmbientSpace, CubicalCell, build_ambient, cell_token, parse_cell_token
from .complexes import ManifoldComplex, check_margin, validate
from .deform import DeformationTrace, step_from_json
from .errors import DegenerateExtent, ParseError, ValidationFailed


def load_fixture(path: Union[str, Path], require_valid: bool = True) -> ManifoldComplex:
    """Parse a fixture file into a validated complex."""
    path = Path(path)
    ambient: Optional[AmbientSpace] = None
    cells: List[CubicalCell] = []
    seen = set()
    m: Optional[int] = None
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "ambient":
            if ambient is not None:
                raise ParseError(line_no, "duplicate ambient header")
            try:
                n = int(parts[1])
                extent = []
                for tok in parts[2:]:
                    lo, hi = tok.split(":")
                    extent.append((int(lo), int(hi)))
                if len(extent) != n:
                    raise ValueError
                ambient = build_ambient(n, extent)
            except (ValueError, IndexError):
                raise ParseError(line_no, f"bad ambient header {line!r}")
            except DegenerateExtent as err:
                raise ParseError(line_no, f"bad ambient header {line!r}: {err}")
        elif parts[0] == "cell":
            if ambient is None:
                raise ParseError(line_no, "cell line before ambient header")
            try:
                idx = parts.index("axes")
                base = tuple(int(x) for x in parts[1:idx])
                axes = tuple(int(x) for x in parts[idx + 1 :])
                cell = CubicalCell.make(base, axes)
            except (ValueError, IndexError):
                raise ParseError(line_no, f"bad cell line {line!r}")
            if len(base) != ambient.n:
                raise ParseError(line_no, f"cell has {len(base)} coordinates, ambient has {ambient.n}")
            if cell in seen:
                raise ParseError(line_no, f"duplicate cell {cell!r}")
            if not ambient.contains_cell(cell):
                raise ParseError(line_no, f"cell {cell!r} outside ambient extent")
            if m is None:
                m = cell.dim
            elif cell.dim != m:
                raise ParseError(line_no, f"cell dimension {cell.dim} differs from {m}")
            seen.add(cell)
            cells.append(cell)
        else:
            raise ParseError(line_no, f"unknown statement {parts[0]!r}")
    if ambient is None:
        raise ParseError(0, "missing ambient header")
    if not cells:
        raise ParseError(0, "fixture has no cells")
    try:
        check_margin(ambient, cells)
    except ValueError as err:
        raise ParseError(0, str(err))
    M = ManifoldComplex.make(ambient, m, cells)
    if require_valid:
        report = validate(M)
        if not report.ok:
            raise ValidationFailed(report)
    return M


def save_fixture(M: ManifoldComplex, path: Union[str, Path]) -> None:
    path = Path(path)
    lines = [
        "ambient "
        + str(M.ambient.n)
        + " "
        + " ".join(f"{lo}:{hi}" for lo, hi in M.ambient.extent)
    ]
    for c in M.canonical_cells():
        base = " ".join(str(x) for x in c.base)
        axes = " ".join(str(x) for x in c.axes)
        lines.append(f"cell {base} axes {axes}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def trace_lines(trace: DeformationTrace) -> List[str]:
    """One human-readable record per step."""
    return [step.line() for step in trace.steps]


_FORMAT, _VERSION = "gridtopo-trace", 1


def trace_to_json(trace: DeformationTrace, children: Optional[Dict[int, DeformationTrace]] = None) -> Dict:
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "ambient": {"n": trace.ambient.n, "extent": [list(e) for e in trace.ambient.extent]},
        "m": trace.m,
        "initial": [cell_token(c) for c in trace.initial],
        "steps": [s.to_json() for s in trace.steps],
        "final": [cell_token(c) for c in trace.final],
    }
    if children:
        doc["children"] = {
            str(k): trace_to_json(v) for k, v in sorted(children.items())
        }
    return doc


def trace_from_json(doc: Dict) -> DeformationTrace:
    """Rebuild a trace; a malformed document (an ambient axis spanning no
    unit cell included), one of another format or version or with an empty
    initial or final state (the root's or any child's), or a cell outside
    the ambient or not of the dimension its place in the document needs
    (`cells_by_dim` of the steps), raises ParseError (line 0)."""
    try:
        for d in (doc, *doc.get("children", {}).values()):
            if (d["format"], d["version"]) != (_FORMAT, _VERSION):
                found = f"{d['format']!r} version {d['version']!r}"
                raise ParseError(0, f"not a {_FORMAT} version {_VERSION} document: {found}")
            if not (d["initial"] and d["final"]):
                raise ParseError(0, "the initial or final state is empty")
        ambient = build_ambient(doc["ambient"]["n"], [tuple(e) for e in doc["ambient"]["extent"]])
        trace = DeformationTrace(
            ambient=ambient,
            m=doc["m"],
            initial=tuple(parse_cell_token(t) for t in doc["initial"]),
            steps=tuple(step_from_json(s) for s in doc["steps"]),
            final=tuple(parse_cell_token(t) for t in doc["final"]),
        )
        m = trace.m
        sized = [(m, trace.initial), (m, trace.final), *(g for s in trace.steps for g in s.cells_by_dim(m))]
    except (AttributeError, DegenerateExtent, KeyError, TypeError, ValueError) as err:
        raise ParseError(0, f"malformed trace document: {type(err).__name__}: {err}")
    for dim, cells in sized:
        for c in cells:
            if c.dim != dim or not ambient.contains_cell(c):
                raise ParseError(0, f"cell {cell_token(c)} is not a {dim}-cell of the {ambient.n}-d ambient")
    return trace


def save_trace(trace: DeformationTrace, path: Union[str, Path], children=None) -> None:
    Path(path).write_text(
        json.dumps(trace_to_json(trace, children), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_trace(path: Union[str, Path]) -> DeformationTrace:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ParseError(err.lineno, err.msg)
    return trace_from_json(doc)
