"""Elementary moves, interpolation, arc replacement, traces.

A deformation is recorded as a sequence of elementary moves, each flipping
the state across one (m+1)-cell: the new state is the symmetric difference
of the old state with the flip cell's boundary.  Replacing an arc by a
filling decomposes into one flip per cell of the region enclosed between
them.  Interpolation orders those flips in one greedy pass that peels the
region (a shelling): each step flips the first cell left, farthest from the
filling first, that touches the state without detaching it and whose state
validates.  It never backtracks, so k flips cost at most k(k+1)/2
validations; over the benchmark pools, criterion 7's curves, 64 random
polycubes and the goldens (1191 regions) a backtracking search made 0
backtracks.

The step records (`MoveStep`, `ReplaceStep`, `SplitStep`, `TerminalStep`)
are the whole trace format: each one replays itself onto a state, names
its cells by dimension and the cells it changes, and writes and reads its
own text line and JSON object.  Serialization (`io`) and rendering
(`render`) go through these methods, so a new step kind is added here and
nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from .cells import AmbientSpace, CubicalCell, cell_token, parse_cell_token
from .complexes import ManifoldComplex, validate
from .curviness import ArcRegion
from .errors import InterpolationFailed, ReplacementNotManifold, ReplayMismatch
from .filling import Filling, enclosed_cells

CellSet = FrozenSet[CubicalCell]


def _flipped(state: CellSet, flip_cell: CubicalCell) -> Optional[CellSet]:
    """The move rule: the state flipped across an (m+1)-cell, or None when
    the flip does not touch the state or would detach it."""
    bd = frozenset(flip_cell.faces())
    return state.symmetric_difference(bd) if state & bd and bd - state else None


def apply_flip(state: CellSet, flip_cell: CubicalCell) -> CellSet:
    """Flip a state across an (m+1)-cell, refusing moves the move rule refuses."""
    new = _flipped(state, flip_cell)
    if new is None:
        raise ValueError(f"flip {flip_cell} does not touch the state or would detach it")
    return new


def interpolate(
    M: ManifoldComplex,
    arc: ArcRegion,
    filling: Filling,
    move_cap: int,
) -> List["MoveStep"]:
    """Order of single flips deforming the arc onto the filling.

    The flips are exactly the top cells enclosed between arc and filling.
    The goal, the replaced state, is validated first; then one greedy pass
    peels the flips, farthest from the filling first, each step taking the
    first cell left that the move rule allows and whose state is valid.
    The last flip's state is the goal.  A stuck pass, or a filling of
    another cycle than the arc's (the two would not close up), raises
    InterpolationFailed.
    """
    if filling.boundary.cells != arc.cycle.cells:
        raise InterpolationFailed("filling boundary differs from arc boundary")
    diff = arc.region ^ filling.cells
    if not diff:
        return []
    region = enclosed_cells(M.ambient, diff)
    if not region:
        raise InterpolationFailed("difference surface bounds no region")
    if len(region) > move_cap:
        raise InterpolationFailed(f"{len(region)} flips exceed move cap {move_cap}")
    if not validate(ManifoldComplex(M.ambient, M.m, M.cells ^ diff)).ok:
        raise InterpolationFailed("the replaced state is not a valid manifold")

    f_verts = filling.vertices

    def fdist(w: CubicalCell) -> int:
        return min(sum(abs(a - b) for a, b in zip(v, u)) for v in w.vertices() for u in f_verts)

    left, moves, state = sorted(region, key=lambda w: (-fdist(w), w)), [], M.cells
    while left:
        for w in left:
            new = _flipped(state, w)
            if new is not None and (len(left) == 1 or validate(ManifoldComplex(M.ambient, M.m, new)).ok):
                break
        else:
            raise InterpolationFailed("no valid flip order found")
        left.remove(w)
        moves.append(MoveStep(flip_cell=w))
        state = new
    return moves


def replace_arc(M: ManifoldComplex, arc: ArcRegion, filling: Filling) -> ManifoldComplex:
    """Swap an arc for a filling of its boundary and validate the result; for direct callers."""
    if filling.boundary.cells != arc.cycle.cells:
        raise ReplacementNotManifold("filling boundary differs from arc boundary")
    if filling.N >= len(arc.region):
        raise ReplacementNotManifold("replacement does not reduce the cell count")
    new = M.replace(arc.region, filling.cells)
    report = validate(new)
    if not report.ok:
        raise ReplacementNotManifold(f"replacement invalid: {report}")
    return new


# ---------------------------------------------------------------------------
# Trace records.


def _tokens(cells: Iterable[CubicalCell]) -> List[str]:
    return [cell_token(c) for c in cells]


def _cells(tokens: Iterable[str]) -> Tuple[CubicalCell, ...]:
    return tuple(parse_cell_token(t) for t in tokens)


@dataclass(frozen=True)
class MoveStep:
    """One elementary move: flip the state across one (m+1)-cell."""

    flip_cell: CubicalCell

    kind = "move"

    def apply(self, state: CellSet) -> CellSet:
        try:
            return apply_flip(state, self.flip_cell)
        except ValueError as err:
            raise ReplayMismatch(str(err))

    @property
    def changed_cells(self) -> CellSet:
        return frozenset(self.flip_cell.faces())

    def cells_by_dim(self, m: int) -> Tuple[Tuple[int, Tuple[CubicalCell, ...]], ...]:
        return ((m + 1, (self.flip_cell,)),)

    def line(self) -> str:
        return f"move flip={cell_token(self.flip_cell)}"

    def to_json(self) -> Dict:
        return {"kind": self.kind, "flip": cell_token(self.flip_cell)}

    @classmethod
    def from_json(cls, obj: Dict) -> "MoveStep":
        return cls(flip_cell=parse_cell_token(obj["flip"]))


@dataclass(frozen=True)
class ReplaceStep:
    """Marker closing the moves of one arc replacement; checked, not applied."""

    center: CubicalCell
    gamma: int
    removed: Tuple[CubicalCell, ...]
    added: Tuple[CubicalCell, ...]
    sign: str
    lofted: Tuple[Tuple[int, int, int, bool], ...] = ()

    kind = "replace"

    def apply(self, state: CellSet) -> CellSet:
        if state & frozenset(self.removed):
            raise ReplayMismatch("replace marker: removed cells still present")
        if not frozenset(self.added) <= state:
            raise ReplayMismatch("replace marker: added cells missing")
        return state

    @property
    def changed_cells(self) -> CellSet:
        return frozenset(self.added)

    def cells_by_dim(self, m: int) -> Tuple[Tuple[int, Tuple[CubicalCell, ...]], ...]:
        return ((m, self.removed), (m, self.added))

    def line(self) -> str:
        return (
            f"replace x={cell_token(self.center)} γ={self.gamma} "
            f"removed={len(self.removed)} added={len(self.added)}"
        )

    def to_json(self) -> Dict:
        return {
            "kind": self.kind,
            "center": cell_token(self.center),
            "gamma": self.gamma,
            "removed": _tokens(self.removed),
            "added": _tokens(self.added),
            "sign": self.sign,
            "lofted": [list(t) for t in self.lofted],
        }

    @classmethod
    def from_json(cls, obj: Dict) -> "ReplaceStep":
        return cls(
            center=parse_cell_token(obj["center"]),
            gamma=obj["gamma"],
            removed=_cells(obj["removed"]),
            added=_cells(obj["added"]),
            sign=obj["sign"],
            lofted=tuple(tuple(t) for t in obj.get("lofted", [])),
        )


@dataclass(frozen=True)
class SplitStep:
    """An arc cut out along a cycle and closed with its filling; the arc
    side is contracted as child node `child_id`."""

    cycle_cells: Tuple[CubicalCell, ...]
    removed: Tuple[CubicalCell, ...]
    added: Tuple[CubicalCell, ...]
    child_id: int
    level: Optional[int] = None

    kind = "split"

    def apply(self, state: CellSet) -> CellSet:
        removed = frozenset(self.removed)
        if not removed <= state:
            raise ReplayMismatch("split: arc cells not present")
        return (state - removed) | frozenset(self.added)

    @property
    def changed_cells(self) -> CellSet:
        return frozenset(self.added)

    def cells_by_dim(self, m: int) -> Tuple[Tuple[int, Tuple[CubicalCell, ...]], ...]:
        return ((m - 1, self.cycle_cells), (m, self.removed), (m, self.added))

    def line(self) -> str:
        return "split cycle=" + ",".join(_tokens(self.cycle_cells))

    def to_json(self) -> Dict:
        return {
            "kind": self.kind,
            "cycle": _tokens(self.cycle_cells),
            "removed": _tokens(self.removed),
            "added": _tokens(self.added),
            "child": self.child_id,
            "level": self.level,
        }

    @classmethod
    def from_json(cls, obj: Dict) -> "SplitStep":
        return cls(
            cycle_cells=_cells(obj["cycle"]),
            removed=_cells(obj["removed"]),
            added=_cells(obj["added"]),
            child_id=obj["child"],
            level=obj.get("level"),
        )


@dataclass(frozen=True)
class TerminalStep:
    """How the run ended; `center` is the irreducibility witness, if any."""

    center: Optional[CubicalCell]
    status: str

    kind = "terminal"
    changed_cells = frozenset()

    def apply(self, state: CellSet) -> CellSet:
        return state

    def cells_by_dim(self, m: int) -> Tuple[Tuple[int, Tuple[CubicalCell, ...]], ...]:
        return ()

    def line(self) -> str:
        center = cell_token(self.center) if self.center is not None else "-"
        return f"terminal center={center}"

    def to_json(self) -> Dict:
        return {
            "kind": self.kind,
            "center": cell_token(self.center) if self.center is not None else None,
            "status": self.status,
        }

    @classmethod
    def from_json(cls, obj: Dict) -> "TerminalStep":
        center = obj.get("center")
        return cls(center=parse_cell_token(center) if center else None, status=obj["status"])


Step = Union[MoveStep, ReplaceStep, SplitStep, TerminalStep]

_STEP_KINDS = {cls.kind: cls for cls in (MoveStep, ReplaceStep, SplitStep, TerminalStep)}


def step_from_json(obj: Dict) -> Step:
    """The step record a JSON object describes; KeyError on an unknown kind."""
    return _STEP_KINDS[obj["kind"]].from_json(obj)


@dataclass(frozen=True)
class DeformationTrace:
    """Ordered record of steps taking `initial` to `final`."""

    ambient: AmbientSpace
    m: int
    initial: Tuple[CubicalCell, ...]
    steps: Tuple[Step, ...]
    final: Tuple[CubicalCell, ...]

    def states(self) -> List[CellSet]:
        """State after the initial complex and after every step."""
        state = frozenset(self.initial)
        out = [state]
        for step in self.steps:
            state = step.apply(state)
            out.append(state)
        return out


def replay(trace: DeformationTrace) -> ManifoldComplex:
    """Re-run the trace from the initial state, checking the final state."""
    state = frozenset(trace.initial)
    for step in trace.steps:
        state = step.apply(state)
    if state != frozenset(trace.final):
        raise ReplayMismatch("replayed final state differs from recorded final")
    return ManifoldComplex(trace.ambient, trace.m, state)
