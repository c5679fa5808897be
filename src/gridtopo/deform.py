"""Elementary moves, interpolation, arc replacement, traces.

A deformation is recorded as a sequence of elementary moves, each flipping
the state across one (m+1)-cell: the new state is the symmetric difference
of the old state with the flip cell's boundary.  Replacing an arc by a
filling decomposes into one flip per cell of the region enclosed between
them.  Interpolation orders those flips in one greedy pass that peels the
region (a shelling): each step flips the first cell left, farthest from the
filling first, whose flip is simple (`flip_ok`), a local test on the flip
cell's boundary and the cells around it that keeps a valid state valid
and its topology unchanged, with no check of the whole state.  It never
backtracks, so k flips cost at most k(k+1)/2 simple-flip tests; over the
benchmark pools, criterion 7's curves, 64 random polycubes and the goldens
(1191 regions) a backtracking search made 0 backtracks.

The step records (`MoveStep`, `ReplaceStep`, `SplitStep`, `TerminalStep`)
are the whole trace format: each one replays itself onto a state, names
its cells by dimension and the cells it changes, and writes and reads its
own text line and JSON object.  Serialization (`io`) and rendering
(`render`) go through these methods, so a new step kind is added here and
nowhere else.  `flip_ok` is the one move rule: a move replays only as a
simple flip, so replay refuses any move the peel could not have taken.
`DeformationTrace.states()` is the one replay, and it refuses a trace that
does not end at its recorded final.  `TerminalStep` also holds, in memory
only, an obstruction's evidence or why a node gave up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from .cells import AmbientSpace, CubicalCell, cell_token, parse_cell_token
from .complexes import ManifoldComplex, validate
from .curviness import ArcRegion, corner_gaps
from .errors import InterpolationFailed, ReplacementNotManifold, ReplayMismatch
from .filling import Filling, enclosed_cells

CellSet = FrozenSet[CubicalCell]


def flip_ok(state: CellSet, flip_cell: CubicalCell) -> Optional[CellSet]:
    """The state flipped across an (m+1)-cell c when the flip is simple, else None.

    With B = ∂c ∩ M and G its complement in ∂c, the flip swaps B for G.
    It is simple (Kong & Rosenfeld, CVGIP 1989; Couprie & Bertrand, TPAMI
    2009) when two local rules hold; then the new state is M with one
    m-ball swapped for another of the same boundary, so a valid state stays
    valid and keeps its topology, with no check of the whole state.

    - Ball rule: B is an m-ball (so is G) exactly when some axis of c has
      one of its two facets in M, not both and not neither; a union of
      opposite facet pairs is a sphere times a cube.  B and G are then
      non-empty: the flip touches the state and does not detach it.
    - Rim rule: no cell of cl(G) \\ cl(B) of dimension < m lies in an
      m-cell of M, so G meets the rest of M only along ∂B.  Such a cell
      fixes two or more axes of c, each at a facet in G, and spans the
      rest.  It is enough to test the least of them: the cells that fix
      every axis with a facet in G, at such a facet, and span the axes
      whose facets are both in B.  Each other one has one of these as a
      face, and so lies in every m-cell that contains it.
    """
    facets = tuple(flip_cell.faces())  # per axis of c, its low then its high facet
    in_m = [f in state for f in facets]
    if in_m[0::2] == in_m[1::2]:
        return None
    m, base = flip_cell.dim - 1, flip_cell.base
    spans, fixed = (), []  # fixed: each axis with a facet in G, and those facets' coordinates
    for i, a in enumerate(flip_cell.axes):
        lo, hi = in_m[2 * i], in_m[2 * i + 1]
        if lo and hi:
            spans += (a,)
        else:
            fixed.append((a, [x for x, inside in ((base[a], lo), (base[a] + 1, hi)) if not inside]))
    if len(fixed) >= 2:
        free = [a for a in range(len(base)) if a not in spans]
        for coords in product(*(xs for _, xs in fixed)):
            rim = list(base)
            for (a, _), x in zip(fixed, coords):
                rim[a] = x
            for extra in combinations(free, m - len(spans)):
                axes = tuple(sorted(spans + extra))
                for offs in product((0, -1), repeat=len(extra)):
                    b = rim[:]
                    for a, o in zip(extra, offs):
                        b[a] += o
                    if CubicalCell(m, tuple(b), axes) in state:
                        return None
    return state.symmetric_difference(facets)


def interpolate(
    M: ManifoldComplex,
    arc: ArcRegion,
    filling: Filling,
    move_cap: int,
) -> List["MoveStep"]:
    """Order of single flips deforming the arc onto the filling.

    The flips are exactly the top cells enclosed between arc and filling.
    One greedy pass peels them, farthest from the filling first, each step
    taking the first cell left whose flip is simple (`flip_ok`), so k flips
    cost at most k(k+1)/2 local tests and no state is validated.  Simple
    flips from a valid M keep it valid, so an invalid goal (the replaced
    state) is never reached: the pass gets stuck.  A stuck pass, or a
    filling of another cycle than the arc's (the two would not close up),
    raises InterpolationFailed.
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

    cells = list(region)
    gap = dict(zip(cells, corner_gaps(cells, filling.vertices)))
    left, moves, state = sorted(cells, key=lambda w: (-gap[w], w)), [], M.cells
    while left:
        for w in left:
            new = flip_ok(state, w)
            if new is not None:
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
        new = flip_ok(state, self.flip_cell)
        if new is None:
            raise ReplayMismatch(f"flip {cell_token(self.flip_cell)} is not a simple flip of the state")
        return new

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
        removed, added = frozenset(self.removed), frozenset(self.added)
        if not removed <= state:
            raise ReplayMismatch("split: arc cells not present")
        if not added.isdisjoint(state):
            raise ReplayMismatch("split: added cells already present")
        return (state - removed) | added

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
class ObstructionEvidence:
    kind: str
    center: CubicalCell
    gamma: int
    level: Optional[int]
    cells: Tuple[CubicalCell, ...]


@dataclass(frozen=True)
class TerminalStep:
    """How the node ended; `center` is the irreducibility witness, if any.
    An obstruction's `evidence` and a gave-up `reason` are not in the JSON yet."""

    center: Optional[CubicalCell]
    status: str
    evidence: Tuple[ObstructionEvidence, ...] = field(default=(), compare=False)
    reason: Optional[str] = field(default=None, compare=False)

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
        """State after the initial complex and after every step; raises
        ReplayMismatch when a step or the recorded final does not match."""
        state = frozenset(self.initial)
        out = [state]
        for step in self.steps:
            state = step.apply(state)
            out.append(state)
        if state != frozenset(self.final):
            raise ReplayMismatch("replayed final state differs from recorded final")
        return out


def replay(trace: DeformationTrace) -> ManifoldComplex:
    """Re-run the trace from the initial state, checking the final state."""
    return ManifoldComplex(trace.ambient, trace.m, trace.states()[-1])
