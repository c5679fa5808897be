"""Contraction engine: peak replacement, split-and-recurse, termination.

Each iteration scans radii for the best reducible arc, deforms it onto its
filling through elementary moves, and repeats.  When the lofted fillings
of a selected arc run through the arc itself, the region is cut out
instead and contracted recursively as a separate closed manifold.  The run
terminates at an irreducible sphere, or with obstruction evidence when
nothing reduces and a probe finds a cycle whose minimum filling threads
the manifold, which is the observable signature of a handle.

A node's one record of how it ended is the `TerminalStep` closing its
trace (`ContractionNode.terminal`).  M is the connected sum of the nodes'
pieces, a sphere only when each is, so `ContractionResult.status` reads
every node.

One `_Run` carries the variant, the node counter and the finished
nodes of a contraction.  Each manifold state gets one `ScanContext`, built
when the state is reached and dropped when it changes, so every radius and
every arc of the state shares its enclosed region and its one cut network.
Each state is validated at most once: the input in `contract`, and on the
split path the replaced state with the child.  `interpolate` validates
nothing: each of its flips is a local simple-flip test (`deform.flip_ok`),
at most k(k+1)/2 per region of k flips, and simple flips keep a valid
state valid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .cells import CubicalCell
from .complexes import Cycle, ManifoldComplex, check_margin, components, region_boundary, validate
from .curviness import (
    CurvinessReport,
    arc_sign,
    radius_schedule_from,
    valid_reports,
)
from .deform import (
    DeformationTrace,
    ObstructionEvidence,
    ReplaceStep,
    SplitStep,
    TerminalStep,
    interpolate,
)
from .errors import (
    DimensionUnsupported,
    FillingNotFound,
    InterpolationFailed,
    NoFittingCycle,
    NotSeparating,
    SearchBudgetExceeded,
    ValidationFailed,
)
from .filling import Filling, ScanContext, check_variant, jordan_split, lofted, min_filling
from .metric import ball, diameter

_MAX_ITERATIONS = 10_000  # replacement rounds per node before it ends exhausted
_PROBE_BUDGET = 20_000  # search nodes per filling in the obstruction probe
_MOVES_PER_CELL = 10  # flips per arc cell one interpolation may use


_EXIT_CODES = {"obstruction": 2, "exhausted": 3, "irreducible_sphere": 0}  # worst first


@dataclass(frozen=True)
class ContractionNode:
    node_id: int
    initial: ManifoldComplex
    final: ManifoldComplex
    trace: DeformationTrace
    glue: Optional[Tuple[Cycle, Filling]]
    children: Tuple["ContractionNode", ...]

    @property
    def terminal(self) -> TerminalStep:
        """How the node ended: its trace's last step."""
        return self.trace.steps[-1]


@dataclass(frozen=True)
class ContractionResult:
    root: ContractionNode
    nodes: Tuple[ContractionNode, ...]

    @property
    def status(self) -> str:
        """The worst status any node ended with: the verdict on all of M."""
        ends = {node.terminal.status for node in self.nodes}
        return next(s for s in _EXIT_CODES if s in ends)

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.status]


def is_irreducible_sphere(M: ManifoldComplex) -> Optional[CubicalCell]:
    """Witness cell all m-cells of M touch, if one exists.

    A manifold equal to the boundary of one (m+1)-cell, or small enough
    that a single ambient cell meets every m-cell, is as contracted as the
    grid allows.  Touching is an interval test per axis, so the witness
    spans the axes where the largest m-cell base exceeds the smallest top.
    """
    n = M.ambient.n
    low = [max(c.base[i] for c in M.cells) for i in range(n)]
    high = [min(c.base[i] + (i in c.axes) for c in M.cells) for i in range(n)]
    if any(lo > hi + 1 for lo, hi in zip(low, high)):
        return None
    axes = tuple(i for i in range(n) if low[i] > high[i])
    return CubicalCell(len(axes), tuple(lo - (i in axes) for i, lo in enumerate(low)), axes)


def radius_sweep(M: ManifoldComplex) -> List[int]:
    """Radii in scan order: the halving schedule, then the remaining radii."""
    d, _ = diameter(M)
    gmax = max(1, d // 2)
    sched = list(radius_schedule_from(d))
    rest = [g for g in range(gmax, 0, -1) if g not in set(sched)]
    return sched + rest


def probe_obstruction(M: ManifoldComplex) -> Optional[ObstructionEvidence]:
    """Search for a cycle whose minimum filling threads the manifold.

    Around every center and radius, boundary rings of balls are tested:
    a ring that fails to separate M is reported with its cells (by Jordan,
    a certificate), and a ring whose minimum filling is smaller than its
    smaller side yet passes through M with the cells it passes through.

    A curve (m = 1) has no such ring, so its probe returns None at once: a
    ball's boundary is a set of vertices, each vertex is a piece of its
    own, and a single vertex is never a valid cycle.
    """
    if M.m == 1:
        return None
    d, _ = diameter(M)
    gmax = max(1, d // 2)
    for center in M.index.centers:  # the closure's cells, in canonical order
        for g in range(1, gmax + 1):
            region = ball(M, center, g)
            if not region or len(region) == len(M.cells):
                continue
            bd = region_boundary(region)
            for comp in components(bd):
                cyc = Cycle(frozenset(comp), M.m)
                if not cyc.is_valid():
                    continue
                try:
                    small, _large = jordan_split(M, cyc)
                except NotSeparating:
                    return ObstructionEvidence(
                        kind="non_separating",
                        center=center,
                        gamma=g,
                        level=g,
                        cells=cyc.canonical_cells(),
                    )
                try:
                    filling = min_filling(M.ambient, cyc, cap=min(12, len(small)), node_budget=_PROBE_BUDGET)
                except (FillingNotFound, SearchBudgetExceeded):
                    continue
                hits = filling.cells & M.cells
                if filling.N < len(small) and hits:
                    return ObstructionEvidence(
                        kind="lofted_intersection",
                        center=center,
                        gamma=g,
                        level=g,
                        cells=tuple(sorted(hits)),
                    )
    return None


class _Run:
    """One contraction: its variant, node counter and finished nodes."""

    def __init__(self, variant: str):
        self.variant = variant
        self.counter = itertools.count()
        self.nodes: List[ContractionNode] = []

    def try_apply(self, ctx: ScanContext, report: CurvinessReport, chi: int):
        """Attempt one replacement.

        Returns None when it does not apply, else (new manifold, its trace
        steps, the contracted split child or None).  `interpolate` reaches
        the replaced state by simple flips only, so it is valid; on the
        split path it is validated here, with the split child.
        """
        M = ctx.M
        arc, filling = report.arc, report.filling
        new_M = M.replace(arc.region, filling.cells)
        if new_M.euler_characteristic() != chi:
            return None
        removed = tuple(sorted(arc.region - filling.cells))
        added = tuple(sorted(filling.cells - arc.region))

        obstructed = False
        level = None
        loft_summary: Tuple = ()
        try:
            levels = lofted(ctx, arc)
            loft_summary = tuple((lv.level, len(lv.circle.cells), lv.filling.N, lv.meets_arc) for lv in levels)
            for lv in levels:
                if lv.meets_arc:
                    obstructed, level = True, lv.level
                    break
        except NoFittingCycle as err:
            obstructed, level = True, err.level
        except FillingNotFound:
            obstructed = True

        if not obstructed:
            try:
                moves = interpolate(M, arc, filling, _MOVES_PER_CELL * len(arc.region))
            except InterpolationFailed:
                pass
            else:
                marker = ReplaceStep(
                    center=arc.center, gamma=arc.gamma, removed=removed, added=added,
                    sign=arc_sign(ctx, arc, filling), lofted=loft_summary,
                )
                return new_M, moves + [marker], None

        # Split branch: cut the arc out, close it with the filling, recurse.
        child = ManifoldComplex(M.ambient, M.m, arc.region | filling.cells)
        if not (validate(new_M).ok and validate(child).ok):
            return None
        child_node = self.contract_node(child, glue=(arc.cycle, filling))
        split = SplitStep(
            cycle_cells=arc.cycle.canonical_cells(), removed=removed, added=added,
            child_id=child_node.node_id, level=level,
        )
        return new_M, [split], child_node

    def contract_node(self, M: ManifoldComplex, glue) -> ContractionNode:
        node_id = next(self.counter)
        initial = M
        steps: List = []
        children: List[ContractionNode] = []
        for _ in range(_MAX_ITERATIONS):
            witness = is_irreducible_sphere(M)
            if witness is not None:
                terminal = TerminalStep(center=witness, status="irreducible_sphere")
                break
            chi = M.euler_characteristic()
            ctx = ScanContext(M, self.variant)
            reports = (r for gamma in radius_sweep(M) for r in valid_reports(ctx, gamma))
            applied = next(filter(None, (self.try_apply(ctx, r, chi) for r in reports)), None)
            if applied is not None:
                M, new_steps, child = applied
                steps.extend(new_steps)
                if child is not None:
                    children.append(child)
                continue
            probe = probe_obstruction(M)
            if probe is not None:
                terminal = TerminalStep(center=None, status="obstruction", evidence=(probe,))
            else:
                terminal = TerminalStep(center=None, status="exhausted", reason="no reducible arc at any radius")
            break
        else:
            terminal = TerminalStep(center=None, status="exhausted", reason="iteration cap reached")
        steps.append(terminal)

        trace = DeformationTrace(
            ambient=initial.ambient, m=initial.m, initial=initial.canonical_cells(),
            steps=tuple(steps), final=M.canonical_cells(),
        )
        node = ContractionNode(
            node_id=node_id, initial=initial, final=M, trace=trace, glue=glue, children=tuple(children),
        )
        self.nodes.append(node)
        return node


def contract(M: ManifoldComplex, variant: str = "ratio") -> ContractionResult:
    """Contract a closed manifold, ranking arcs by `variant`, and return
    the full split tree.

    Raises ValueError for an unknown variant or a vertex of M on the
    ambient boundary, DimensionUnsupported when M is a set of vertices,
    and ValidationFailed when M is not a closed regular manifold.
    """
    check_variant(variant)
    if M.m < 1:
        raise DimensionUnsupported(M.m)
    check_margin(M.ambient, M.cells)
    report = validate(M)
    if not report.ok:
        raise ValidationFailed(report)
    run = _Run(variant)
    root = run.contract_node(M, glue=None)
    return ContractionResult(root=root, nodes=tuple(run.nodes))
