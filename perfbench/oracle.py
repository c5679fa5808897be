"""Independent checks of gridtopo outputs.

Nothing here calls gridtopo.  Cells are plain ``(base, axes)`` tuples and
every check is written from the definitions, so a defect in the program's
own validation or replay cannot hide a defect in its results.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import combinations, product


def faces(cell):
    """The 2*dim cells bounding ``cell``."""
    base, axes = cell
    out = []
    for a in axes:
        rest = tuple(x for x in axes if x != a)
        shifted = list(base)
        shifted[a] += 1
        out.append((base, rest))
        out.append((tuple(shifted), rest))
    return out


def vertices(cell):
    base, axes = cell
    out = []
    for offs in product((0, 1), repeat=len(axes)):
        v = list(base)
        for a, o in zip(axes, offs):
            v[a] += o
        out.append(tuple(v))
    return out


def closure(cells):
    out = set()
    todo = list(cells)
    while todo:
        c = todo.pop()
        if c in out:
            continue
        out.add(c)
        todo.extend(faces(c))
    return out


def euler_characteristic(cells):
    return sum((-1) ** len(axes) for _base, axes in closure(cells))


def boundary_of_solid(tops):
    """Top-dimensional cells' boundary: faces met an odd number of times."""
    counts = Counter(f for t in tops for f in faces(t))
    return sorted(f for f, k in counts.items() if k % 2)


def _connected(nodes, neighbours):
    nodes = list(nodes)
    if not nodes:
        return False
    seen = {nodes[0]}
    todo = [nodes[0]]
    while todo:
        for nb in neighbours(todo.pop()):
            if nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return len(seen) == len(nodes)


def is_closed_manifold(cells):
    """A connected closed curve (m=1) or surface (m=2) without pinches.

    Every (m-1)-face lies in exactly two cells, the cells are connected
    through shared faces, and for surfaces the faces around each vertex
    form one cycle.
    """
    cells = set(cells)
    if not cells:
        return False
    by_face = {}
    for c in cells:
        for f in faces(c):
            by_face.setdefault(f, []).append(c)
    if any(len(cs) != 2 for cs in by_face.values()):
        return False
    if not _connected(cells, lambda c: (o for f in faces(c) for o in by_face[f] if o != c)):
        return False
    m = len(next(iter(cells))[1])
    if m == 1:
        return True
    at_vertex = {}
    for c in cells:
        for v in vertices(c):
            at_vertex.setdefault(v, []).append(c)
    for v, around in at_vertex.items():
        local = set(around)

        def neighbours(c, v=v, local=local):
            for f in faces(c):
                if v in vertices(f):
                    for o in by_face[f]:
                        if o != c and o in local:
                            yield o

        if not _connected(around, neighbours):
            return False
    return True


def is_irreducible(cells):
    """Some grid cell meets every cell: as contracted as the grid allows."""
    vsets = [set(vertices(c)) for c in cells]
    allv = set().union(*vsets)
    n = len(next(iter(allv)))
    lo = [min(v[i] for v in allv) - 1 for i in range(n)]
    hi = [max(v[i] for v in allv) for i in range(n)]
    for k in range(n + 1):
        for axes in combinations(range(n), k):
            for base in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
                corners = set(vertices((base, axes)))
                if all(corners & vs for vs in vsets):
                    return True
    return False


def parse_cell(token):
    b, _, a = token.partition("|")
    base = tuple(int(x) for x in b.split(","))
    axes = tuple(int(x) for x in a.split(",")) if a else ()
    return base, axes


def check_trace(doc):
    """Replay one serialised trace; returns None or the reason it fails.

    Each step must apply to the state it follows, every state the trace
    passes through must be a closed manifold, and the replay must end at
    the recorded final state.
    """
    state = {parse_cell(t) for t in doc["initial"]}
    if not is_closed_manifold(state):
        return "invalid_state"
    for step in doc["steps"]:
        kind = step["kind"]
        if kind == "move":
            bd = set(faces(parse_cell(step["flip"])))
            if not (state & bd) or not (bd - state):
                return "replay"
            state ^= bd
        elif kind == "replace":
            if state & {parse_cell(t) for t in step["removed"]}:
                return "replay"
            if not {parse_cell(t) for t in step["added"]} <= state:
                return "replay"
            continue
        elif kind == "split":
            removed = {parse_cell(t) for t in step["removed"]}
            if not removed <= state:
                return "replay"
            state = (state - removed) | {parse_cell(t) for t in step["added"]}
        elif kind == "terminal":
            continue
        else:
            return "replay"
        if not is_closed_manifold(state):
            return "invalid_state"
    if state != {parse_cell(t) for t in doc["final"]}:
        return "replay"
    return None


def check_tree(doc):
    """check_trace on a root trace and every child trace it carries."""
    for child in doc.get("children", {}).values():
        reason = check_trace(child)
        if reason:
            return reason
    return check_trace(doc)


def terminal_statuses(doc):
    """Terminal status of the root and of every child trace."""
    docs = [doc, *doc.get("children", {}).values()]
    out = []
    for d in docs:
        ends = [s["status"] for s in d["steps"] if s["kind"] == "terminal"]
        out.append(ends[-1] if ends else None)
    return out


def sphere_verdict_holds(doc):
    """Every trace in the tree ends as an irreducible sphere, truly.

    Its final state must be irreducible and, for surfaces, have chi = 2.
    """
    for d in (doc, *doc.get("children", {}).values()):
        ends = [s["status"] for s in d["steps"] if s["kind"] == "terminal"]
        final = [parse_cell(t) for t in d["final"]]
        if ends[-1:] != ["irreducible_sphere"] or not is_irreducible(final):
            return False
        if len(final[0][1]) == 2 and euler_characteristic(final) != 2:
            return False
    return True


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cells_digest(cells):
    """Digest of an input manifold, independent of set order."""
    text = "\n".join(f"{b}|{a}" for b, a in sorted(cells))
    return digest(text.encode())
