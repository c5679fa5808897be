"""Command line interface: validate, distances, curviness, contract, render."""

from __future__ import annotations

import argparse
import itertools
import sys

from . import engine, io, render as render_mod
from .cells import cell_token
from .complexes import validate
from .curviness import VARIANTS, valid_reports
from .errors import GridTopoError
from .filling import ScanContext
from .metric import all_pairs


def _cmd_validate(args) -> int:
    M = io.load_fixture(args.fixture, require_valid=False)
    report = validate(M)
    if not args.quiet:
        print(f"cells={M.n_cells} m={M.m} ambient_n={M.ambient.n}")
        print(report)
    return 0 if report.ok else 1


def _cmd_distances(args) -> int:
    M = io.load_fixture(args.fixture)
    ap = all_pairs(M)
    for u, v, dm, du in ap.pairs():
        ut = ",".join(str(x) for x in u)
        vt = ",".join(str(x) for x in v)
        print(f"{ut} {vt} {dm} {du}")
    return 0


def _cmd_curviness(args) -> int:
    M = io.load_fixture(args.fixture)
    ctx = ScanContext(M, args.variant)  # refuses a single vertex before any radius
    radii = [args.radius] if args.radius else engine.radius_sweep(M)
    # Reports come lazily, best first per radius: without --all only the
    # first one is solved for.
    reports = itertools.chain.from_iterable(valid_reports(ctx, gamma) for gamma in radii)
    if not args.all:
        reports = itertools.islice(reports, 1)
    rows = 0
    for rep in reports:
        print(
            f"{cell_token(rep.center)} {rep.gamma} "
            f"{rep.r} {rep.r1} {rep.r2_h} {rep.r3}"
        )
        rows += 1
    if not rows and not args.quiet:
        print("no valid curviness candidates", file=sys.stderr)
    return 0


def _cmd_contract(args) -> int:
    M = io.load_fixture(args.input, require_valid=False)
    if args.frames_out:
        render_mod.frame_format(args.format, M.ambient.n, M.m)
    result = engine.contract(M, args.variant)
    root = result.root
    if not args.quiet:
        # the root's lines, then each child's under its node id, in id order
        print(f"status={result.status} nodes={len(result.nodes)}")
        for node in sorted(result.nodes, key=lambda n: (n is not root, n.node_id)):
            if node is not root:
                print(f"node {node.node_id}")
            for line in io.trace_lines(node.trace):
                print(line)
    if args.trace_out:
        children = {
            n.node_id: n.trace for n in result.nodes if n.node_id != root.node_id
        }
        io.save_trace(root.trace, args.trace_out, children=children)
    if args.frames_out:
        render_mod.render(root.trace, args.frames_out, fmt=args.format)
    return result.exit_code


def _cmd_render(args) -> int:
    trace = io.load_trace(args.trace)
    paths = render_mod.render(trace, args.out, fmt=args.format)
    if not args.quiet:
        print(f"wrote {len(paths)} frames to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error instead of exiting 2, which would read as
    "obstruction" from `contract`: `main` exits 4 on it, as on any other
    bad input.  Subcommand parsers are of the same class."""

    def error(self, message):
        raise GridTopoError(message)

    def parse_known_args(self, args=None, namespace=None):
        """As argparse's, but an unknown argument is named before a missing
        required one, which argparse reports first: `contract --bogus`
        names `--bogus`.  On an error the parse is repeated with nothing
        required, and any unknown argument it leaves is the error."""
        try:
            return super().parse_known_args(args, namespace)
        except GridTopoError:
            required = [a for a in self._actions if a.required]
            for a in required:
                a.required = False
            try:
                extras = super().parse_known_args(args, namespace)[1]
            finally:
                for a in required:
                    a.required = True
            if extras:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
            raise


def positive(text: str) -> int:
    """The `--radius` type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridtopo",
        description="Contract closed cubical manifolds to irreducible discrete spheres.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress non-essential output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the manifold conditions of a fixture")
    p.add_argument("fixture")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("distances", help="print x y d_M d_U for all vertex pairs")
    p.add_argument("fixture")
    p.set_defaults(func=_cmd_distances)

    p = sub.add_parser("curviness", help="curviness scan table: x γ r r1 h r3")
    p.add_argument("fixture")
    p.add_argument("--radius", type=positive, default=None, help="scan this radius only, not the radii contract scans")
    p.add_argument("--variant", choices=VARIANTS, default="ratio")
    p.add_argument("--all", action="store_true", help="print every valid candidate, not only the first")
    p.set_defaults(func=_cmd_curviness)

    p = sub.add_parser("contract", help="contract a fixture to an irreducible sphere")
    p.add_argument("--input", required=True)
    p.add_argument("--variant", choices=VARIANTS, default="ratio")
    p.add_argument("--trace-out", default=None)
    p.add_argument("--frames-out", default=None)
    p.add_argument("--format", choices=("auto", "svg-2d", "obj-3d"), default="auto")
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("render", help="render a saved trace into frame files")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("auto", "svg-2d", "obj-3d"), default="auto")
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    """Run one command; exit 4 with an `error: ...` line on bad input: a
    command line that does not parse, or a file that cannot be read or
    written, not a crash.  `--help` exits 0."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (GridTopoError, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
