import json
from pathlib import Path

import pytest

import gridtopo
from gridtopo import ManifoldComplex, contract, validate
from gridtopo.cells import cell_token, parse_cell_token
from gridtopo.cli import main
from gridtopo.deform import SplitStep, replay
from gridtopo.errors import GridTopoError, ParseError, ReplayMismatch, ValidationFailed
from gridtopo.io import (
    load_fixture,
    load_trace,
    save_fixture,
    save_trace,
    trace_from_json,
    trace_lines,
)
from gridtopo.render import render

from conftest import FIXTURE_DIR
from util import GOLDEN_DIR


def test_load_named_fixtures(sq1, rect12, ushape, box111, box211, box333, torus):
    expected = {
        "sq1.txt": sq1,
        "rect12.txt": rect12,
        "ushape.txt": ushape,
        "box111.txt": box111,
        "box211.txt": box211,
        "box333.txt": box333,
        "torus.txt": torus,
    }
    for name, M in expected.items():
        loaded = load_fixture(FIXTURE_DIR / name)
        assert loaded.cells == M.cells
        assert loaded.ambient == M.ambient


def test_round_trip(tmp_path, ushape):
    p = tmp_path / "u.txt"
    save_fixture(ushape, p)
    again = load_fixture(p)
    q = tmp_path / "u2.txt"
    save_fixture(again, q)
    assert p.read_text() == q.read_text()


def test_parse_error_duplicate(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("ambient 2 0:4 0:4\ncell 0 0 axes 0\ncell 0 0 axes 0\n")
    with pytest.raises(ParseError) as err:
        load_fixture(p)
    assert err.value.line_no == 3


def test_parse_error_no_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("cell 0 0 axes 0\n")
    with pytest.raises(ParseError):
        load_fixture(p)


@pytest.mark.parametrize("extents", ["-2:5", "-2:5 -2:5 9:9"])
def test_parse_error_ambient_extent_count(tmp_path, extents):
    """The header names n extents: a missing or extra one is refused, not
    dropped."""
    p = tmp_path / "bad.txt"
    p.write_text(f"ambient 2 {extents}\ncell 0 0 axes 0\n")
    with pytest.raises(ParseError, match="bad ambient header") as err:
        load_fixture(p)
    assert err.value.line_no == 1


def test_parse_error_degenerate_extent(tmp_path):
    """An extent that spans no unit cell is a bad header too, refused at
    its line with the axis named."""
    p = tmp_path / "bad.txt"
    p.write_text("ambient 2 4:0 -2:5\ncell 0 0 axes 0\n")
    with pytest.raises(ParseError, match="bad ambient header.*axis 0 spans -4 units") as err:
        load_fixture(p)
    assert err.value.line_no == 1


def test_load_pinch_fails_validation():
    with pytest.raises(ValidationFailed) as err:
        load_fixture(FIXTURE_DIR / "pinch.txt")
    assert not err.value.report.link_spheres_ok


def test_comments_and_ordering_ignored(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text(
        "# a comment\nambient 2 -2:5 -2:5\n"
        "cell 0 0 axes 1\ncell 0 0 axes 0  # trailing\ncell 0 1 axes 0\ncell 1 0 axes 1\n"
    )
    M = load_fixture(p)
    assert M.n_cells == 4


def test_trace_save_load_replay(tmp_path, rect12):
    res = contract(rect12)
    out = tmp_path / "trace.json"
    save_trace(res.root.trace, out)
    again = load_trace(out)
    assert again == res.root.trace
    lines = trace_lines(again)
    assert any(l.startswith("move flip=") for l in lines)
    assert any(l.startswith("replace x=") for l in lines)
    assert lines[-1].startswith("terminal center=")


def test_render_frame_count(tmp_path, rect12):
    res = contract(rect12)
    paths = render(res.root.trace, tmp_path / "frames")
    assert len(paths) == len(res.root.trace.steps) + 1
    assert all(p.suffix == ".svg" for p in paths)
    # RECT12: initial, one move frame, replace marker frame, terminal frame
    assert len(paths) == 4


def test_render_obj_quads(tmp_path, box211):
    res = contract(box211)
    paths = render(res.root.trace, tmp_path / "frames", fmt="obj-3d")
    first = paths[0].read_text().splitlines()
    last = paths[-1].read_text().splitlines()
    assert sum(1 for l in first if l.startswith("f ")) == 10
    assert sum(1 for l in last if l.startswith("f ")) == 6


def test_render_corrupted_trace(tmp_path, rect12):
    res = contract(rect12)
    doc = res.root.trace
    broken = doc.__class__(
        ambient=doc.ambient,
        m=doc.m,
        initial=doc.initial,
        steps=doc.steps,
        final=doc.initial,  # wrong final
    )
    with pytest.raises(ReplayMismatch):
        render(broken, tmp_path / "frames")


def test_render_determinism(tmp_path, rect12):
    res = contract(rect12)
    a = render(res.root.trace, tmp_path / "a")
    b = render(res.root.trace, tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_cli_validate_ok(capsys):
    rc = main(["validate", str(FIXTURE_DIR / "sq1.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "closed=True" in out


def test_cli_validate_bad(capsys):
    rc = main(["validate", str(FIXTURE_DIR / "pinch.txt")])
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == [
        "cells=2 m=2 ambient_n=2",
        "manifold=True closed=False regular=False links=False offending=[Cell(1,1|), Cell(1,1|0,1)]",
    ]


def test_cli_distances(capsys):
    rc = main(["distances", str(FIXTURE_DIR / "sq1.txt")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6  # all vertex pairs of the square
    assert lines[0].split() == ["0,0", "0,1", "1", "1"]


# The whole `--all` table over the radii `contract` scans, in its order
# (ushape's are 2, 1, 4, 3; radius 4 has no report), the one reader of all
# four measures: center, radius, r, r1, height, height over span.
CURVINESS_TABLES = {
    "ushape": [
        "0,3|0 2 5 4 2 2", "1,1|0 2 5 4 2 2", "2,3|0 2 5 4 2 2",
        "0,3|0 1 3 2 1 1", "1,1|0 1 3 2 1 1", "2,3|0 1 3 2 1 1",
        "0,2|1 3 7 6 2 2", "3,2|1 3 7 6 2 2", "1,1| 3 3/2 2 2 2/3", "2,1| 3 3/2 2 2 2/3",
        "1,1|0 3 7/5 2 3 3/4",
    ],
    "rect12": ["0,0|1 1 3 2 1 1", "2,0|1 1 3 2 1 1"],
    "box211": ["0,0,0|1,2 1 5 4 1 1/2", "2,0,0|1,2 1 5 4 1 1/2"],
}


def test_cli_curviness(capsys):
    rc = main(["curviness", str(FIXTURE_DIR / "ushape.txt"), "--radius", "2", "--all"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines, "expected at least one report row"
    first = lines[0].split()
    assert first[1] == "2" and first[2] == "5"
    for name, rows in CURVINESS_TABLES.items():
        assert main(["curviness", str(FIXTURE_DIR / f"{name}.txt"), "--all"]) == 0
        assert capsys.readouterr().out.splitlines() == rows
    # Without --all only the first report: box333's halving schedule (2, 1)
    # has none, and its first is the radius-3 arc `contract` splits off.
    assert main(["curviness", str(FIXTURE_DIR / "box333.txt")]) == 0
    assert capsys.readouterr().out.splitlines() == ["0,1,1|1,2 3 25/17 8 1 1/6"]


def test_readme_imports_every_exported_function():
    """The import block of README's "Library entry points" runs, and it
    imports every function `gridtopo` exports, so the two cannot drift
    apart."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library entry points", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    functions = {name for name in gridtopo.__all__ if name[0].islower()}
    assert functions - set(names) == set()


def test_cli_contract_and_render(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    frames = tmp_path / "frames"
    rc = main(
        [
            "contract",
            "--input",
            str(FIXTURE_DIR / "rect12.txt"),
            "--trace-out",
            str(trace_path),
            "--frames-out",
            str(frames),
        ]
    )
    assert rc == 0
    assert trace_path.exists()
    assert len(list(frames.glob("frame_*.svg"))) == 4
    rc = main(["render", "--trace", str(trace_path), "--out", str(tmp_path / "again")])
    assert rc == 0
    assert len(list((tmp_path / "again").glob("frame_*.svg"))) == 4


def test_cli_contract_exit_code_obstruction(tmp_path):
    rc = main(["--quiet", "contract", "--input", str(FIXTURE_DIR / "torus.txt")])
    assert rc == 2


def test_cli_contract_space_curve(tmp_path, capsys):
    """A closed curve in a 3-D ambient: no voxel is enclosed between an
    arc and its filling, so every replacement splits instead.  Pinned by
    its golden trace."""
    trace_path = tmp_path / "t.json"
    rc = main(["contract", "--input", str(FIXTURE_DIR / "spacecurve.txt"), "--trace-out", str(trace_path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("status=irreducible_sphere nodes=6\n")
    assert trace_path.read_bytes() == (GOLDEN_DIR / "spacecurve.json").read_bytes()


def test_cli_contract_prints_every_node(capsys):
    """Without --quiet, the root's trace lines come first, then each
    child's under a `node <id>` line in id order, so the nodes that decide
    a split run show; the first line is the verdict over every node."""
    assert main(["contract", "--input", str(FIXTURE_DIR / "spacecurve.txt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "status=irreducible_sphere nodes=6"
    headers = [line for line in lines if line.startswith("node ")]
    assert headers == ["node 1", "node 2", "node 3", "node 4", "node 5"]
    # every node's block, the root's too, ends with its terminal line
    ends = [lines.index(h) - 1 for h in headers] + [len(lines) - 1]
    assert all(lines[i].startswith("terminal ") for i in ends)


@pytest.mark.parametrize(
    "name, fmt",
    [("spacecurve", "auto"), ("ushape", "obj-3d"), ("box111", "svg-2d")],
)
def test_render_rejects_format_it_cannot_draw(tmp_path, capsys, name, fmt):
    """A format that cannot draw the trace's cells fails before any frame
    is written: `render` raises, and the CLI exits 4, `contract` before
    it contracts."""
    trace = load_trace(GOLDEN_DIR / f"{name}.json")
    frames = tmp_path / "frames"
    with pytest.raises(GridTopoError, match="draws"):
        render(trace, frames, fmt=fmt)
    assert not frames.exists()
    rc = main(["render", "--trace", str(GOLDEN_DIR / f"{name}.json"), "--out", str(frames), "--format", fmt])
    assert rc == 4 and capsys.readouterr().err.startswith("error:")
    trace_path = tmp_path / "t.json"
    argv = ["contract", "--input", str(FIXTURE_DIR / f"{name}.txt"), "--trace-out", str(trace_path)]
    rc = main(argv + ["--frames-out", str(frames), "--format", fmt])
    assert rc == 4 and capsys.readouterr().err.startswith("error:")
    assert not trace_path.exists() and not frames.exists()


def test_parse_error_margin(tmp_path):
    p = tmp_path / "edge.txt"
    p.write_text(
        "ambient 2 0:4 -2:5\n"
        "cell 0 0 axes 0\ncell 0 0 axes 1\ncell 0 1 axes 0\ncell 1 0 axes 1\n"
    )
    with pytest.raises(ParseError, match="axis 0"):
        load_fixture(p)


def test_malformed_trace(tmp_path, capsys):
    with pytest.raises(ParseError):
        trace_from_json({"format": "gridtopo-trace"})
    p = tmp_path / "bad.json"
    for text in (json.dumps({"format": "gridtopo-trace"}), "{not json"):
        p.write_text(text)
        rc = main(["render", "--trace", str(p), "--out", str(tmp_path / "frames")])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error:")


def test_malformed_trace_degenerate_extent():
    """A trace whose ambient has an axis spanning no unit cell is a
    malformed document: ParseError at line 0, with the axis named."""
    doc = json.loads((GOLDEN_DIR / "sq1.json").read_text())
    doc["ambient"]["extent"][0] = [5, 5]
    with pytest.raises(ParseError, match="axis 0 spans 0 units") as err:
        trace_from_json(doc)
    assert err.value.line_no == 0


@pytest.mark.parametrize(
    "name, edit, error",
    [
        ("sq1", lambda d: d.update(format="not-a-trace"), "not a gridtopo-trace version 1 document"),
        ("sq1", lambda d: d.update(version=99), "not a gridtopo-trace version 1 document"),
        ("sq1", lambda d: d.update(initial=[]), "empty"),
        ("spacecurve", lambda d: d["children"]["1"].update(format="not-a-trace"), "not a gridtopo-trace"),
        ("spacecurve", lambda d: d["children"]["2"].update(final=[]), "empty"),
    ],
)
def test_render_refuses_another_format_or_an_empty_state(tmp_path, capsys, name, edit, error):
    """A golden trace whose root or child names another format or version,
    or has an empty initial or final state, does not parse: `render`
    exits 4 with an error line and writes no frames."""
    doc = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    edit(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    frames = tmp_path / "frames"
    assert main(["render", "--trace", str(p), "--out", str(frames)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: line 0: ") and error in err
    assert not frames.exists()


SQ1 = ["0,0|0", "0,0|1", "0,1|0", "1,0|1"]


@pytest.mark.parametrize(
    "states, steps",
    [
        (SQ1 + ["0,0|0,1"], []),  # a 2-cell in a curve
        (["0,0,0|0"], []),  # three coordinates in a 2-d ambient
        (SQ1 + ["9,0|1"], []),  # outside the ambient's -2:5
        (SQ1, [{"kind": "move", "flip": "0,0|0"}]),  # a flip across an edge
    ],
)
def test_render_refuses_cells_that_do_not_fit_the_trace(tmp_path, capsys, states, steps):
    """sq1's golden trace with cells that do not fit it does not parse:
    `render` exits 4 with an error line, not a traceback or frames."""
    doc = json.loads((GOLDEN_DIR / "sq1.json").read_text())
    doc["initial"] = doc["final"] = states
    doc["steps"] = steps + doc["steps"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    frames = tmp_path / "frames"
    assert main(["render", "--trace", str(p), "--out", str(frames)]) == 4
    assert capsys.readouterr().err.startswith("error: line 0: cell ")
    assert not frames.exists()


def test_render_refuses_a_move_that_is_not_a_simple_flip(tmp_path, capsys):
    """ushape's trace with one move across the square between the U's arms,
    `1,2|0,1`, and its final state flipped to match.  The square meets the
    curve in two opposite edges, so the move is no simple flip and its
    result no manifold: replay refuses it, and `render` exits 4 with an
    error line and writes no frames."""
    doc = json.loads((GOLDEN_DIR / "ushape.json").read_text())
    flip = parse_cell_token("1,2|0,1")
    final = frozenset(map(parse_cell_token, doc["initial"])) ^ frozenset(flip.faces())
    assert not validate(ManifoldComplex(load_fixture(FIXTURE_DIR / "ushape.txt").ambient, 1, final)).ok
    doc["steps"] = [{"kind": "move", "flip": cell_token(flip)}]
    doc["final"] = [cell_token(c) for c in sorted(final)]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    frames = tmp_path / "frames"
    assert main(["render", "--trace", str(p), "--out", str(frames)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a simple flip" in err
    assert not frames.exists()


def test_replay_refuses_a_split_that_adds_cells_already_present():
    """spacecurve's trace with its first split also adding a cell the state
    already holds.  The union would hide the extra cell and the final
    would still match, so the split itself refuses it."""
    doc = json.loads((GOLDEN_DIR / "spacecurve.json").read_text())
    trace = trace_from_json(doc)
    i, split = next((i, s) for i, s in enumerate(trace.steps) if isinstance(s, SplitStep))
    kept = min(trace.states()[i] - frozenset(split.removed))
    doc["steps"][i]["added"].append(cell_token(kept))
    with pytest.raises(ReplayMismatch, match="added cells already present"):
        replay(trace_from_json(doc))


@pytest.mark.parametrize(
    "argv",
    [
        ["curviness", str(FIXTURE_DIR / "ushape.txt"), "--radius", "-1"],
        ["curviness", str(FIXTURE_DIR / "ushape.txt"), "--radius", "0"],
    ],
)
def test_cli_rejects_non_positive(argv, capsys):
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["contract", "--bogus"],
        ["contract", "--input", str(FIXTURE_DIR / "rect12.txt"), "--bogus"],
        ["contract"],
        ["contract", "--input", str(FIXTURE_DIR / "rect12.txt"), "--variant", "bogus"],
        ["bogus"],
        [],
        ["curviness", str(FIXTURE_DIR / "ushape.txt"), "--radius", "two"],
        # the caps are fixed: a script that still passes one gets a usage
        # error, not exit 2, which `contract` means as "obstruction"
        ["contract", "--input", str(FIXTURE_DIR / "rect12.txt"), "--filling-cap", "0"],
        ["contract", "--input", str(FIXTURE_DIR / "rect12.txt"), "--move-cap", "-2"],
        ["contract", "--input", str(FIXTURE_DIR / "sq1.txt"), "--filling-cap", "8"],
        ["--bogus"],
    ],
)
def test_cli_usage_error_exits_4(argv, capsys):
    """A command line that does not parse is bad input, exit 4 with one
    `error: ...` line, not argparse's exit 2 with a usage block.  An
    unknown option is named even when `--input` is missing too."""
    assert main(argv) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1
    if "--bogus" in argv:
        assert out.err == "error: unrecognized arguments: --bogus\n"
    if argv == ["contract"]:
        assert out.err == "error: the following arguments are required: --input\n"


@pytest.mark.parametrize("argv", [["--help"], ["contract", "--help"]])
def test_cli_help_exits_0(argv, capsys):
    """`--help` still exits 0; `contract` lists no cap, the caps being fixed."""
    with pytest.raises(SystemExit) as exit:
        main(argv)
    assert exit.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: gridtopo") and "cap" not in out


@pytest.mark.parametrize("case", ["missing", "directory", "latin-1"])
def test_cli_validate_unreadable_fixture(tmp_path, capsys, case):
    """A fixture that cannot be read is bad input, exit 4, not a traceback
    (which exits 1, the code for "not a manifold")."""
    path = tmp_path / "fixture.txt"
    if case == "directory":
        path.mkdir()
    elif case == "latin-1":
        path.write_bytes((FIXTURE_DIR / "box111.txt").read_bytes() + "# caf\xe9\n".encode("latin-1"))
    assert main(["validate", str(path)]) == 4
    assert capsys.readouterr().err.startswith("error:")


def test_cli_contract_refuses_a_point(tmp_path, capsys):
    """`validate` reports a single vertex; `contract` refuses it, exit 4."""
    path = tmp_path / "point.txt"
    path.write_text("ambient 2 -2:5 -2:5\ncell 1 1 axes\n")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["contract", "--input", str(path)]) == 4
    assert capsys.readouterr().err == "error: needs a manifold of dimension m >= 1, got m=0\n"


@pytest.mark.parametrize("radius", [[], ["--radius", "1"]])
def test_cli_curviness_refuses_a_point(tmp_path, capsys, radius):
    """`curviness` refuses a single vertex as `contract` does, exit 4,
    before it computes any radius: it has no arc at any."""
    path = tmp_path / "point.txt"
    path.write_text("ambient 2 -2:5 -2:5\ncell 1 1 axes\n")
    assert main(["curviness", str(path), *radius]) == 4
    assert capsys.readouterr().err == "error: needs a manifold of dimension m >= 1, got m=0\n"


def test_cli_render_missing_trace(tmp_path, capsys):
    rc = main(["render", "--trace", str(tmp_path / "none.json"), "--out", str(tmp_path / "frames")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error:")


def test_cli_contract_trace_out_in_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "trace.json"
    rc = main(["--quiet", "contract", "--input", str(FIXTURE_DIR / "rect12.txt"), "--trace-out", str(out)])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error:")
    assert not out.parent.exists()
