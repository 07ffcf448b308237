import json
import os
import shlex
import subprocess
import sys

import pytest

from latpoly import (cli, errors, formats as F, geometry as G, deform as DF,
                     dotgraph as D, plan as PL, reduce as R)
from latpoly.render import render_svg
from test_deform import two_holes_on_two_components
from test_reduce import polytope_draw


def write_square(tmp_path):
    path = tmp_path / "square.poly"
    path.write_text(json.dumps({"ver0": [[0, 0], [1, 1]], "ver1": [[1, 0], [0, 1]]}))
    return str(path)


def test_validate_and_area(tmp_path, capsys):
    path = write_square(tmp_path)
    assert cli.main(["validate", path]) == 0
    assert cli.main(["area", path]) == 0
    out = capsys.readouterr().out
    assert "signed 1, absolute 1" in out


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.poly"
    bad.write_text(json.dumps({"ver0": [[0, 0], [1, 1]], "ver1": [[0, 1], [2, 0]]}))
    assert cli.main(["validate", str(bad)]) == 2


def test_associate_roundtrip(tmp_path):
    path = write_square(tmp_path)
    out = tmp_path / "square.graph"
    assert cli.main(["associate", path, "-o", str(out)]) == 0
    g = F.load(str(out))
    assert isinstance(g, D.DottedGraph)
    p = F.load(path)
    assert D.equivalent_mod_E_I(g, D.associate(p))


def test_reduce_square(tmp_path, capsys):
    path = write_square(tmp_path)
    trace_out = tmp_path / "trace.json"
    rdir = tmp_path / "steps"
    assert cli.main(["reduce", path, "--trace", str(trace_out),
                     "--render-dir", str(rdir)]) == 0
    out = capsys.readouterr().out
    assert "terminal: empty" in out
    assert "I II" in out
    trace = json.loads(trace_out.read_text())
    assert [t["kind"] for t in trace] == ["I", "II"]
    assert sorted(f.name for f in rdir.iterdir()) == \
        ["step000.svg", "step001.svg", "step002.svg"]


def test_reduce_trace_records_a_surgery_site(tmp_path, capsys):
    # a surgery's site keeps a third slot, written as null
    path = tmp_path / "iva2.poly"
    path.write_text(json.dumps({"ver0": [[1, 6], [3, 3], [4, 5], [7, 2]],
                                "ver1": [[1, 2], [3, 5], [4, 3], [7, 6]]}))
    trace_out = tmp_path / "trace.json"
    assert cli.main(["reduce", str(path), "--trace", str(trace_out)]) == 0
    assert "steps: I I IVa2 II" in capsys.readouterr().out
    trace = json.loads(trace_out.read_text())
    assert trace[2] == {"epsilon": -1, "i": 1, "kind": "IVa2",
                        "site": [[1, 6], [3, 3], None]}


def test_confluence_budget_hit_prints_undecided(tmp_path, capsys, request):
    # each surgery site has its dots on two graph components around two holes
    path = tmp_path / "holes.json"
    path.write_text(F.dumps(F.graph_to_obj(two_holes_on_two_components())))
    R._condition_A.cache_clear()
    request.addfinalizer(R._condition_A.cache_clear)
    assert cli.main(["reduce", str(path), "--confluence"]) == 0
    out = capsys.readouterr().out
    assert "terminals: 1\ncondition (A) throughout: undecided\n" in out


def test_confluence_without_a_terminal_says_so(tmp_path, capsys):
    # n = 9 draw 1: every state the explorer visits has a usable move, so it
    # reports no terminal form; that is a property violation (exit 3)
    path = tmp_path / "draw.json"
    path.write_text(F.dumps(F.graph_to_obj(polytope_draw(9, 1))))
    assert cli.main(["reduce", str(path), "--confluence"]) == 3
    assert capsys.readouterr().out == (
        "terminals: 0\ncondition (A) throughout: True\n"
        "no terminal found: every visited state had a usable move\n")


@pytest.mark.parametrize("module, name, verb, error", [
    (R, "explore_reductions", ["reduce", "--confluence"], errors.RoutingFailure),
    (PL, "compile_plan", ["plan"], errors.CompileGap),
])
def test_bug_errors_exit_4(module, name, verb, error, tmp_path, capsys, monkeypatch):
    # RoutingFailure and CompileGap are bugs, not property violations (exit 3)
    def bug(*args):
        raise error("broken")
    path = write_square(tmp_path)
    monkeypatch.setattr(module, name, bug)
    assert cli.main([verb[0], path] + verb[1:]) == 4
    assert capsys.readouterr().err.endswith("internal error: broken\n")


def test_stuck_all_dotted_reduction_exits_4(tmp_path, capsys, monkeypatch):
    # a stuck stage two of the every-arc-dotted pipeline is a bug
    monkeypatch.setattr(DF, "component_sign_ok", lambda an, cert: False)
    assert cli.main(["reduce", write_square(tmp_path), "--all-dotted"]) == 4
    assert capsys.readouterr().err == (
        "internal error: no circle-eliminating step applies: the face of label 1, "
        "the greatest magnitude, borders circles at [(0, 0)]\n")


def test_plan_square(tmp_path, capsys):
    path = write_square(tmp_path)
    plan_out = tmp_path / "plan.json"
    assert cli.main(["plan", path, "-o", str(plan_out)]) == 0
    err = capsys.readouterr().err
    assert "1-step plan, cost 1, verdict MINIMAL" in err
    plan = F.load_plan(str(plan_out))
    assert plan.cost_abs == 1


def test_oracle_and_verify(tmp_path, capsys):
    path = write_square(tmp_path)
    assert cli.main(["oracle", path]) == 0
    out = capsys.readouterr().out
    assert "minimal cost 1" in out
    plan_out = tmp_path / "plan.json"
    cli.main(["plan", path, "-o", str(plan_out)])
    capsys.readouterr()
    assert cli.main(["verify", path, "--plan", str(plan_out)]) == 0
    out = capsys.readouterr().out
    assert "MINIMAL" in out


def test_verify_flags_detour(tmp_path, capsys):
    path = write_square(tmp_path)
    plan = PL.TransformPlan((
        PL.normal_step(G.P(0, 0), G.P(1, 1)),
        PL.normal_step(G.P(1, 0), G.P(0, 1)),
        PL.normal_step(G.P(0, 0), G.P(1, 1)),
    ))
    plan_path = tmp_path / "detour.json"
    plan_path.write_text(F.dumps(F.plan_to_obj(plan)))
    assert cli.main(["verify", path, "--plan", str(plan_path)]) == 3


def test_oracle_corpus_report(tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert cli.main(["oracle", "--corpus", "--max-points", "2",
                     "--max-coord", "2", "--report", str(report)]) == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0].startswith("ver0,ver1,empties")
    assert len(lines) > 1


def test_render_byte_stable(tmp_path):
    path = write_square(tmp_path)
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert cli.main(["render", path, "-o", str(out1)]) == 0
    assert cli.main(["render", path, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"<svg" in out1.read_bytes()


def test_render_matches_golden(tmp_path):
    p = G.validate_polytope([(0, 0), (1, 1)], [(1, 0), (0, 1)])
    svg = render_svg(p)
    import pathlib
    golden = pathlib.Path(__file__).parent / "golden" / "square.svg"
    assert svg == golden.read_text()


def test_render_math_axes_differs(tmp_path):
    p = G.validate_polytope([(0, 2), (3, 1)], [(0, 1), (3, 2)])
    assert render_svg(p) != render_svg(p, math_axes=True)


def test_emitted_files_reparse(tmp_path):
    p = G.validate_polytope([(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2), (2, 0)])
    pp = tmp_path / "p.json"
    pp.write_text(F.dumps(F.polytope_to_obj(p)))
    assert F.load(str(pp)) == p
    g = D.associate(p)
    gp = tmp_path / "g.json"
    gp.write_text(F.dumps(F.graph_to_obj(g)))
    assert F.load(str(gp)) == g


def test_plan_without_emptying_reduction(tmp_path, capsys):
    # a polytope whose boundary graph is good-reduced but nonempty
    curves = [[(0, 0), (24, 0), (24, 16), (0, 16)],
              [(4, 4), (4, 12), (10, 12), (10, 4)],
              [(14, 4), (14, 12), (20, 12), (20, 4)]]
    dots = [(0, 0), (24, 0), (4, 4), (4, 12), (14, 4), (14, 12)]
    g = D.DottedGraph.build(curves, dots)
    p = D.realize(g)
    path = tmp_path / "stuck.poly"
    path.write_text(F.dumps(F.polytope_to_obj(p)))
    assert cli.main(["plan", str(path)]) == 3
    out = capsys.readouterr().out
    assert "NO-PLAN" in out


def test_non_integer_coordinates_exit_2(tmp_path):
    docs = [{"ver0": [[0, 0], [1.7, 1]], "ver1": [[1, 0], [0, 1]]},
            {"ver0": [[0, 0], [True, 1]], "ver1": [[True, 0], [0, 1]]},
            {"ver0": [[0, 0, 0], [1, 1]], "ver1": [[1, 0], [0, 1]]},
            {"curves": [[[0, 0], [4, 0], [4, 4], [0.5, 4]]]},
            {"curves": [[[0, 0], [4, 0], [4, 4], [0, 4]]],
             "dots": [{"curve": 0, "segment": 0, "offset": 1.5}]},
            {"curves": [[[0, 0], [4, 0], [4, 4], [0, 4]]],
             "dots": [{"curve": 0, "segment": 0, "offset": True}]}]
    for i, doc in enumerate(docs):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2, doc


def test_bad_dot_indices_exit_2(tmp_path, capsys):
    square = [[0, 0], [4, 0], [4, 4], [0, 4]]
    for i, (ci, si) in enumerate([(False, 0), (0, True), (0, -1), (0, 4),
                                  (1, 0), (-1, 0), (0.0, 0), (0, "1")]):
        path = tmp_path / f"dots{i}.json"
        path.write_text(json.dumps({"curves": [square],
                                    "dots": [{"curve": ci, "segment": si, "offset": 1}]}))
        assert cli.main(["validate", str(path)]) == 2, (ci, si)
    # offsets off their segment that still land on the curve: segments 0
    # and 4 have length 1, so these put the dot on the corners (2, 0),
    # (3, 0) and (1, 0)
    notch = [[0, 0], [1, 0], [1, 2], [2, 2], [2, 0], [3, 0], [3, 3], [0, 3]]
    for si, off in ((0, 2), (0, 3), (4, -1)):
        path = tmp_path / "offset.json"
        path.write_text(json.dumps({"curves": [notch],
                                    "dots": [{"curve": 0, "segment": si, "offset": off}]}))
        assert cli.main(["validate", str(path)]) == 2, (si, off)
    assert "dotted graph ok" not in capsys.readouterr().out


def test_bad_plan_documents_exit_2(tmp_path, capsys):
    path = write_square(tmp_path)
    for i, steps in enumerate([[{"v": [0, 0], "w": [1.0, 1]}],
                               [{"v": [0, 0], "w": [True, 1]}],
                               [{"v": [0, 0], "w": [0, 1]}],
                               [{"v": [0, 0], "w": [1, 1], "mode": "sideways"}]]):
        plan_path = tmp_path / f"plan{i}.json"
        plan_path.write_text(json.dumps(steps))
        assert cli.main(["verify", path, "--plan", str(plan_path)]) == 2, steps
    assert "cost signed" not in capsys.readouterr().out


def test_oversized_exhaustive_corpus_exits_3():
    # either corpus would run for days; both must be refused before enumerating
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    for points, coord, err in (
            ("5", "9", "exhaustive corpus of 940385800 polytopes: bound is 100000 polytopes"),
            ("6", "5", "exhaustive corpus of up to 6 points: oracle bound is 5 points")):
        proc = subprocess.run([sys.executable, "-m", "latpoly.cli", "oracle", "--corpus",
                               "--max-points", points, "--max-coord", coord],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (3, f"error: {err}\n")


def test_bad_corpus_arguments_exit_2(capsys):
    for args in (["--max-points", "9", "--max-coord", "3"], ["--max-points", "0"]):
        assert cli.main(["oracle", "--corpus", "--count", "3", *args]) == 2, args
    err = capsys.readouterr().err
    assert err.count("error: need 1 <= max_points <= max_coord + 1") == 2
    # arguments that leave the corpus empty, on either path
    for args in (["--count", "-3"], ["--max-points", "0"], ["--max-coord", "-1"],
                 ["--count", "3", "--max-coord", "-1"]):
        assert cli.main(["oracle", "--corpus", *args]) == 2, args
    shown = capsys.readouterr()
    err = shown.err
    assert "corpus 0" not in shown.out
    assert err.count("error: need count >= 0, got count=-3") == 1
    assert err.count("error: empty exhaustive corpus") == 2
    assert err.count("error: need 1 <= max_points <= max_coord + 1") == 1
    # neither a polytope file nor --corpus
    for args in ([], ["--max-points", "3"]):
        assert cli.main(["oracle", *args]) == 2, args
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: oracle needs a polytope file or --corpus"] * 2


def readme_transcript():
    """The commands of README's "Command line" block, each with the lines
    printed under it."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```\n", 2)[1]
    runs = []
    for line in block.splitlines():
        if line.startswith("$ "):
            runs.append((line[2:], []))
        else:
            runs[-1][1].append(line)
    return runs


def test_readme_transcript_replays(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = readme_transcript()
    command, output = runs[0]
    assert command == "cat stair.poly"
    (tmp_path / "stair.poly").write_text("\n".join(output).strip() + "\n")
    assert len(runs) > 1
    for command, output in runs[1:]:
        words = shlex.split(command)
        assert words[0] == "latpoly"
        assert cli.main(words[1:]) == 0, command
        # a terminal shows the summaries that associate and plan write to
        # stderr, after anything written to stdout
        shown = capsys.readouterr()
        assert (shown.out + shown.err).splitlines() == output, command
    text = (tmp_path / "stair.graph").read_text()
    g = F.obj_to_graph(json.loads(text))
    assert g == D.associate(F.load("stair.poly"))
    assert F.dumps(F.graph_to_obj(g)) == text
