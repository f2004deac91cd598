import gzip
import importlib
import json
import pkgutil
import random
from collections import OrderedDict
from enum import IntEnum
from pathlib import Path

import pytest

import nodalpic
from nodalpic import classgroup, graph, picard, stability
from nodalpic.cli import (
    _TEMPLATE_ROWS,
    _json,
    _record_rows,
    build_classgroup,
    build_components,
    build_info,
    build_neron,
    build_semistable,
    build_strata,
    build_theta,
    main,
    parse_curve,
)
from nodalpic.graph import DEFAULT_MAX_SUBCURVE_VERTICES, MEMO_SIZE
from nodalpic.picard import DEFAULT_MAX_STRATA_EDGES

from helpers import (
    bridged_curves,
    golden_curves,
    random_connected_graph,
    reference_stratum_description,
    reference_theta_description,
)

VINE_TEXT = """\
# two smooth components joined at three nodes
vertex C1 1
vertex C2 0
edge C1 C2
edge C1 C2
edge C1 C2
"""

VINE_JSON = json.dumps(
    {
        "vertices": [{"name": "C1", "genus": 1}, {"name": "C2", "genus": 0}],
        "edges": [["C1", "C2"], ["C1", "C2"], ["C1", "C2"]],
    }
)


GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def vine_file(tmp_path):
    path = tmp_path / "vine3.txt"
    path.write_text(VINE_TEXT)
    return str(path)


def test_parse_text_and_json_agree(tmp_path):
    t = tmp_path / "c.txt"
    t.write_text(VINE_TEXT)
    j = tmp_path / "c.json"
    j.write_text(VINE_JSON)
    assert parse_curve(str(t)) == parse_curve(str(j))


def test_parse_curve_vertex_order_and_edge_indexing(vine_file):
    g = parse_curve(vine_file)
    assert g.names == ("C1", "C2")
    assert g.delta == 3


def test_parse_unknown_vertex(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertex A 0\nedge A B\n")
    with pytest.raises(ValueError, match="unknown vertex"):
        parse_curve(str(path))


def test_parse_disconnected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertex A 0\nvertex B 1\n")
    with pytest.raises(ValueError, match="connected"):
        parse_curve(str(path))


def test_parse_negative_genus(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertex A -1\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_curve(str(path))


def test_parse_bad_directive_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertex A 0\nvortex B 1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_curve(str(path))


def test_parse_duplicate_names(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertex A 0\nvertex A 1\nedge A A\n")
    with pytest.raises(ValueError, match="unique"):
        parse_curve(str(path))


def test_parse_json_error_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [}')
    with pytest.raises(ValueError, match="line 1"):
        parse_curve(str(path))


def test_info_report_fields(vine_file):
    report = build_info(parse_curve(vine_file))
    assert report["schema_version"] == 1
    curve = report["curve"]
    assert curve["components"] == 2
    assert curve["nodes"] == 3
    assert curve["genus"] == 3
    assert curve["complexity"] == 3
    assert curve["tree_like"] is False
    assert curve["essential_connectivity"] == 3


def test_info_infinite_essential_connectivity(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("vertex A 1\nvertex B 1\nedge A B\n")
    report = build_info(parse_curve(path.as_posix()))
    assert report["curve"]["essential_connectivity"] == "infinity"


def test_semistable_report(vine_file):
    report = build_semistable(parse_curve(vine_file), 20)
    sec = report["semistable"]
    assert sec["semistable"] == [[0, 2], [1, 1], [2, 0], [3, -1]]
    assert sec["stable"] == [[1, 1], [2, 0]]
    statuses = {tuple(v["multidegree"]): v["status"] for v in sec["verdicts"]}
    assert statuses[(0, 2)] == "strictly_semistable"
    assert statuses[(1, 1)] == "stable"


def test_classgroup_report(vine_file):
    report = build_classgroup(parse_curve(vine_file), 0)
    sec = report["classgroup"]
    assert sec["invariant_factors"] == [3]
    assert sec["order"] == 3
    assert len(sec["representatives"]) == 3


def test_strata_report_component_flags(vine_file):
    report = build_strata(parse_curve(vine_file), 12, 20)
    sec = report["strata"]
    flags = [(tuple(s["nodes"]), s["component"]) for s in sec["strata"]]
    assert ((), True) in flags
    assert all(flag is False for nodes, flag in flags if nodes)


def test_report_internal_consistency(vine_file):
    g = parse_curve(vine_file)
    cg = build_classgroup(g, 0)
    assert cg["classgroup"]["order"] == cg["curve"]["complexity"]
    st = build_strata(g, 12, 20)
    genus = st["curve"]["genus"]
    assert all(0 <= s["dim"] <= genus for s in st["strata"]["strata"])


def test_main_text_exit_zero(vine_file, capsys):
    assert main(["info", vine_file]) == 0
    out = capsys.readouterr().out
    assert "genus" in out and "essential connectivity" in out


def test_info_text_golden(vine_file, capsys):
    assert main(["info", vine_file]) == 0
    assert capsys.readouterr().out == (
        "curve\n"
        "  components (vertices)        2\n"
        "  nodes (edges)                3\n"
        "  first Betti number           2\n"
        "  genus                        3\n"
        "  complexity (spanning trees)  3\n"
        "  tree-like                    no\n"
        "  essential connectivity       3\n"
    )


def test_components_heuristic_flag(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text(
        "vertex a 0\nvertex b 0\nvertex c 0\n"
        "edge a b\nedge b c\nedge a c\n"
    )
    assert main(["components", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["components"]["rule_validated"] is False
    assert report["components"]["count"] == 1
    assert report["components"]["type"] == "D-type"


def test_classgroup_tree_like(tmp_path, capsys):
    path = tmp_path / "tree.txt"
    path.write_text("vertex A 2\nvertex B 1\nedge A B\n")
    assert main(["classgroup", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classgroup"]["invariant_factors"] == []
    assert report["classgroup"]["order"] == 1
    assert report["curve"]["essential_connectivity"] == "infinity"


def test_main_json_round_trip(vine_file, capsys):
    assert main(["semistable", vine_file, "--json"]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed == build_semistable(parse_curve(vine_file), 20)


def test_main_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bogus", "x"])
    assert err.value.code == 1


def test_main_missing_file_exit_one(capsys):
    assert main(["info", "/no/such/file"]) == 1


@pytest.mark.parametrize(
    "name, text", [("vine.txt", VINE_TEXT), ("vine.json", VINE_JSON)], ids=["text", "json"]
)
def test_main_reads_a_file_with_a_byte_order_mark(tmp_path, capsys, name, text):
    plain = tmp_path / name
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / f"bom-{name}"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["strata", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main(["strata", str(marked)]) == 0
    assert capsys.readouterr().out == expected


def test_main_file_not_utf8_exit_one_naming_it(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"vertex C\xff 1\n")
    assert main(["info", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"nodalpic: error: {path}:")


def test_main_cap_exceeded_exit_two(vine_file, capsys):
    assert main(["strata", vine_file, "--max-edges", "1"]) == 2


def test_main_semistabilize(vine_file, capsys):
    assert main(["semistabilize", vine_file, "-d", "4,-2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    sec = report["semistabilize"]
    assert sum(sec["result"]) == 2
    assert sec["status"] in ("stable", "strictly_semistable")


@pytest.mark.parametrize("option", [["-d", "-1,3"], ["--multidegree", "-1,3"]])
def test_main_semistabilize_negative_entry_after_a_space(vine_file, capsys, option):
    assert main(["semistabilize", vine_file, "--multidegree=-1,3"]) == 0
    expected = capsys.readouterr().out
    assert main(["semistabilize", vine_file, *option]) == 0
    assert capsys.readouterr().out == expected
    assert "(-1,3)" in expected


def test_main_classgroup_negative_degree(vine_file, capsys):
    assert main(["classgroup", vine_file, "-d", "-2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["classgroup"]["degree"] == -2


@pytest.mark.parametrize("name", ["c8", "k5", "multiloop", "vine_2_1_1"])
def test_semistable_golden(name, capsys):
    # reports recorded byte for byte; a faster scan must reproduce them exactly
    curve = str(GOLDEN / f"{name}.txt")
    assert main(["semistable", curve]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.semistable.txt").read_text()
    assert main(["semistable", curve, "--json"]) == 0
    with gzip.open(GOLDEN / f"{name}.semistable.json.gz", "rt", encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


@pytest.mark.parametrize("name", ["vine_1_1_3", "c4", "triloop", "rational_tail"])
@pytest.mark.parametrize("command", ["strata", "components", "theta"])
def test_strata_commands_golden(name, command, capsys):
    # reports recorded byte for byte before the strata list was shared
    curve = str(GOLDEN / f"{name}.txt")
    assert main([command, curve]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{command}.txt").read_text()
    assert main([command, curve, "--json"]) == 0
    with gzip.open(GOLDEN / f"{name}.{command}.json.gz", "rt", encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_json_writer_matches_json_dumps():
    fixture = {
        "empty dict": {},
        "empty list": [],
        "none": None,
        "flags": [True, False],
        "ints": [0, -1, -(2**70), 2**64 + 1],
        "tuple": (1, "two", (3, 4)),
        "nested": [[1, 2], ["a", [3, "b"]], [], {}, [1, True, None]],
        "strings": ['say "hi"', "back\\slash", "ctl\x00\x1f\n\t\x7f", "Θ(C1) ∪ W_(0,1)", ""],
        'Θ∪ "key"': {"inner": [None, -5, {"deep": []}]},
    }
    for value in (fixture, [], {}, None, 7, "Θ", [fixture, [fixture]], ()):
        assert _json(value) == json.dumps(value, indent=2, ensure_ascii=False)
    for bad in (object(), 1.5, OrderedDict(a=1), IntEnum("E", "x").x):
        with pytest.raises(TypeError):
            _json({"a": [1, bad]})


def _records(*rows):
    return {"rows": list(rows), "after": [{"x": [1]}]}


def _templated(rows):
    """A top-level list of ``rows`` written through the template, whatever its length."""
    return "[\n  " + _record_rows(rows, "\n  ") + "\n]"


def _sharing_records():
    n, s = [4, 5], ["a", "b"]
    return _records({"n": n, "s": s}, {"n": n, "s": s}, {"n": [4, 5], "s": ["a", "b"]}, {"n": [6], "s": s})


@pytest.mark.parametrize(
    "report",
    [
        _records({"label": [], "multidegree": [3, -1]}),
        _records(*({"label": [i, 2 * i], "multidegree": [-i, 0, i]} for i in range(4))),
        _records(*({"a": [], "b": [i]} for i in range(3))),
        _records({"l": [-(2**70), 2**71 + 5]}, {"l": [-1, 0]}),
        _records({'50% "off"': [5]}, {'50% "off"': [-5]}),
        # str, bool, None-or-int and int columns, as in strata and theta rows
        _records(
            {"s": 'Θ "q" 100%', "flag": True, "dim": None, "n": -(2**70)},
            {"s": "{x} ∪ W_(0,1)", "flag": False, "dim": 3, "n": 0},
        ),
        # int lists of varying length, and str lists empty or not, in one column each
        _records(
            {"nodes": [], "names": [], "md": [1, 2]},
            {"nodes": [0, 2], "names": ["e0:a-b", '"%{"'], "md": [-1, 0]},
            {"nodes": [5], "names": ["Θ"], "md": [0, 0]},
        ),
        # keys with %, quotes, braces and Θ; a %-looking string value
        _records({'%d "k"': "%s", "{Θ}": [1, 2], "%%": 0}, {'%d "k"': "%(x)s", "{Θ}": [3, 4], "%%": 1}),
        # a nested list-of-dict value
        _records(
            {"sub": [{"a": [1], "b": "x"}, {"a": [2], "b": "y"}], "n": 1},
            {"sub": [], "n": 2},
        ),
        # one row
        _records({"s": "only", "l": [1, 2, 3], "b": False, "t": None}),
        # rows that share list objects, beside a row with equal lists of its own
        _sharing_records(),
        # int lists of one length beside a str-list column of one length
        _records({"md": [1, 2], "names": ["a", "b"]}, {"md": [3, 4], "names": ["c", "d"]}),
    ],
)
def test_json_int_records_take_the_template(report):
    # every row set here is plain dicts of one key order, so the template takes
    # it; _json only hands it lists of at least _TEMPLATE_ROWS rows
    assert _record_rows(report["rows"], "\n    ") is not None
    assert _json(report) == json.dumps(report, indent=2, ensure_ascii=False)
    assert _json(report["rows"]) == json.dumps(report["rows"], indent=2, ensure_ascii=False)
    assert _templated(report["rows"]) == json.dumps(report["rows"], indent=2, ensure_ascii=False)
    long = report["rows"] * _TEMPLATE_ROWS
    assert _json(long) == json.dumps(long, indent=2, ensure_ascii=False)


# rows that differ in keys, key order or type are written element by element
_MIXED_ROWS = [
    _records({"a": [1], "b": [2]}, {"b": [2], "a": [1]}),
    _records({"a": [1], "b": [2]}, {"a": [1]}),
    _records({"a": [1]}, [2]),
    _records({}, {}),
]


@pytest.mark.parametrize(
    "report",
    [
        _MIXED_ROWS[0],
        _MIXED_ROWS[1],
        # the other cases keep one row shape but mix what a column holds, so
        # the template takes them and writes those columns cell by cell:
        # four entries in each row, split 1 + 3 and 2 + 2
        _records({"label": [1], "multidegree": [2, 3, 4]}, {"label": [1, 2], "multidegree": [3, 4]}),
        _records({"a": [1, True]}, {"a": [1, 2]}),
        _records({"a": [1, 2]}, {"a": [False, 2]}),
        _records({"a": (1, 2)}, {"a": (3, 4)}),
        _records({"a": [1, 2]}, {"a": (3, 4)}),
        _records({"a": [1], "s": "x"}),
        _records({"a": [1]}, {"a": "x"}, {"a": [2]}),
        _MIXED_ROWS[2],
        _MIXED_ROWS[3],
    ],
)
def test_json_other_records_fall_back(report):
    body = _record_rows(report["rows"], "\n    ")
    assert (body is None) == (report in _MIXED_ROWS)
    assert _json(report) == json.dumps(report, indent=2, ensure_ascii=False)
    if body is not None:
        assert _templated(report["rows"]) == json.dumps(report["rows"], indent=2, ensure_ascii=False)
    long = report["rows"] * _TEMPLATE_ROWS
    assert _json(long) == json.dumps(long, indent=2, ensure_ascii=False)


def test_json_records_reject_what_the_writer_rejects():
    flag = IntEnum("Flag", "on").on
    # rows of one shape: the column that holds the bad value is written per cell
    for rows in (
        [{"a": [1, flag]}],
        [{"a": [1]}, {"a": [flag]}],
        [{"a": flag}, {"a": 2}],
        [{"a": [1], "b": 2.5}],
        [{"a": "x"}, {"a": {"b": [1.5]}}],
    ):
        with pytest.raises(TypeError):
            _record_rows(rows, "\n")
        with pytest.raises(TypeError):
            _json({"rows": rows})
    # rows that are not plain dicts: element by element
    for rows in (
        [OrderedDict(a=[1]), OrderedDict(a=[2])],
        [{"a": [1]}, OrderedDict(a=[2])],
    ):
        assert _record_rows(rows, "\n") is None
        with pytest.raises(TypeError):
            _json({"rows": rows})


def test_descriptions_equal_the_per_stratum_reference():
    # the reports are json.dumps byte for byte too, through the template on
    # the longer lists; names with format fields, %-specifiers and the piece
    # separator
    odd = nodalpic.DualGraph.from_names(
        [("{0}", 1), ("b%s", 1), ("c∪d", 0), ("}{", 2), ("%", 0)],
        [("{0}", "b%s"), ("{0}", "b%s"), ("b%s", "c∪d"), ("c∪d", "}{")]
        + [("c∪d", "}{"), ("}{", "}{"), ("}{", "%"), ("%", "{0}")],
    )
    caps = (DEFAULT_MAX_STRATA_EDGES, DEFAULT_MAX_SUBCURVE_VERTICES)
    for g in golden_curves() + bridged_curves() + [odd]:
        base = picard.strata(g, *caps)
        reports = [build(g, *caps) for build in (build_strata, build_components, build_theta)]
        for report in reports:
            assert _json(report) == json.dumps(report, indent=2, ensure_ascii=False)
        rows = reports[0]["strata"]["strata"]
        assert len(rows) == len(base)
        for s, row in zip(base, rows):
            names = [picard.edge_name(g, e) for e in s.nodes.edges]
            assert row["node_names"] == names
            assert row["description"] == reference_stratum_description(s, names)
        top = max(s.dim for s in base)
        comps = reports[1]["components"]["strata"]
        assert comps == [row for row in rows if row["dim"] == top]
        theta_rows = reports[2]["theta"]["strata"]
        assert len(theta_rows) == len(base)
        for s, row in zip(base, theta_rows):
            assert row["description"] == reference_theta_description(g, s)
    # the odd names reach Θ, W and Pic terms, of joined and of looped pieces
    text = "\n".join(row["description"] for row in theta_rows + rows)
    for term in ("Θ({0}) × Pic^0(b%s)", "W_(0,2)(c∪d∪}{) × Pic^0({0})", "W_2(}{)", "e7:{0}-%]"):
        assert term in text


# curve -> (degree g-1, a multidegree of total g-1, a dgeneral degree)
LATTICE_CURVES = {
    "treelike": (3, "-4,5,2", 3),
    "irreducible": (2, "2", 2),
    "vine_unicode": (4, "-6,10", 1),
    "k5": (5, "20,-10,-5,0,0", 5),
    "triloop": (4, "10,-7,1", 1),
}


def _lattice_goldens():
    for name, (g_minus_1, md, dgeneral) in LATTICE_CURVES.items():
        commands = {
            "info": ["info"],
            "classgroup": ["classgroup", "-d", str(g_minus_1)],
            "neron": ["neron", "-d", "0"],
            "abel": ["abel", "-d", "1"],
            "semistabilize": ["semistabilize", f"--multidegree={md}"],
            "dgeneral": ["dgeneral", "-d", str(dgeneral)],
        }
        if name == "vine_unicode":
            commands["abel_g_minus_1"] = ["abel", "--g-minus-1"]
        for tag, argv in commands.items():
            yield name, tag, argv


@pytest.mark.parametrize("name,tag,argv", list(_lattice_goldens()))
def test_lattice_commands_golden(name, tag, argv, capsys):
    # reports recorded byte for byte before the class listing and the JSON writer changed
    curve = str(GOLDEN / f"{name}.txt")
    assert main([argv[0], curve, *argv[1:]]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{tag}.txt").read_text(encoding="utf-8")
    assert main([argv[0], curve, *argv[1:], "--json"]) == 0
    with gzip.open(GOLDEN / f"{name}.{tag}.json.gz", "rt", encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_lattice_reports_list_the_neron_fiber():
    # build_neron and build_classgroup read classgroup.class_rows, not neron_fiber
    rng = random.Random(14)
    graphs = [parse_curve(str(GOLDEN / f"{name}.txt")) for name in LATTICE_CURVES]
    graphs += [random_connected_graph(rng, max_vertices=6, max_edges=12) for _ in range(25)]
    for g in graphs:
        for degree in (-3, 0, 2):
            fiber = picard.neron_fiber(g, degree)
            rows = [(list(label.residues), list(rep.entries)) for label, rep in fiber.components]
            sec = build_neron(g, degree)["neron"]
            assert (sec["degree"], sec["count"]) == (fiber.degree, fiber.count)
            assert [(c["label"], c["representative"]) for c in sec["components"]] == rows
            reps = build_classgroup(g, degree)["classgroup"]["representatives"]
            assert [(r["label"], r["multidegree"]) for r in reps] == rows


@pytest.mark.parametrize("command", ["strata", "components", "theta", "semistable"])
def test_main_max_vertices_reaches_the_command(command, tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text("vertex a 0\nvertex b 0\nvertex c 0\nedge a b\nedge b c\nedge a c\n")
    assert main([command, str(path), "--max-vertices", "2"]) == 2
    assert "capped at 2 vertices (graph has 3)" in capsys.readouterr().err
    assert main([command, str(path)]) == 0


@pytest.mark.parametrize(
    "command,cap",
    [(c, "--max-edges") for c in ("info", "classgroup", "neron", "abel", "dgeneral")]
    + [(c, "--max-vertices") for c in ("info", "classgroup", "neron", "abel", "dgeneral")]
    + [("semistable", "--max-edges"), ("semistabilize", "--max-edges")],
)
def test_main_cap_only_on_the_commands_that_read_it(command, cap, vine_file, capsys):
    required = {"abel": ["-d", "1"], "dgeneral": ["-d", "1"], "semistabilize": ["-d", "1,1"]}
    with pytest.raises(SystemExit) as err:
        main([command, vine_file, *required.get(command, []), cap, "3"])
    assert err.value.code == 1
    assert f"unrecognized arguments: {cap} 3" in capsys.readouterr().err


def test_main_semistabilize_bad_vector(vine_file, capsys):
    assert main(["semistabilize", vine_file, "-d", "1,x"]) == 1


def test_main_semistabilize_wrong_total(vine_file, capsys):
    assert main(["semistabilize", vine_file, "-d", "0,0"]) == 1


def test_main_semistabilize_wrong_length(vine_file, capsys):
    assert main(["semistabilize", vine_file, "-d", "1,1,0"]) == 1
    assert "multidegree has 3 entries, graph has 2" in capsys.readouterr().err


def test_main_abel_g_minus_1_requires_two_components(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("vertex A 2\nedge A A\n")
    assert main(["abel", str(path), "--g-minus-1"]) == 1


def test_main_abel_degree_one_includes_embedding(vine_file, capsys):
    assert main(["abel", vine_file, "-d", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["abel"]["degree1_embedding"]["is_embedding"] is True


def test_main_dgeneral(vine_file, capsys):
    assert main(["dgeneral", vine_file, "-d", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dgeneral"]["verdict"] == "all-curves"


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(VINE_TEXT))
    assert main(["info", "-"]) == 0
    assert "genus" in capsys.readouterr().out


ONE_COMPONENT_TEXT = "vertex A 2\nedge A A\n"


@pytest.mark.parametrize(
    "command,cap,value,message",
    [
        ("semistable", "--max-vertices", "-3", "a cap must be non-negative, got -3"),
        ("semistabilize", "--max-vertices", "-1", "a cap must be non-negative, got -1"),
        ("strata", "--max-edges", "-1", "a cap must be non-negative, got -1"),
        ("strata", "--max-vertices", "x", "invalid int value: 'x'"),
        ("strata", "--max-edges", "x", "invalid int value: 'x'"),
    ],
)
def test_main_bad_cap_is_a_usage_error(command, cap, value, message, tmp_path, capsys):
    # on a one-component curve no subcurve table would ever read the cap
    path = tmp_path / "one.txt"
    path.write_text(ONE_COMPONENT_TEXT)
    required = {"semistabilize": ["-d", "2"]}
    with pytest.raises(SystemExit) as err:
        main([command, str(path), *required.get(command, []), cap, value])
    assert err.value.code == 1
    assert f"argument {cap}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["semistable"], ["semistabilize", "-d", "2"], ["strata"], ["components"], ["theta"]]
)
def test_main_zero_vertex_cap_on_a_one_component_curve(command, tmp_path, capsys):
    # such a curve has no proper subcurve, so the vertex cap has nothing to bound
    path = tmp_path / "one.txt"
    path.write_text(ONE_COMPONENT_TEXT)
    assert main([command[0], str(path), *command[1:]]) == 0
    expected = capsys.readouterr().out
    assert main([command[0], str(path), *command[1:], "--max-vertices", "0"]) == 0
    assert capsys.readouterr().out == expected


def test_per_graph_memos_share_one_bound():
    memos = {}
    for info in pkgutil.iter_modules(nodalpic.__path__):
        module = importlib.import_module(f"nodalpic.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                memos[f"{info.name}.{name}"] = obj.cache_info().maxsize
    assert memos == {
        "graph.complexity": MEMO_SIZE,
        "graph.essential_connectivity": MEMO_SIZE,
        "graph._subcurve_table": MEMO_SIZE,
        "stability._scan": MEMO_SIZE,
        "classgroup.degree_class_group": MEMO_SIZE,
        "picard._strata": MEMO_SIZE,
        # one parser per process, built on first use
        "cli._build_parser": None,
    }


def test_semistable_report_scans_once(vine_file, capsys):
    stability._scan.cache_clear()
    assert main(["semistable", vine_file]) == 0
    info = stability._scan.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_semistabilize_builds_one_subcurve_table(vine_file, capsys):
    graph._subcurve_table.cache_clear()
    # the status line's check_stability reads the table that semistabilize built
    assert main(["semistabilize", vine_file, "-d", "4,-2"]) == 0
    info = graph._subcurve_table.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_strata_reports_of_one_curve_build_strata_once(vine_file, capsys):
    picard._strata.cache_clear()
    for command in ("strata", "components", "theta"):
        assert main([command, vine_file]) == 0
    info = picard._strata.cache_info()
    assert info.misses == 1 and info.hits >= 2


def test_lattice_reports_of_one_curve_share_its_invariants(vine_file, capsys):
    graph.essential_connectivity.cache_clear()
    graph.complexity.cache_clear()
    # every curve block reads both; abel reads the essential connectivity again
    for command in (["info"], ["classgroup"], ["neron"], ["abel", "-d", "1"], ["semistabilize", "-d", "4,-2"]):
        assert main([command[0], vine_file, *command[1:]]) == 0
    info = graph.essential_connectivity.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    info = graph.complexity.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_lattice_reports_of_one_curve_build_one_class_group(vine_file, capsys):
    classgroup.degree_class_group.cache_clear()
    assert main(["classgroup", vine_file]) == 0
    assert main(["neron", vine_file]) == 0
    assert main(["semistabilize", vine_file, "-d", "4,-2"]) == 0
    info = classgroup.degree_class_group.cache_info()
    assert (info.misses, info.hits) == (1, 2)
