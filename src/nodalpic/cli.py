"""Command-line frontend: curve files in, invariant reports out.

Curve files are either JSON ({"vertices": [{"name", "genus"}], "edges":
[[name, name], ...]}) or a line-based text format (``vertex NAME GENUS`` and
``edge A B`` directives, hash comments allowed).  Reports are aligned text by
default or JSON with --json; identical inputs always produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from itertools import chain
from operator import itemgetter
from typing import Sequence

from . import abel, classgroup, picard, stability, theta
from .errors import CapExceeded
from .graph import (
    DEFAULT_MAX_SUBCURVE_VERTICES,
    DualGraph,
    complexity,
    counts,
    essential_connectivity,
    is_tree_like,
)
from .multidegree import Multidegree, fmt_md
from .picard import DEFAULT_MAX_STRATA_EDGES

SCHEMA_VERSION = 1


# -- input --------------------------------------------------------------------


def parse_curve(source: str) -> DualGraph:
    """Load a curve file (path, or '-' for stdin); JSON is sniffed by a
    leading brace, after one leading byte-order mark is dropped."""
    origin = "<stdin>" if source == "-" else source
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        text = text.removeprefix("\ufeff")
        if text.lstrip().startswith("{"):
            vertices, edges = _parse_json(text)
        else:
            vertices, edges = _parse_text(text)
        return DualGraph.from_names(vertices, edges)
    except ValueError as exc:
        raise ValueError(f"{origin}: {exc}") from None


def _parse_json(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ValueError("top-level JSON value must be an object")
    raw_vertices = data.get("vertices")
    raw_edges = data.get("edges", [])
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise ValueError('"vertices" must be a non-empty list')
    vertices = []
    for item in raw_vertices:
        if not isinstance(item, dict) or "name" not in item or "genus" not in item:
            raise ValueError('each vertex needs "name" and "genus"')
        genus = item["genus"]
        if isinstance(genus, bool) or not isinstance(genus, int) or genus < 0:
            raise ValueError(f'vertex {item["name"]!r} needs a non-negative integer genus')
        vertices.append((str(item["name"]), genus))
    edges = []
    if not isinstance(raw_edges, list):
        raise ValueError('"edges" must be a list of two-element name pairs')
    for item in raw_edges:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError('"edges" must be a list of two-element name pairs')
        edges.append((str(item[0]), str(item[1])))
    return vertices, edges


def _parse_text(text: str):
    vertices = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "vertex":
            if len(fields) != 3:
                raise ValueError(f"line {lineno}: expected 'vertex NAME GENUS'")
            try:
                genus = int(fields[2])
            except ValueError:
                raise ValueError(f"line {lineno}: genus must be an integer") from None
            if genus < 0:
                raise ValueError(f"line {lineno}: genus must be non-negative")
            vertices.append((fields[1], genus))
        elif fields[0] == "edge":
            if len(fields) != 3:
                raise ValueError(f"line {lineno}: expected 'edge NAME NAME'")
            edges.append((fields[1], fields[2]))
        else:
            raise ValueError(f"line {lineno}: unknown directive {fields[0]!r}")
    if not vertices:
        raise ValueError("no vertices declared")
    return vertices, edges


# -- report assembly -----------------------------------------------------------


def _eps_value(eps: float) -> int | str:
    return "infinity" if eps == math.inf else int(eps)


def curve_summary(graph: DualGraph) -> dict:
    c = counts(graph)
    return {
        "vertices": [{"name": v.name, "genus": v.genus} for v in graph.vertices],
        "edges": [[graph.vertices[u].name, graph.vertices[v].name] for u, v in graph.edges],
        "components": c.vertices,
        "nodes": c.edges,
        "first_betti": c.first_betti,
        "genus": c.genus,
        "complexity": complexity(graph),
        "tree_like": is_tree_like(graph),
        "essential_connectivity": _eps_value(essential_connectivity(graph)),
    }


def _report(command: str, graph: DualGraph, **sections) -> dict:
    out = {"schema_version": SCHEMA_VERSION, "command": command, "curve": curve_summary(graph)}
    out.update(sections)
    return out


def _md(d: Multidegree) -> list[int]:
    return list(d.entries)


def build_info(graph: DualGraph) -> dict:
    return _report("info", graph)


def build_classgroup(graph: DualGraph, degree: int) -> dict:
    dcg = classgroup.degree_class_group(graph)
    return _report(
        "classgroup",
        graph,
        classgroup={
            "invariant_factors": list(dcg.invariant_factors),
            "order": dcg.order,
            "degree": degree,
            "representatives": [
                {"label": label, "multidegree": entries}
                for label, entries in classgroup.class_rows(dcg, degree)
            ],
        },
    )


def build_semistable(graph: DualGraph, max_vertices: int) -> dict:
    rows = [_md(d) for d in stability.enumerate_semistable(graph, max_vertices)]
    verdicts = stability.semistable_verdicts(graph, max_vertices)
    # name each witness subcurve once, keyed by its vertex tuple
    names: dict[tuple[int, ...], list[str]] = {}
    for v in verdicts:
        for w in v.witnesses:
            if w.vertices not in names:
                names[w.vertices] = [graph.vertices[i].name for i in w.vertices]
    return _report(
        "semistable",
        graph,
        semistable={
            "total_degree": graph.genus - 1,
            "semistable": rows,
            "stable": [row for row, v in zip(rows, verdicts) if v.is_stable],
            "verdicts": [
                {
                    "multidegree": row,
                    "status": v.status.value,
                    "witnesses": [names[w.vertices] for w in v.witnesses],
                }
                for row, v in zip(rows, verdicts)
            ],
        },
    )


def build_semistabilize(graph: DualGraph, entries: Sequence[int], max_vertices: int) -> dict:
    d = Multidegree(entries)
    result, firing = classgroup.semistabilize(graph, d, max_vertices=max_vertices)
    verdict = stability.check_stability(graph, result, max_vertices)
    return _report(
        "semistabilize",
        graph,
        semistabilize={
            "input": _md(d),
            "result": _md(result),
            "firing": list(firing),
            "changed": result != d,
            "status": verdict.status.value,
        },
    )


def _stratum_records(graph: DualGraph, strata: Sequence[picard.Stratum], top: int) -> list[dict]:
    # the components are the strata of dimension ``top``; the strata of one
    # node set are adjacent and share it: name its nodes once
    records = []
    nodes = None
    for s in strata:
        if s.nodes is not nodes:
            nodes = s.nodes
            names = [picard.edge_name(graph, e) for e in nodes.edges]
        records.append(
            {
                "nodes": list(nodes.edges),
                "node_names": names,
                "multidegree": _md(s.multidegree),
                "dim": s.dim,
                "component": s.dim == top,
                "description": picard.stratum_description(s, names),
            }
        )
    return records


def build_strata(graph: DualGraph, max_edges: int, max_vertices: int) -> dict:
    all_strata = picard.strata(graph, max_edges, max_vertices)
    top = picard.irreducible_components(graph, max_edges, max_vertices)[0].dim
    return _report(
        "strata",
        graph,
        strata={
            "count": len(all_strata),
            "strata": _stratum_records(graph, all_strata, top),
        },
    )


def build_components(graph: DualGraph, max_edges: int, max_vertices: int) -> dict:
    classification = picard.classify_type_g_minus_1(graph, max_edges, max_vertices)
    comps = picard.irreducible_components(graph, max_edges, max_vertices)
    return _report(
        "components",
        graph,
        components={
            "count": len(comps),
            "complexity": classification.complexity,
            "type": classification.kind.value,
            "tree_like": classification.tree_like,
            "rule_validated": classification.component_rule_validated,
            "strata": _stratum_records(graph, comps, comps[0].dim),
        },
    )


def build_theta(graph: DualGraph, max_edges: int, max_vertices: int) -> dict:
    strata = theta.theta_strata(graph, max_edges, max_vertices)
    return _report(
        "theta",
        graph,
        theta={
            "count": len(strata),
            "strata": [
                {
                    "nodes": list(t.base.nodes.edges),
                    "multidegree": _md(t.base.multidegree),
                    "base_dim": t.base.dim,
                    "dim": t.dim,
                    "description": t.description,
                }
                for t in strata
            ],
        },
    )


def build_neron(graph: DualGraph, degree: int) -> dict:
    # the fields of picard.neron_fiber, without a label or multidegree object per class
    dcg = classgroup.degree_class_group(graph)
    return _report(
        "neron",
        graph,
        neron={
            "degree": degree,
            "count": dcg.order,
            "components": [
                {"label": label, "representative": entries}
                for label, entries in classgroup.class_rows(dcg, degree)
            ],
        },
    )


def build_abel_g_minus_1(graph: DualGraph) -> dict:
    if graph.gamma != 2 or sum(graph.loops) != 0:
        raise ValueError(
            "the degree g-1 naturality criterion is only available for curves "
            "with exactly two smooth components"
        )
    g1 = graph.vertices[0].genus
    g2 = graph.vertices[1].genus
    delta = graph.delta
    verdict = abel.natural_g_minus_1_vine(g1, g2, delta)
    profile = abel.correction_profile_vine(g1, g2, delta)
    return _report(
        "abel",
        graph,
        abel={
            "mode": "g-minus-1",
            "g1": g1,
            "g2": g2,
            "nodes": delta,
            "status": verdict.status.value,
            "reason": verdict.reason,
            "offending": [_md(d) for d in verdict.offending],
            "profile": [
                {
                    "l": e.degree_on_first,
                    "correction": e.correction,
                    "corrected": _md(e.corrected),
                }
                for e in profile.entries
            ],
            "all_zero": profile.all_zero,
        },
    )


def build_abel_degree(graph: DualGraph, degree: int) -> dict:
    verdict = abel.naturality_necessary(graph, degree)
    section = {
        "mode": "degree",
        "degree": degree,
        "status": verdict.status.value,
        "reason": verdict.reason,
        "essential_connectivity": _eps_value(verdict.essential_connectivity),
        "d_general": verdict.d_general.value if verdict.d_general else None,
    }
    if degree == 1:
        embedding = abel.degree1_abel_is_embedding(graph)
        section["degree1_embedding"] = {
            "is_embedding": embedding.is_embedding,
            "offenders": list(embedding.offenders),
        }
    return _report("abel", graph, abel=section)


def build_dgeneral(graph: DualGraph, degree: int) -> dict:
    g = graph.genus
    verdict = picard.d_general_verdict(g, degree, graph)
    return _report(
        "dgeneral",
        graph,
        dgeneral={
            "genus": g,
            "degree": degree,
            "gcd": math.gcd(degree - g + 1, 2 * g - 2),
            "verdict": verdict.value,
        },
    )


# -- JSON rendering -------------------------------------------------------------

_encode_str = json.encoder.encode_basestring
_INT_ONLY = {int}
_DICT_ONLY = {dict}
_LIST_ONLY = {list}


def _json(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, byte for byte.

    With an indent, ``json.dumps`` runs the pure-Python encoder.  Here plain
    dicts, lists and tuples are written directly, every string goes through
    the C ``encode_basestring``, a list of plain ints takes one join, and a
    list of int-list records fills one %-template (``_int_records``).
    Reports hold nothing else, so any other type (floats and subclasses
    included) raises ``TypeError``.  ``newline`` is the line break plus the
    indentation of ``value``.  Dict keys must be strings.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = newline + "  "
    if kind is dict:
        if not value:
            return "{}"
        body = ("," + inner).join(
            [f"{_encode_str(k)}: {_json(v, inner)}" for k, v in value.items()]
        )
        # an f-string copies a long listing once, where each + would copy it again
        return f"{{{inner}{body}{newline}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if set(map(type, value)) == _INT_ONLY:
            body = ("," + inner).join(map(int.__repr__, value))
        else:
            body = _int_records(value, inner)
            if body is None:
                body = ("," + inner).join([_json(x, inner) for x in value])
        return f"[{inner}{body}{newline}]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _int_records(rows, newline: str) -> str | None:
    """The rows of a list of int-list records, joined as ``_json`` joins
    them, or None when the list does not qualify.

    It qualifies when each row is a plain dict with the first row's keys in
    the same order, each value is a list of plain ints (no bool, no IntEnum),
    and each key's list has one length in all rows.  Then one row's text is
    a template with the keys and indentation as text and a ``%d`` per entry,
    and the rows are that template repeated, filled with every entry in
    order by one ``%``.  A list whose first row does not qualify is given up
    on that row, so lists of other records pay for one row's look.
    """
    first = rows[0]
    if type(first) is not dict or not first:
        return None
    inner = newline + "  "
    deeper = inner + "  "
    parts = []
    for key, entries in first.items():
        if type(entries) is not list or not _INT_ONLY.issuperset(map(type, entries)):
            return None
        body = "[" + deeper + ("," + deeper).join(["%d"] * len(entries)) + inner + "]"
        parts.append(_encode_str(key).replace("%", "%%") + ": " + (body if entries else "[]"))
    keys = tuple(first)
    if set(map(type, rows)) != _DICT_ONLY or not all(map(keys.__eq__, map(tuple, rows))):
        return None
    for key in keys:
        column = list(map(itemgetter(key), rows))
        if set(map(type, column)) != _LIST_ONLY or len(set(map(len, column))) != 1:
            return None
    entries = tuple(chain.from_iterable(chain.from_iterable(map(dict.values, rows))))
    if not _INT_ONLY.issuperset(map(type, entries)):
        return None
    template = "{" + inner + ("," + inner).join(parts) + newline + "}"
    return ("," + newline).join([template] * len(rows)) % entries


# -- text rendering -------------------------------------------------------------


def _kv_block(title: str, pairs: list[tuple[str, object]]) -> list[str]:
    width = max(len(k) for k, _ in pairs)
    lines = [title]
    for k, v in pairs:
        lines.append(f"  {k.ljust(width)}  {v}")
    return lines


def _table(headers: list[str], rows: list[list[str]], indent: str = "  ") -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [indent + "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append(indent + "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def _curve_block(report: dict) -> list[str]:
    c = report["curve"]
    return _kv_block(
        "curve",
        [
            ("components (vertices)", c["components"]),
            ("nodes (edges)", c["nodes"]),
            ("first Betti number", c["first_betti"]),
            ("genus", c["genus"]),
            ("complexity (spanning trees)", c["complexity"]),
            ("tree-like", "yes" if c["tree_like"] else "no"),
            ("essential connectivity", c["essential_connectivity"]),
        ],
    )


def _nodes_label(nodes: list[int]) -> str:
    return "{" + ",".join(f"e{e}" for e in nodes) + "}"


def render_text(report: dict) -> str:
    command = report["command"]
    lines = _curve_block(report)
    if command == "classgroup":
        sec = report["classgroup"]
        lines += [""] + _kv_block(
            "degree class group",
            [
                ("invariant factors", sec["invariant_factors"]),
                ("order", sec["order"]),
            ],
        )
        rows = [[fmt_md(r["label"]), fmt_md(r["multidegree"])] for r in sec["representatives"]]
        lines.append(f"  representatives in total degree {sec['degree']}:")
        lines += _table(["label", "multidegree"], rows, indent="    ")
    elif command == "semistable":
        sec = report["semistable"]
        lines.append("")
        lines.append(
            f"semistable multidegrees in total degree {sec['total_degree']}: "
            f"{len(sec['semistable'])}"
        )
        # build_semistable shares one name list per subcurve, so each is
        # formatted once, keyed by the list's identity
        braced: dict[int, str] = {}
        rows = []
        for v in sec["verdicts"]:
            cells = []
            for w in v["witnesses"]:
                cell = braced.get(id(w))
                if cell is None:
                    cell = braced[id(w)] = "{" + ",".join(w) + "}"
                cells.append(cell)
            rows.append([fmt_md(v["multidegree"]), v["status"], "; ".join(cells)])
        lines += _table(["multidegree", "status", "witnesses"], rows)
        lines.append(f"stable multidegrees: {len(sec['stable'])}")
        for d in sec["stable"]:
            lines.append(f"  {fmt_md(d)}")
    elif command == "semistabilize":
        sec = report["semistabilize"]
        lines += [""] + _kv_block(
            "semistabilization",
            [
                ("input", fmt_md(sec["input"])),
                ("result", fmt_md(sec["result"])),
                ("firing vector", fmt_md(sec["firing"])),
                ("changed", "yes" if sec["changed"] else "no"),
                ("result status", sec["status"]),
            ],
        )
    elif command in ("strata", "components"):
        sec = report[command]
        lines.append("")
        if command == "strata":
            lines.append(f"strata: {sec['count']}")
        else:
            lines.append(
                f"irreducible components: {sec['count']} "
                f"(complexity {sec['complexity']}, {sec['type']}, "
                + ("rule validated" if sec["rule_validated"] else "heuristic rule")
                + ")"
            )
        rows = [
            [
                _nodes_label(s["nodes"]),
                fmt_md(s["multidegree"]),
                str(s["dim"]),
                "yes" if s["component"] else "no",
            ]
            for s in sec["strata"]
        ]
        lines += _table(["S", "multidegree", "dim", "component"], rows)
    elif command == "theta":
        sec = report["theta"]
        lines.append("")
        lines.append(f"theta strata: {sec['count']}")
        rows = [
            [
                _nodes_label(t["nodes"]),
                fmt_md(t["multidegree"]),
                "unknown" if t["dim"] is None else str(t["dim"]),
                t["description"],
            ]
            for t in sec["strata"]
        ]
        lines += _table(["S", "multidegree", "dim", "description"], rows)
    elif command == "neron":
        sec = report["neron"]
        lines.append("")
        plural = "" if sec["count"] == 1 else "s"
        lines.append(f"Neron fiber in degree {sec['degree']}: {sec['count']} component{plural}")
        rows = [[fmt_md(r["label"]), fmt_md(r["representative"])] for r in sec["components"]]
        lines += _table(["label", "representative"], rows)
    elif command == "abel":
        sec = report["abel"]
        lines.append("")
        if sec["mode"] == "g-minus-1":
            lines += _kv_block(
                f"degree g-1 Abel map (g1={sec['g1']}, g2={sec['g2']}, nodes={sec['nodes']})",
                [
                    ("naturality", sec["status"]),
                    ("reason", sec["reason"]),
                    (
                        "offending",
                        ", ".join(fmt_md(d) for d in sec["offending"]) or "none",
                    ),
                    ("profile all zero", "yes" if sec["all_zero"] else "no"),
                ],
            )
            rows = [
                [str(e["l"]), str(e["correction"]), fmt_md(e["corrected"])]
                for e in sec["profile"]
            ]
            lines.append("  corrections:")
            lines += _table(["l", "a(l)", "corrected"], rows, indent="    ")
        else:
            pairs = [
                ("naturality", sec["status"]),
                ("reason", sec["reason"]),
                ("essential connectivity", sec["essential_connectivity"]),
                ("d-general", sec["d_general"] if sec["d_general"] else "n/a"),
            ]
            if "degree1_embedding" in sec:
                emb = sec["degree1_embedding"]
                pairs.append(
                    ("degree-1 embedding", "yes" if emb["is_embedding"] else "no")
                )
                if emb["offenders"]:
                    pairs.append(("contracted components", ", ".join(emb["offenders"])))
            lines += _kv_block(f"degree {sec['degree']} Abel map", pairs)
    elif command == "dgeneral":
        sec = report["dgeneral"]
        lines += [""] + _kv_block(
            "d-general classification",
            [
                ("genus", sec["genus"]),
                ("degree", sec["degree"]),
                ("gcd(d-g+1, 2g-2)", sec["gcd"]),
                ("verdict", sec["verdict"]),
            ],
        )
    return "\n".join(lines) + "\n"


# -- argument parsing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option starts with a digit, so '-1,3' after -d is a value
        self._negative_number_matcher = re.compile(r"^-\d")

    # usage problems exit with code 1; code 2 is reserved for tripped caps
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a cap must be non-negative, got {value}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="nodalpic",
        description="Combinatorial invariants of nodal curves from dual graphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("curve", help="curve file (text or JSON); '-' reads stdin")
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    # each cap only on the commands whose work it bounds
    vertex_cap = argparse.ArgumentParser(add_help=False)
    vertex_cap.add_argument(
        "--max-vertices",
        type=_cap,
        default=DEFAULT_MAX_SUBCURVE_VERTICES,
        help="cap for subcurve enumeration (default %(default)s)",
    )
    edge_cap = argparse.ArgumentParser(add_help=False)
    edge_cap.add_argument(
        "--max-edges",
        type=_cap,
        default=DEFAULT_MAX_STRATA_EDGES,
        help="cap for node-subset enumeration (default %(default)s)",
    )
    stability_args = [common, vertex_cap]
    strata_args = [common, vertex_cap, edge_cap]
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    sub.add_parser("info", parents=[common], help="curve summary invariants")
    p = sub.add_parser("classgroup", parents=[common], help="degree class group")
    p.add_argument("-d", "--degree", type=int, default=0)
    sub.add_parser(
        "semistable", parents=stability_args, help="semistable and stable multidegrees"
    )
    p = sub.add_parser(
        "semistabilize", parents=stability_args, help="semistabilize a multidegree"
    )
    p.add_argument(
        "-d",
        "--multidegree",
        required=True,
        help="comma-separated entries, e.g. '3,0'",
    )
    sub.add_parser("strata", parents=strata_args, help="strata of the compactification")
    sub.add_parser("components", parents=strata_args, help="irreducible components")
    sub.add_parser("theta", parents=strata_args, help="theta-divisor strata")
    p = sub.add_parser("neron", parents=[common], help="Neron fiber components")
    p.add_argument("-d", "--degree", type=int, default=0)
    p = sub.add_parser("abel", parents=[common], help="Abel map naturality predicates")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-d", "--degree", type=int)
    group.add_argument("--g-minus-1", action="store_true", dest="g_minus_1")
    p = sub.add_parser("dgeneral", parents=[common], help="d-general classification")
    p.add_argument("-d", "--degree", type=int, required=True)
    return parser


def _dispatch(graph: DualGraph, args) -> dict:
    if args.command == "info":
        return build_info(graph)
    if args.command == "classgroup":
        return build_classgroup(graph, args.degree)
    if args.command == "semistable":
        return build_semistable(graph, args.max_vertices)
    if args.command == "semistabilize":
        try:
            entries = [int(x) for x in args.multidegree.split(",")]
        except ValueError:
            raise ValueError(
                f"could not parse multidegree {args.multidegree!r}; "
                "expected comma-separated integers"
            ) from None
        return build_semistabilize(graph, entries, args.max_vertices)
    if args.command == "strata":
        return build_strata(graph, args.max_edges, args.max_vertices)
    if args.command == "components":
        return build_components(graph, args.max_edges, args.max_vertices)
    if args.command == "theta":
        return build_theta(graph, args.max_edges, args.max_vertices)
    if args.command == "neron":
        return build_neron(graph, args.degree)
    if args.command == "abel":
        if args.g_minus_1:
            return build_abel_g_minus_1(graph)
        return build_abel_degree(graph, args.degree)
    if args.command == "dgeneral":
        return build_dgeneral(graph, args.degree)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        graph = parse_curve(args.curve)
        report = _dispatch(graph, args)
    except CapExceeded as exc:
        print(f"nodalpic: cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"nodalpic: error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json(report))
    else:
        print(render_text(report), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
