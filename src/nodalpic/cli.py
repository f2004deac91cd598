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


def build_semistabilize(graph: DualGraph, entries: Sequence[int]) -> dict:
    d = Multidegree(entries)
    result, firing = classgroup.semistabilize(graph, d)
    status, _ = stability.stability_status(graph, result)
    return _report(
        "semistabilize",
        graph,
        semistabilize={
            "input": _md(d),
            "result": _md(result),
            "firing": list(firing),
            "changed": result != d,
            "status": status.value,
        },
    )


def _stratum_records(graph: DualGraph, strata: Sequence[picard.Stratum], top: int) -> list[dict]:
    # the components are the strata of dimension ``top``; the strata of one
    # node set are adjacent and share it: name its nodes and frame its
    # description once
    records = []
    nodes = None
    for s in strata:
        if s.nodes is not nodes:
            nodes = s.nodes
            edges = list(nodes.edges)
            names = [picard.edge_name(graph, e) for e in edges]
            before, after = picard.stratum_description_frame(nodes, names)
        entries = s.multidegree.entries
        records.append(
            {
                "nodes": edges,
                "node_names": names,
                "multidegree": list(entries),
                "dim": s.dim,
                "component": s.dim == top,
                "description": f"{before}{fmt_md(entries)}{after}",
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
_STR_ONLY = {str}
_BOOL_ONLY = {bool}
_DICT_ONLY = {dict}
_LIST_ONLY = {list}
_BOOL_TEXT = {True: "true", False: "false"}
_TEMPLATE_ROWS = 10


def _json(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, byte for byte.

    With an indent, ``json.dumps`` runs the pure-Python encoder.  Here plain
    dicts, lists and tuples are written directly, every string goes through
    the C ``encode_basestring``, a list of plain ints takes one join, and a
    list of at least ``_TEMPLATE_ROWS`` records of one shape is written
    column by column into one %-template (``_record_rows``).  Reports hold
    nothing else, so any other type (floats and subclasses included) raises
    ``TypeError``.  ``newline`` is the line break plus the indentation of
    ``value``.  Dict keys must be strings.
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
            # below about ten rows the template's set-up costs more than it saves
            body = _record_rows(value, inner) if len(value) >= _TEMPLATE_ROWS else None
            if body is None:
                body = ("," + inner).join([_json(x, inner) for x in value])
        return f"[{inner}{body}{newline}]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _record_rows(rows, newline: str) -> str | None:
    """The rows of a list of records, joined as ``_json`` joins them, or
    None when the rows differ in shape.

    The rows must be non-empty plain dicts with the first row's keys in the
    same order.  One row's text is then a template with the keys and
    indentation as text and one slot per value, and the rows are that
    template repeated, filled by one ``%``.  Each column is handled whole:

    - lists of one length keep a ``%d`` slot per entry when every entry is
      a plain int; rows of such lists only, as in the class listings, are
      checked in one pass;
    - plain ints take a ``%d`` slot, strings their C-encoded text, and
      bools ``true`` or ``false`` (``_column``);
    - other lists of plain ints or of strings are joined per cell;
    - anything else (``None`` among ints, nested values, subclasses) is
      written by ``_json`` per cell, which raises on what it rejects.
    """
    first = rows[0]
    if type(first) is not dict or not first:
        return None
    keys = tuple(first)
    if set(map(type, rows)) != _DICT_ONLY or not all(map(keys.__eq__, map(tuple, rows))):
        return None
    inner = newline + "  "
    deeper = inner + "  "
    columns = [list(map(itemgetter(key), rows)) for key in keys]
    kinds = [set(map(type, column)) for column in columns]
    inline = {
        j
        for j, column in enumerate(columns)
        if kinds[j] == _LIST_ONLY and len(set(map(len, column))) == 1
    }
    entries = None
    if len(inline) == len(keys):
        # rows of int lists only, as in the class listings: every entry in
        # row order, checked in one pass
        entries = tuple(chain.from_iterable(chain.from_iterable(map(dict.values, rows))))
        if not _INT_ONLY.issuperset(map(type, entries)):
            entries = None
    if entries is None:
        inline = {
            j for j in inline if _INT_ONLY.issuperset(map(type, chain.from_iterable(columns[j])))
        }
    parts = []
    slots = []
    for j, (key, column, kind) in enumerate(zip(keys, columns, kinds)):
        if j in inline:
            width = len(first[key])
            body = "[]"
            if width:
                body = "[" + deeper + ("," + deeper).join(["%d"] * width) + inner + "]"
            if entries is None:
                slots += zip(*column)
        else:
            body, values = _column(column, kind, inner)
            slots.append(values)
        parts.append(_encode_str(key).replace("%", "%%") + ": " + body)
    if entries is None:
        entries = tuple(chain.from_iterable(zip(*slots)))
    template = "{" + inner + ("," + inner).join(parts) + newline + "}"
    return ("," + newline).join([template] * len(rows)) % entries


def _column(column: list, kind: set, inner: str) -> tuple[str, list]:
    """The template slot of a ``_record_rows`` column without inline
    entries, and the values that fill it; ``kind`` is the set of the
    column's value types and ``inner`` the indentation of the record's keys."""
    if kind == _INT_ONLY:
        return "%d", column
    if kind == _STR_ONLY:
        return "%s", list(map(_encode_str, column))
    if kind == _BOOL_ONLY:
        return "%s", list(map(_BOOL_TEXT.__getitem__, column))
    if kind == _LIST_ONLY:
        entries = set(map(type, chain.from_iterable(column)))
        for plain, text in ((_INT_ONLY, int.__repr__), (_STR_ONLY, _encode_str)):
            if plain.issuperset(entries):
                deeper = inner + "  "
                start = "[" + deeper
                sep = "," + deeper
                end = inner + "]"
                cells = [f"{start}{sep.join(map(text, v))}{end}" if v else "[]" for v in column]
                return "%s", cells
    return "%s", [_json(v, inner) for v in column]


# -- text rendering -------------------------------------------------------------


def _kv_block(title: str, *pairs: tuple[str, object]) -> list[str]:
    width = max(len(k) for k, _ in pairs)
    return [title] + [f"  {k.ljust(width)}  {v}" for k, v in pairs]


def _table(records: Sequence[dict], columns: Sequence[tuple], indent: str = "  ") -> list[str]:
    """A header line and a line per record, one ``(header, key, format)``
    per column: each column is formatted whole and padded to its widest cell
    by one %-template, and every line is right-stripped after the indent."""
    cells = [[header, *map(fmt, map(itemgetter(key), records))] for header, key, fmt in columns]
    template = "  ".join([f"%-{max(map(len, column))}s" for column in cells])
    return [indent + (template % row).rstrip() for row in zip(*cells)]


_yes_no = {True: "yes", False: "no"}.__getitem__


def _nodes_label(nodes: list[int]) -> str:
    return "{" + ",".join(f"e{e}" for e in nodes) + "}"


def _dim(dim: int | None) -> str:
    return "unknown" if dim is None else str(dim)


def _witnesses(witnesses: list[list[str]]) -> str:
    return "; ".join(["{" + ",".join(names) + "}" for names in witnesses])


_S = ("S", "nodes", _nodes_label)
_MULTIDEGREE = ("multidegree", "multidegree", fmt_md)
_DIM = ("dim", "dim", _dim)
_LABEL = ("label", "label", fmt_md)
_STRATA_COLUMNS = (_S, _MULTIDEGREE, _DIM, ("component", "component", _yes_no))


def _curve_block(report: dict) -> list[str]:
    c = report["curve"]
    return _kv_block(
        "curve",
        ("components (vertices)", c["components"]),
        ("nodes (edges)", c["nodes"]),
        ("first Betti number", c["first_betti"]),
        ("genus", c["genus"]),
        ("complexity (spanning trees)", c["complexity"]),
        ("tree-like", _yes_no(c["tree_like"])),
        ("essential connectivity", c["essential_connectivity"]),
    )


def render_text(report: dict) -> str:
    """The aligned text form of a report: the curve block, then the section
    named after the command (``info`` has none).  Each table is one pass per
    column spec into one %-template, with every line right-stripped."""
    command = report["command"]
    lines = _curve_block(report)
    sec = report.get(command)
    if sec is not None:
        lines.append("")
    if command == "classgroup":
        lines += _kv_block(
            "degree class group",
            ("invariant factors", sec["invariant_factors"]),
            ("order", sec["order"]),
        )
        lines.append(f"  representatives in total degree {sec['degree']}:")
        lines += _table(sec["representatives"], (_LABEL, _MULTIDEGREE), "    ")
    elif command == "semistable":
        total = sec["total_degree"]
        lines.append(f"semistable multidegrees in total degree {total}: {len(sec['semistable'])}")
        witnesses = ("witnesses", "witnesses", _witnesses)
        lines += _table(sec["verdicts"], (_MULTIDEGREE, ("status", "status", str), witnesses))
        lines.append(f"stable multidegrees: {len(sec['stable'])}")
        lines += [f"  {fmt_md(d)}" for d in sec["stable"]]
    elif command == "semistabilize":
        lines += _kv_block(
            "semistabilization",
            ("input", fmt_md(sec["input"])),
            ("result", fmt_md(sec["result"])),
            ("firing vector", fmt_md(sec["firing"])),
            ("changed", _yes_no(sec["changed"])),
            ("result status", sec["status"]),
        )
    elif command == "strata":
        lines.append(f"strata: {sec['count']}")
        lines += _table(sec["strata"], _STRATA_COLUMNS)
    elif command == "components":
        rule = "rule validated" if sec["rule_validated"] else "heuristic rule"
        kind = f"complexity {sec['complexity']}, {sec['type']}, {rule}"
        lines.append(f"irreducible components: {sec['count']} ({kind})")
        lines += _table(sec["strata"], _STRATA_COLUMNS)
    elif command == "theta":
        lines.append(f"theta strata: {sec['count']}")
        description = ("description", "description", str)
        lines += _table(sec["strata"], (_S, _MULTIDEGREE, _DIM, description))
    elif command == "neron":
        plural = "" if sec["count"] == 1 else "s"
        lines.append(f"Neron fiber in degree {sec['degree']}: {sec['count']} component{plural}")
        representative = ("representative", "representative", fmt_md)
        lines += _table(sec["components"], (_LABEL, representative))
    elif command == "abel" and sec["mode"] == "g-minus-1":
        lines += _kv_block(
            f"degree g-1 Abel map (g1={sec['g1']}, g2={sec['g2']}, nodes={sec['nodes']})",
            ("naturality", sec["status"]),
            ("reason", sec["reason"]),
            ("offending", ", ".join(map(fmt_md, sec["offending"])) or "none"),
            ("profile all zero", _yes_no(sec["all_zero"])),
        )
        lines.append("  corrections:")
        lines += _table(
            sec["profile"],
            (("l", "l", str), ("a(l)", "correction", str), ("corrected", "corrected", fmt_md)),
            "    ",
        )
    elif command == "abel":
        pairs = [
            ("naturality", sec["status"]),
            ("reason", sec["reason"]),
            ("essential connectivity", sec["essential_connectivity"]),
            ("d-general", sec["d_general"] or "n/a"),
        ]
        if "degree1_embedding" in sec:
            emb = sec["degree1_embedding"]
            pairs.append(("degree-1 embedding", _yes_no(emb["is_embedding"])))
            if emb["offenders"]:
                pairs.append(("contracted components", ", ".join(emb["offenders"])))
        lines += _kv_block(f"degree {sec['degree']} Abel map", *pairs)
    elif command == "dgeneral":
        lines += _kv_block(
            "d-general classification",
            ("genus", sec["genus"]),
            ("degree", sec["degree"]),
            ("gcd(d-g+1, 2g-2)", sec["gcd"]),
            ("verdict", sec["verdict"]),
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
    strata_args = [common, vertex_cap, edge_cap]
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    sub.add_parser("info", parents=[common], help="curve summary invariants")
    p = sub.add_parser("classgroup", parents=[common], help="degree class group")
    p.add_argument("-d", "--degree", type=int, default=0)
    sub.add_parser(
        "semistable", parents=[common, vertex_cap], help="semistable and stable multidegrees"
    )
    p = sub.add_parser("semistabilize", parents=[common], help="semistabilize a multidegree")
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
        return build_semistabilize(graph, entries)
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
