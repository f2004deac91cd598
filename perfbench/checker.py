"""Checks of nodalpic's reports against computations made apart from the program.

Nothing here imports ``nodalpic``.  The checker knows each curve from the
corpus that wrote its file and recomputes, by its own means:

* counts: spanning forests of the loopless dual graph (parallel edges
  distinct) give the number of semistable multidegrees in degree g-1
  (Hakimi's orientation theorem with Stanley's zonotope count); the signed
  sum T(0,1) = sum_k (-1)^(gamma-1-k) f_k over forests with k edges gives the
  number of stable ones; spanning trees (matrix-tree theorem over exact
  fractions) give the complexity, the class-group order and the Neron count;
* the strata count, sum over node sets S of the product over the pieces of
  the partial normalization of T_piece(0,1), and each stratum's dimension
  g - |S| + pieces - 1;
* a balancing test in orientation form: with D'(v) = d_v - g_v - loops_v + 1,
  a multidegree of total g-1 is semistable when every connected proper
  subcurve Z has sum_Z D' >= e(Z), the number of non-loop edges inside Z, and
  stable when every such inequality is strict;
* class-group membership through the adjugate of the reduced Laplacian:
  x is a twister difference exactly when adj(L0) x[1:] = 0 mod det(L0).

``check(curve, op, text)`` returns a list of problems, empty when the report
passes.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import cached_property
from itertools import combinations


def forest_counts(n: int, edges) -> list[int]:
    """f[k] = number of k-edge spanning forests; loops dropped, parallel edges distinct."""
    mult: dict[tuple[int, int], int] = {}
    for u, v in edges:
        if u != v:
            key = (min(u, v), max(u, v))
            mult[key] = mult.get(key, 0) + 1
    simple = [(u, v, m) for (u, v), m in sorted(mult.items())]
    counts = [0] * n

    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def grow(i, parent, k, weight):
        if i == len(simple):
            counts[k] += weight
            return
        grow(i + 1, parent, k, weight)
        u, v, m = simple[i]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            joined = parent[:]
            joined[ru] = rv
            grow(i + 1, joined, k + 1, weight * m)

    grow(0, list(range(n)), 0, 1)
    return counts


def _reduced_laplacian(n: int, edges) -> list[list[int]]:
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        if u != v:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
    return [row[1:] for row in lap[1:]]


def _det_and_inverse(matrix: list[list[int]]):
    """Determinant and inverse over the rationals by Gauss-Jordan elimination."""
    size = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(size)] for i, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(size):
        pivot = next(r for r in range(col, size) if a[r][col] != 0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        p = a[col][col]
        det *= p
        a[col] = [x / p for x in a[col]]
        for r in range(size):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det, [row[size:] for row in a]


class Graph:
    """A connected curve (or a piece of one) as the checker sees it."""

    def __init__(self, genera, edges):
        self.n = len(genera)
        self.genera = tuple(genera)
        self.edges = tuple(edges)
        self.loops = [0] * self.n
        for u, v in self.edges:
            if u == v:
                self.loops[u] += 1
        self.nonloop = [(u, v) for u, v in self.edges if u != v]
        self.genus = sum(self.genera) + len(self.edges) - self.n + 1

    @cached_property
    def forests(self) -> list[int]:
        return forest_counts(self.n, self.nonloop)

    @cached_property
    def semistable_count(self) -> int:
        return sum(self.forests)

    @cached_property
    def stable_count(self) -> int:
        return sum((-1) ** (self.n - 1 - k) * f for k, f in enumerate(self.forests))

    @cached_property
    def _class_data(self):
        if self.n == 1:
            return 1, []
        det, inverse = _det_and_inverse(_reduced_laplacian(self.n, self.edges))
        order = int(det)
        adjugate = [[int(x * det) for x in row] for row in inverse]
        return order, adjugate

    @property
    def spanning_trees(self) -> int:
        return self._class_data[0]

    def class_key(self, d) -> tuple[int, ...]:
        """Equal keys (at equal totals) exactly when two multidegrees differ by a twister."""
        order, adjugate = self._class_data
        tail = d[1:]
        return tuple(sum(a * x for a, x in zip(row, tail)) % order for row in adjugate)

    @property
    def tree_like(self) -> bool:
        return len(self.nonloop) == self.n - 1

    def _connected(self, members, edges) -> bool:
        inside = set(members)
        seen = {members[0]}
        frontier = [members[0]]
        while frontier:
            x = frontier.pop()
            for u, v in edges:
                for a, b in ((u, v), (v, u)):
                    if a == x and b in inside and b not in seen:
                        seen.add(b)
                        frontier.append(b)
        return len(seen) == len(inside)

    @cached_property
    def subcurves(self) -> list[tuple[tuple[int, ...], int]]:
        """Connected proper subcurves with the number of non-loop edges inside each."""
        out = []
        for size in range(1, self.n):
            for members in combinations(range(self.n), size):
                if self._connected(members, self.nonloop):
                    inside = set(members)
                    e_in = sum(1 for u, v in self.nonloop if u in inside and v in inside)
                    out.append((members, e_in))
        return out

    def status(self, d) -> tuple[str, list[tuple[int, ...]]]:
        """(status, deciding subcurves) of a multidegree of total g-1, by the orientation test."""
        dp = [d[v] - self.genera[v] - self.loops[v] + 1 for v in range(self.n)]
        violating, tight = [], []
        for members, e_in in self.subcurves:
            slack = sum(dp[v] for v in members) - e_in
            if slack < 0:
                violating.append(members)
            elif slack == 0:
                tight.append(members)
        if violating:
            return "unstable", violating
        if tight:
            return "strictly_semistable", tight
        return "stable", []

    @cached_property
    def bridges(self) -> set[int]:
        out = set()
        for i, (u, v) in enumerate(self.edges):
            if u != v:
                rest = [e for j, e in enumerate(self.edges) if j != i]
                if not self._connected(list(range(self.n)), rest):
                    out.add(i)
        return out

    @cached_property
    def essential_connectivity(self):
        """Smallest cut with no bridge in it; loops never cross a cut."""
        best = math.inf
        for mask in range(1, 1 << (self.n - 1)):  # vertex n-1 stays outside
            crossing = [
                i for i, (u, v) in enumerate(self.edges) if ((mask >> u) & 1) != ((mask >> v) & 1)
            ]
            if not self.bridges.intersection(crossing):
                best = min(best, len(crossing))
        return best


class Curve:
    """Checker-side facts about one corpus curve, cached across ops."""

    def __init__(self, curve):
        self.names = curve.names
        self.graph = Graph(curve.genera, curve.edges)
        self._pieces: dict[tuple[int, ...], tuple] = {}
        self._piece_graphs: dict[tuple, Graph] = {}

    def pieces(self, nodes: tuple[int, ...]):
        """Pieces of the partial normalization at ``nodes``: [(parent vertices, Graph)]."""
        if nodes not in self._pieces:
            g = self.graph
            removed = set(nodes)
            kept = [e for i, e in enumerate(g.edges) if i not in removed]
            label = list(range(g.n))

            def root(x):
                while label[x] != x:
                    x = label[x]
                return x

            for u, v in kept:
                ru, rv = root(u), root(v)
                if ru != rv:
                    label[max(ru, rv)] = min(ru, rv)
            groups: dict[int, list[int]] = {}
            for v in range(g.n):
                groups.setdefault(root(v), []).append(v)
            out = []
            for members in groups.values():
                local = {v: i for i, v in enumerate(members)}
                key = (
                    tuple(g.genera[v] for v in members),
                    tuple(sorted((local[u], local[v]) for u, v in kept if u in local)),
                )
                if key not in self._piece_graphs:
                    self._piece_graphs[key] = Graph(*key)
                out.append((members, self._piece_graphs[key]))
            self._pieces[nodes] = tuple(out)
        return self._pieces[nodes]

    def stratum_dim(self, nodes) -> int:
        return self.graph.genus - len(nodes) + len(self.pieces(nodes)) - 1

    def strata_per_nodeset(self, nodes) -> int:
        return math.prod(piece.stable_count for _, piece in self.pieces(nodes))

    @cached_property
    def nodesets(self) -> list[tuple[int, ...]]:
        delta = len(self.graph.edges)
        return [c for size in range(delta + 1) for c in combinations(range(delta), size)]

    @cached_property
    def strata_count(self) -> int:
        return sum(self.strata_per_nodeset(s) for s in self.nodesets)

    @cached_property
    def component_nodesets(self) -> list[tuple[int, ...]]:
        """Node sets of the maximal strata."""
        if self.graph.stable_count:
            return [()]
        live = [s for s in self.nodesets if self.strata_per_nodeset(s)]
        top = max(self.stratum_dim(s) for s in live)
        return [s for s in live if self.stratum_dim(s) == top]

    def stratum_problems(self, nodes, multidegree, dim) -> list[str]:
        nodes = tuple(nodes)
        if list(nodes) != sorted(set(nodes)) or any(not 0 <= e < len(self.graph.edges) for e in nodes):
            return [f"stratum S={list(nodes)} is not a node set of the curve"]
        if len(multidegree) != self.graph.n:
            return [f"stratum S={list(nodes)}: multidegree {multidegree} has the wrong length"]
        problems = []
        for members, piece in self.pieces(nodes):
            local = [multidegree[v] for v in members]
            if sum(local) != piece.genus - 1:
                problems.append(f"stratum S={list(nodes)}: total {sum(local)} on piece {members}, expected {piece.genus - 1}")
            elif piece.status(local)[0] != "stable":
                problems.append(f"stratum S={list(nodes)}: {multidegree} is not stable on piece {members}")
        if dim != self.stratum_dim(nodes):
            problems.append(f"stratum S={list(nodes)}: dim {dim}, expected {self.stratum_dim(nodes)}")
        return problems

    def strata_list_problems(self, rows, nodesets) -> list[str]:
        """Rows (nodes, multidegree) are distinct and fill each node set's stable set exactly."""
        keys = [(tuple(n), tuple(d)) for n, d in rows]
        if len(set(keys)) != len(keys):
            return ["a stratum is listed twice"]
        per_set: dict[tuple[int, ...], int] = {}
        for nodes, _ in keys:
            per_set[nodes] = per_set.get(nodes, 0) + 1
        problems = []
        for nodes in nodesets:
            want = self.strata_per_nodeset(nodes)
            if per_set.get(nodes, 0) != want:
                problems.append(f"S={list(nodes)}: {per_set.get(nodes, 0)} strata listed, expected {want}")
        return problems

    def summary_problems(self, summary: dict) -> list[str]:
        g = self.graph
        eps = g.essential_connectivity
        expected = {
            "vertices": [{"name": n, "genus": x} for n, x in zip(self.names, g.genera)],
            "edges": [[self.names[min(u, v)], self.names[max(u, v)]] for u, v in g.edges],
            "components": g.n,
            "nodes": len(g.edges),
            "first_betti": len(g.edges) - g.n + 1,
            "genus": g.genus,
            "complexity": g.spanning_trees,
            "tree_like": g.tree_like,
            "essential_connectivity": "infinity" if eps == math.inf else eps,
        }
        return [
            f"curve.{key} is {summary.get(key)!r}, expected {value!r}"
            for key, value in expected.items()
            if summary.get(key) != value
        ]


# -- per-command checks ------------------------------------------------------------


def _md_text(entries) -> str:
    return "(" + ",".join(map(str, entries)) + ")" if len(entries) != 1 else str(entries[0])


_ROW = re.compile(r"^  (\(?-?[\d,-]+\)?)\s+(stable|strictly_semistable|unstable)\s*(.*)$")


def _parse_md(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.strip().strip("()").split(","))


def _check_semistable_text(curve: Curve, op, text: str) -> list[str]:
    g = curve.graph
    lines = text.splitlines()
    kv = dict(re.findall(r"^  (\S.*?\S)\s{2,}(\S+)$", "\n".join(lines[:8]), flags=re.M))
    problems = []
    if kv.get("complexity (spanning trees)") != str(g.spanning_trees):
        problems.append(f"complexity line reads {kv.get('complexity (spanning trees)')}, expected {g.spanning_trees}")
    if kv.get("genus") != str(g.genus):
        problems.append(f"genus line reads {kv.get('genus')}, expected {g.genus}")
    head = next((i for i, line in enumerate(lines) if line.startswith("semistable multidegrees")), None)
    tail = next((i for i, line in enumerate(lines) if line.startswith("stable multidegrees:")), None)
    if head is None or tail is None:
        return problems + ["semistable report is missing its section headers"]
    declared = int(lines[head].rsplit(":", 1)[1])
    if not lines[head].startswith(f"semistable multidegrees in total degree {g.genus - 1}:"):
        problems.append(f"wrong total degree in {lines[head]!r}")
    rows = []
    for line in lines[head + 2 : tail]:
        match = _ROW.match(line)
        if not match:
            problems.append(f"unparsed row {line!r}")
            continue
        rows.append((_parse_md(match.group(1)), match.group(2), match.group(3)))
    stable_rows = [_parse_md(line) for line in lines[tail + 1 :] if line.strip()]
    want_semi, want_stable = g.semistable_count, g.stable_count
    if declared != want_semi or len(rows) != want_semi:
        problems.append(f"{declared} semistable declared, {len(rows)} listed, {want_semi} spanning forests")
    if int(lines[tail].rsplit(":", 1)[1]) != want_stable or len(stable_rows) != want_stable:
        problems.append(f"{len(stable_rows)} stable listed, T(0,1) = {want_stable}")
    if len({d for d, _, _ in rows}) != len(rows):
        problems.append("a semistable multidegree is listed twice")
    for d, status, witnesses in rows:
        if len(d) != g.n or sum(d) != g.genus - 1:
            problems.append(f"{_md_text(d)} has the wrong length or total")
            continue
        want, deciding = g.status(d)
        if status != want:
            problems.append(f"{_md_text(d)} listed as {status}, balancing test says {want}")
        named = {frozenset(w.strip("{}").split(",")) for w in witnesses.split("; ") if w}
        if named != {frozenset(curve.names[v] for v in z) for z in deciding}:
            problems.append(f"{_md_text(d)}: witnesses {witnesses!r} differ from the tight subcurves")
    if set(stable_rows) != {d for d, status, _ in rows if status == "stable"}:
        problems.append("the stable list differs from the rows marked stable")
    return problems


def _check_strata(curve: Curve, op, report: dict) -> list[str]:
    sec = report["strata"]
    rows = sec["strata"]
    problems = []
    if sec["count"] != curve.strata_count or len(rows) != curve.strata_count:
        problems.append(f"{sec['count']} strata declared, {len(rows)} listed, expected {curve.strata_count}")
    comps = set(curve.component_nodesets)
    for row in rows:
        problems += curve.stratum_problems(row["nodes"], row["multidegree"], row["dim"])
        if row["component"] != (tuple(row["nodes"]) in comps):
            problems.append(f"S={row['nodes']}: component flag {row['component']} is wrong")
    problems += curve.strata_list_problems([(r["nodes"], r["multidegree"]) for r in rows], curve.nodesets)
    return problems


def _check_components(curve: Curve, op, report: dict) -> list[str]:
    g = curve.graph
    sec = report["components"]
    rows = sec["strata"]
    nodesets = curve.component_nodesets
    want = sum(curve.strata_per_nodeset(s) for s in nodesets)
    problems = []
    if sec["count"] != want or len(rows) != want:
        problems.append(f"{sec['count']} components declared, {len(rows)} listed, expected {want}")
    expected = {
        "complexity": g.spanning_trees,
        "type": "N-type" if g.tree_like else "D-type",
        "tree_like": g.tree_like,
        "rule_validated": g.n == 1 or g.tree_like or (g.n == 2 and not any(g.loops)),
    }
    problems += [f"components.{k} is {sec[k]!r}, expected {v!r}" for k, v in expected.items() if sec[k] != v]
    for row in rows:
        problems += curve.stratum_problems(row["nodes"], row["multidegree"], row["dim"])
        if not row["component"]:
            problems.append(f"component S={row['nodes']} is flagged as not a component")
    problems += curve.strata_list_problems([(r["nodes"], r["multidegree"]) for r in rows], nodesets)
    return problems


def _check_theta(curve: Curve, op, report: dict) -> list[str]:
    sec = report["theta"]
    rows = sec["strata"]
    problems = []
    if sec["count"] != curve.strata_count or len(rows) != curve.strata_count:
        problems.append(f"{sec['count']} theta strata declared, {len(rows)} listed, expected {curve.strata_count}")
    for row in rows:
        nodes = tuple(row["nodes"])
        found = curve.stratum_problems(nodes, row["multidegree"], row["base_dim"])
        problems += found
        if found:
            continue
        known = any(piece.genus >= 1 for _, piece in curve.pieces(nodes))
        want = row["base_dim"] - 1 if known else None
        if row["dim"] != want:
            problems.append(f"theta S={list(nodes)}: dim {row['dim']}, expected {want}")
    problems += curve.strata_list_problems([(r["nodes"], r["multidegree"]) for r in rows], curve.nodesets)
    return problems


def _class_list_problems(curve: Curve, what: str, reps, total: int) -> list[str]:
    g = curve.graph
    problems = []
    if len(reps) != g.spanning_trees:
        problems.append(f"{len(reps)} {what} listed, {g.spanning_trees} spanning trees")
    labels = [tuple(label) for label, _ in reps]
    if len(set(labels)) != len(labels):
        problems.append(f"two {what} share a label")
    keys = set()
    for _, d in reps:
        if len(d) != g.n or sum(d) != total:
            problems.append(f"{what} {d} has the wrong length or total (expected {total})")
        keys.add(g.class_key(d))
    if len(keys) != len(reps):
        problems.append(f"two {what} lie in the same class")
    return problems


def _check_classgroup(curve: Curve, op, report: dict) -> list[str]:
    g = curve.graph
    sec = report["classgroup"]
    factors = sec["invariant_factors"]
    degree = int(op.args[op.args.index("-d") + 1])
    problems = []
    if math.prod(factors) != sec["order"] or sec["order"] != g.spanning_trees:
        problems.append(f"factors {factors}, order {sec['order']}, spanning trees {g.spanning_trees}")
    if any(f <= 1 for f in factors) or any(b % a for a, b in zip(factors, factors[1:])):
        problems.append(f"invariant factors {factors} are not a divisor chain above 1")
    if sec["degree"] != degree:
        problems.append(f"degree {sec['degree']}, asked for {degree}")
    for r in sec["representatives"]:
        if len(r["label"]) != len(factors) or any(not 0 <= x < f for x, f in zip(r["label"], factors)):
            problems.append(f"label {r['label']} is outside the factors {factors}")
    reps = [(r["label"], r["multidegree"]) for r in sec["representatives"]]
    return problems + _class_list_problems(curve, "representatives", reps, degree)


def _check_neron(curve: Curve, op, report: dict) -> list[str]:
    g = curve.graph
    sec = report["neron"]
    problems = []
    if sec["count"] != g.spanning_trees:
        problems.append(f"Neron count {sec['count']}, spanning trees {g.spanning_trees}")
    if sec["degree"] != 0:
        problems.append(f"Neron degree {sec['degree']}, asked for 0")
    reps = [(c["label"], c["representative"]) for c in sec["components"]]
    return problems + _class_list_problems(curve, "Neron components", reps, 0)


def _check_abel(curve: Curve, op, report: dict) -> list[str]:
    g = curve.graph
    sec = report["abel"]
    eps = g.essential_connectivity
    if g.genus < 2:
        d_general = None
    elif math.gcd(1 - g.genus + 1, 2 * g.genus - 2) == 1:
        d_general = "all-curves"
    else:
        d_general = "tree-like-only" if g.tree_like else "unknown"
    offenders = [
        curve.names[v]
        for v in range(g.n)
        if g.genera[v] == 0
        and g.loops[v] == 0
        and all(i in g.bridges for i, (a, b) in enumerate(g.edges) if a != b and v in (a, b))
    ]
    expected = {
        "mode": "degree",
        "degree": 1,
        "status": "not-natural" if 1 >= eps else "possibly-natural",
        "essential_connectivity": "infinity" if eps == math.inf else eps,
        "d_general": d_general,
        "degree1_embedding": {"is_embedding": not offenders, "offenders": offenders},
    }
    return [f"abel.{k} is {sec.get(k)!r}, expected {v!r}" for k, v in expected.items() if sec.get(k) != v]


def _check_semistabilize(curve: Curve, op, report: dict) -> list[str]:
    g = curve.graph
    sec = report["semistabilize"]
    given = [int(x) for x in op.args[-1].split("=", 1)[1].split(",")]
    result, firing = sec["result"], sec["firing"]
    problems = []
    if sec["input"] != given:
        problems.append(f"input echoed as {sec['input']}, given {given}")
    if len(result) != g.n or len(firing) != g.n:
        return problems + ["result or firing vector has the wrong length"]
    moved = [0] * g.n
    for u, v in g.nonloop:
        # -L @ firing: each edge moves one unit from the end that fires more
        moved[u] += firing[v] - firing[u]
        moved[v] += firing[u] - firing[v]
    if [r - d for r, d in zip(result, given)] != moved:
        problems.append(f"result - input {[r - d for r, d in zip(result, given)]} != -L firing {moved}")
    if min(firing) != 0:
        problems.append(f"firing vector {firing} does not have minimum 0")
    status = g.status(result)[0] if sum(result) == g.genus - 1 else "unstable"
    if status == "unstable":
        problems.append(f"result {result} fails the balancing test")
    if sec["status"] != status:
        problems.append(f"status {sec['status']}, balancing test says {status}")
    if sec["changed"] != (result != given):
        problems.append(f"changed flag {sec['changed']} is wrong")
    return problems


_JSON_CHECKS = {
    "info": None,
    "strata": _check_strata,
    "components": _check_components,
    "theta": _check_theta,
    "classgroup": _check_classgroup,
    "neron": _check_neron,
    "abel": _check_abel,
    "semistabilize": _check_semistabilize,
}


def check(curve: Curve, op, text: str) -> list[str]:
    """Problems with one op's report; an empty list means it passes."""
    try:
        if "--json" not in op.args:
            if op.command != "semistable":
                return [f"no text check for {op.command}"]
            return _check_semistable_text(curve, op, text)
        report = json.loads(text)
        if report.get("command") != op.command:
            return [f"report is for {report.get('command')!r}, op was {op.command!r}"]
        problems = curve.summary_problems(report["curve"])
        extra = _JSON_CHECKS[op.command]
        return problems + (extra(curve, op, report) if extra else [])
    except (KeyError, TypeError, IndexError, ValueError) as exc:  # JSONDecodeError is a ValueError
        return [f"malformed {op.command} report: {exc!r}"]
