"""Seeded curve corpora and op lists for the three benchmark workloads.

A curve is a vertex-genus list plus an edge list on vertex indices; vertex i
is named ``c<i>`` in the curve file.  An op is one CLI command on one curve
file.  The same (workload, seed) always gives the same curves, the same files
and the same ops.  Why each part of a corpus is there is in README.md.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

@dataclass(frozen=True)
class Curve:
    label: str
    genera: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    fmt: str  # "text" or "json": the curve-file format

    @property
    def names(self) -> list[str]:
        return [f"c{i}" for i in range(len(self.genera))]

    def file_text(self) -> str:
        names = self.names
        if self.fmt == "json":
            return json.dumps(
                {
                    "vertices": [{"name": n, "genus": g} for n, g in zip(names, self.genera)],
                    "edges": [[names[u], names[v]] for u, v in self.edges],
                }
            )
        lines = [f"# {self.label}"]
        lines += [f"vertex {n} {g}" for n, g in zip(names, self.genera)]
        lines += [f"edge {names[u]} {names[v]}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Op:
    curve: int  # index into the corpus' curve list
    command: str
    args: tuple[str, ...]  # options after the curve file

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.args]


def _genera(rng: random.Random, n: int, max_genus: int) -> tuple[int, ...]:
    return tuple(rng.randint(0, max_genus) for _ in range(n))


def cycle(rng: random.Random, n: int) -> Curve:
    order = list(range(n))
    rng.shuffle(order)
    edges = tuple((order[i], order[(i + 1) % n]) for i in range(n))
    return Curve(f"C{n}", _genera(rng, n, 2), edges, "text")


def complete(rng: random.Random, n: int) -> Curve:
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return Curve(f"K{n}", _genera(rng, n, 2), edges, "text")


def vine(rng: random.Random, delta: int) -> Curve:
    return Curve(f"vine{delta}", _genera(rng, 2, 2), ((0, 1),) * delta, "json")


def multigraph(rng: random.Random, n: int, delta: int, max_genus: int, fmt: str) -> Curve:
    """Connected multigraph with ``n`` vertices and ``delta`` edges in all.

    A random spanning tree, then random extra edges between distinct vertices
    (parallel edges allowed); with probability 1/4 one of the extra edges is
    a loop instead.
    """
    if delta < n - 1:
        raise ValueError("a connected graph needs at least n - 1 edges")
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[rng.randrange(i)], order[i]) for i in range(1, n)]
    if delta > len(edges) and rng.random() < 0.25:
        v = rng.randrange(n)
        edges.append((v, v))
    while len(edges) < delta:
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    rng.shuffle(edges)
    return Curve(f"G{n}.{delta}", _genera(rng, n, max_genus), tuple(edges), fmt)


# (components, node counts, curves per node count).  Sized so that one round
# takes 2-10 s on a 2-core host and holds well over 100 ops, with blocks of
# similar ops around the 50th and 90th percentiles of op latency, so that
# those percentiles do not jump between seeds.
SEMISTABLE_CLASSES = (
    (5, (5, 6, 7), 6),
    (6, (5, 6), 10),
    (6, (7,), 24),  # 6 components, 7 nodes: 15-35 ms, like (7, (6,)): the 50th percentile
    (7, (6,), 24),
    (7, (7,), 24),
    (7, (8,), 12),  # 7 components, 8 nodes: 40-120 ms, like (8, (7,)): the 90th percentile
    (8, (7,), 12),
    (8, (8,), 2),
    (9, (8,), 1),
)
# 6 nodes, 15-32 ms per op, are the 50th percentile; 8 nodes, 60-200 ms, the 90th
STRATA_CLASSES = tuple((n, deltas, per) for n in (2, 3, 4) for deltas, per in (((5, 6), 6), ((7,), 4), ((8,), 2)))
LATTICE_CURVES_PER_GAMMA = 36
MULTIDEGREE_RANGE = 30


def semistable_wide(rng: random.Random) -> tuple[list[Curve], list[Op]]:
    curves = [cycle(rng, n) for n in (8, 9, 10)] + [complete(rng, n) for n in (5, 6)]
    for n, deltas, per in SEMISTABLE_CLASSES:
        for delta in deltas:
            curves += [multigraph(rng, n, delta, 2, "text") for _ in range(per)]
    return curves, [Op(i, "semistable", ()) for i in range(len(curves))]


def strata_deep(rng: random.Random) -> tuple[list[Curve], list[Op]]:
    curves = [vine(rng, delta) for delta in (5, 6, 7, 8, 9)]
    for n, deltas, per in STRATA_CLASSES:
        for delta in deltas:
            curves += [multigraph(rng, n, delta, 2, "json") for _ in range(per)]
    ops = [
        Op(i, command, ("--json",))
        for i in range(len(curves))
        for command in ("strata", "components", "theta")
    ]
    return curves, ops


def genus(curve: Curve) -> int:
    return sum(curve.genera) + len(curve.edges) - len(curve.genera) + 1


def seeded_multidegree(rng: random.Random, n: int, total: int) -> list[int]:
    """Uniform over multidegrees with every entry within the range and the given total."""
    while True:
        entries = [rng.randint(-MULTIDEGREE_RANGE, MULTIDEGREE_RANGE) for _ in range(n - 1)]
        last = total - sum(entries)
        if abs(last) <= MULTIDEGREE_RANGE:
            return entries + [last]


def lattice_mix(rng: random.Random) -> tuple[list[Curve], list[Op]]:
    curves: list[Curve] = []
    ops: list[Op] = []
    for n in range(5, 10):
        for k in range(LATTICE_CURVES_PER_GAMMA):
            delta = 8 + (n + k) % 7  # 8..14 nodes, spread evenly over each gamma
            curve = multigraph(rng, n, delta, 3, ("text", "json")[k % 2])
            i = len(curves)
            curves.append(curve)
            g = genus(curve)
            md = ",".join(map(str, seeded_multidegree(rng, n, g - 1)))
            ops += [
                Op(i, "info", ("--json",)),
                Op(i, "classgroup", ("--json", "-d", str(g - 1))),
                Op(i, "neron", ("--json", "-d", "0")),
                Op(i, "abel", ("--json", "-d", "1")),
                Op(i, "semistabilize", ("--json", f"--multidegree={md}")),
            ]
    return curves, ops


_BUILDERS = {
    "semistable_wide": semistable_wide,
    "strata_deep": strata_deep,
    "lattice_mix": lattice_mix,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int) -> tuple[list[Curve], list[Op]]:
    """The curves and the op list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng)


def write_curves(curves: list[Curve], directory: str) -> list[str]:
    """Write one curve file per curve; returns the paths in corpus order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, curve in enumerate(curves):
        ext = "json" if curve.fmt == "json" else "txt"
        path = os.path.join(directory, f"{i:03d}-{curve.label}.{ext}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(curve.file_text())
        paths.append(path)
    return paths
