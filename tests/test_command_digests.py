"""Byte-identity guard for every command, in text and in ``--json``.

Each command runs on 100 seeded curves, and its exit code, stdout and stderr
(with the curve file's path replaced) are hashed into one SHA-256 per command
and format.  The recorded digests live in ``golden/command_digests.json``; a
change that alters any report, error message or exit code on any of these
curves changes a digest.  After a deliberate report change, rewrite the file
with ``PYTHONPATH=src python tests/test_command_digests.py``.
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

from nodalpic.cli import main

from helpers import GOLDEN, random_connected_graph

DIGESTS = GOLDEN / "command_digests.json"

# (name, arguments after the curve path); the semistabilize multidegree is
# filled in per curve
COMMANDS = [
    ("info", []),
    ("classgroup -d 0", ["-d", "0"]),
    ("semistable", []),
    ("semistabilize", None),
    ("strata", []),
    ("components", []),
    ("theta", []),
    ("neron -d 1", ["-d", "1"]),
    ("abel -d 1", ["-d", "1"]),
    ("abel --g-minus-1", ["--g-minus-1"]),
    ("dgeneral -d 1", ["-d", "1"]),
]


def corpus():
    rng = random.Random(2407)
    return [random_connected_graph(rng, max_vertices=6, max_edges=10, max_genus=2) for _ in range(100)]


def _curve_text(graph) -> str:
    lines = [f"vertex {v.name} {v.genus}" for v in graph.vertices]
    lines += [f"edge {graph.names[u]} {graph.names[v]}" for u, v in graph.edges]
    return "\n".join(lines) + "\n"


def command_digests() -> dict[str, str]:
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k, graph in enumerate(corpus()):
            path = str(Path(tmp) / f"curve{k}.txt")
            Path(path).write_text(_curve_text(graph), encoding="utf-8")
            for name, extra in COMMANDS:
                if extra is None:
                    entries = [graph.genus - 1] + [0] * (graph.gamma - 1)
                    extra = ["--multidegree=" + ",".join(map(str, entries))]
                for fmt, flag in (("text", []), ("json", ["--json"])):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main([name.split()[0], path, *extra, *flag])
                    h = hashes.setdefault(f"{name} {fmt}", hashlib.sha256())
                    for part in (str(code), out.getvalue(), err.getvalue()):
                        h.update(part.replace(path, "<curve>").encode("utf-8") + b"\0")
    return {key: h.hexdigest() for key, h in hashes.items()}


def test_every_command_is_byte_identical_to_its_recorded_digest():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert len(recorded) == 2 * len(COMMANDS)
    assert command_digests() == recorded


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(command_digests(), indent=2) + "\n", encoding="utf-8")
