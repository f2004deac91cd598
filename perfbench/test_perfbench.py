"""Tests of the benchmark itself: the independent checker, the tracer, the contract.

Each checker test takes a genuine report from nodalpic, shows that it passes,
then tampers with it (a row dropped, an unbalanced row added, a count or a
dimension off by one) and shows that the check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import corpus  # noqa: E402
import reference  # noqa: E402
import run as bench  # noqa: E402
from nodalpic import cli  # noqa: E402

# a triangle with a doubled side and a loop: strictly semistable and stable rows, strata of every shape
SMALL = corpus.Curve("small", (0, 1, 0), ((0, 1), (1, 2), (0, 2), (0, 2), (1, 1)), "text")


def report(curve: corpus.Curve, op: corpus.Op, tmp_path) -> str:
    path = tmp_path / "curve.txt"
    path.write_text(curve.file_text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(op.argv(str(path))) == 0
    return out.getvalue()


def problems(curve, op, text):
    return checker.check(checker.Curve(curve), op, text)


def test_forest_counts_match_known_values():
    k6 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    assert sum(checker.forest_counts(6, k6)) == 2932
    for n in range(3, 9):
        cycle = checker.Graph([0] * n, [(i, (i + 1) % n) for i in range(n)])
        assert cycle.semistable_count == 2**n - 1
        assert cycle.stable_count == 1
    assert checker.Graph([0] * 6, k6).spanning_trees == 6**4


def _tamper_semistable(text: str, how: str) -> str:
    lines = text.splitlines()
    first_row = next(i for i, line in enumerate(lines) if line.startswith("  multidegree")) + 1
    if how == "drop":
        del lines[first_row]
    elif how == "unbalanced":
        lines.insert(first_row, "  (-9,9,3)    strictly_semistable  {c0}")
    elif how == "count":
        i = next(i for i, line in enumerate(lines) if line.startswith("semistable multidegrees"))
        head, count = lines[i].rsplit(":", 1)
        lines[i] = f"{head}: {int(count) + 1}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("how", ["drop", "unbalanced", "count"])
def test_semistable_check_catches_tampering(tmp_path, how):
    op = corpus.Op(0, "semistable", ())
    text = report(SMALL, op, tmp_path)
    assert problems(SMALL, op, text) == []
    assert problems(SMALL, op, _tamper_semistable(text, how))


def _json_op(command, *args):
    return corpus.Op(0, command, ("--json", *args))


@pytest.mark.parametrize("command", ["strata", "theta", "components"])
@pytest.mark.parametrize("how", ["drop", "unbalanced", "count", "dim"])
def test_strata_checks_catch_tampering(tmp_path, command, how):
    op = _json_op(command)
    text = report(SMALL, op, tmp_path)
    assert problems(SMALL, op, text) == []
    data = json.loads(text)
    sec = data[command]
    row = sec["strata"][0]
    if how == "drop":
        sec["strata"].pop()
    elif how == "unbalanced":
        bad = dict(row, multidegree=[row["multidegree"][0] - 5, row["multidegree"][1] + 5, row["multidegree"][2]])
        sec["strata"].append(bad)
        sec["count"] += 1
    elif how == "count":
        sec["count"] += 1
    elif how == "dim":
        row["base_dim" if command == "theta" else "dim"] += 1
    assert problems(SMALL, op, json.dumps(data))


def _lattice_curve():
    return corpus.multigraph(random.Random(3), 5, 9, 3, "json")


@pytest.mark.parametrize(
    "command,args,tamper",
    [
        ("info", (), lambda d: d["curve"].update(complexity=d["curve"]["complexity"] + 1)),
        ("info", (), lambda d: d["curve"].update(essential_connectivity=1)),
        ("classgroup", ("-d", "2"), lambda d: d["classgroup"].update(order=d["classgroup"]["order"] + 1)),
        ("classgroup", ("-d", "2"), lambda d: d["classgroup"]["representatives"].pop()),
        ("classgroup", ("-d", "2"), lambda d: d["classgroup"]["representatives"][0]["multidegree"].__setitem__(0, 99)),
        ("neron", ("-d", "0"), lambda d: d["neron"].update(count=d["neron"]["count"] - 1)),
        ("neron", ("-d", "0"), lambda d: d["neron"]["components"].append(d["neron"]["components"][0])),
        ("abel", ("-d", "1"), lambda d: d["abel"].update(status="not-natural")),
    ],
)
def test_lattice_checks_catch_tampering(tmp_path, command, args, tamper):
    curve = _lattice_curve()
    op = _json_op(command, *args)
    text = report(curve, op, tmp_path)
    assert problems(curve, op, text) == []
    data = json.loads(text)
    tamper(data)
    assert problems(curve, op, json.dumps(data))


@pytest.mark.parametrize("how", ["result", "firing", "status"])
def test_semistabilize_check_catches_tampering(tmp_path, how):
    curve = _lattice_curve()
    md = corpus.seeded_multidegree(random.Random(5), 5, corpus.genus(curve) - 1)
    op = _json_op("semistabilize", f"--multidegree={','.join(map(str, md))}")
    text = report(curve, op, tmp_path)
    assert problems(curve, op, text) == []
    data = json.loads(text)
    sec = data["semistabilize"]
    if how == "result":
        sec["result"][0] += 1
        sec["result"][1] -= 1
    elif how == "firing":
        sec["firing"] = [f + 1 for f in sec["firing"]]
    elif how == "status":
        sec["status"] = "unstable"
    assert problems(curve, op, json.dumps(data))


def _traced_round(tmp_path, curves, ops, name) -> dict:
    paths = corpus.write_curves(curves, str(tmp_path / "curves"))
    job = tmp_path / f"{name}.json"
    job.write_text(json.dumps({"ops": [op.argv(paths[op.curve]) for op in ops], "trace": True, "outputs": None}))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), ROOT, str(job)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rc"] == [0] * len(ops)
    return result["trace"]


def test_traced_counts_repeat_between_runs(tmp_path):
    curves, ops = corpus.build("lattice_mix", 1)
    ops = [op for op in ops if op.curve < 3]
    strata_curves, strata_ops = corpus.build("strata_deep", 1)
    ops += [corpus.Op(op.curve + len(curves), op.command, op.args) for op in strata_ops if op.curve < 2]
    curves = curves + strata_curves
    first, second = (_traced_round(tmp_path, curves, ops, name) for name in ("a", "b"))
    counts = lambda trace: {k: (v["calls"], v["results"]) for k, v in trace.items()}  # noqa: E731
    assert counts(first) == counts(second)
    assert first["picard.strata"]["calls"] == 5 * 2  # strata 2, components 2, theta 1 per curve


def test_enumerate_semistable_results_equal_forest_total(tmp_path):
    curves, ops = corpus.build("semistable_wide", 1)
    small = [op for op in ops if len(curves[op.curve].genera) <= 7]
    trace = _traced_round(tmp_path, curves, small, "semi")
    forests = sum(checker.Graph(c.genera, c.edges).semistable_count for c in (curves[op.curve] for op in small))
    assert trace["stability.enumerate_semistable"]["results"] == forests
    assert trace["stability.enumerate_semistable"]["calls"] == len(small)


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


def test_times_are_scaled_by_the_reference_passes_around_them():
    nominal = reference.NOMINAL_MS
    assert reference.scaled_ms([10.0, 20.0], [nominal / 2, nominal, 2 * nominal]) == pytest.approx(10.0 / 0.75 + 20.0 / 1.5)
    r = {"reference_ms": [nominal / 2, nominal, 2 * nominal], "setup_s": 0.2}
    assert bench.scaled_setup_s(r) == pytest.approx(0.2)
    assert reference.kernel() == reference.kernel() > 0


def test_sampler_cuts_a_block_at_kernel_passes():
    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with reference.Sampler(0.01) as sampler:
        spin(0.1)
    assert len(sampler.segments_ms) == len(sampler.passes_ms) + 1 >= 5
    # spin() runs to a wall-clock end, so the passes inside it shorten its own time
    assert sum(sampler.segments_ms) + sum(sampler.passes_ms) == pytest.approx(100, abs=3)
    assert all(p > 0 for p in sampler.passes_ms)
    with reference.Sampler(0) as sampler:
        spin(0.03)
    assert sampler.passes_ms == [] and len(sampler.segments_ms) == 1


def test_corpus_repeats_for_a_seed_and_ops_reach_one_hundred():
    for workload in corpus.WORKLOADS:
        curves, ops = corpus.build(workload, 7)
        assert (curves, ops) == corpus.build(workload, 7)
        assert curves != corpus.build(workload, 8)[0]
        assert len(ops) >= 100


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
