"""nodalpic benchmark: run one workload for a fixed time and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload semistable_wide --seed 1 --seconds 30 --trace 0

A run writes the seeded corpus under perfbench/out/, then runs rounds until
``--seconds`` have passed; a round that has started is finished.  A round is
one fresh worker process (perfbench/worker.py) that imports nodalpic and runs
the whole op list once, one op at a time (a closed loop with one client).
Every op of the first round is checked by perfbench/checker.py, which does
not use nodalpic; every later round must reproduce the first round's outputs
byte for byte.  Every end-to-end time is scaled to one host speed by the
reference kernel that the worker times around each op (reference.py).
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
Exit code 2 means the run could not be made (for instance, no src/nodalpic).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checker
import corpus
import reference
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}

# Self times are reported only for traced functions that every workload reaches
# (a time that is zero by construction measures nothing); calls and list
# lengths are reported for every traced function.
TIMED = (
    "cli.parse_curve",
    "cli.curve_summary",
    "cli.main",
    "graph.complexity",
    "graph.essential_connectivity",
    "graph.bridges",
)
LAYER_TIMES = ("cli", "graph", "stability")
RETURNS_LIST = (
    "graph.partial_normalization",
    "stability.enumerate_semistable",
    "stability.enumerate_stable",
    "stability.enumerate_stable_disconnected",
    "picard.strata",
    "picard.irreducible_components",
    "classgroup.class_representatives",
    "theta.theta_strata",
)
PER_LAYER = {
    **{f"{m}.layer.ms": "ms" for m in LAYER_TIMES},
    **{f"{key}.ms": "ms" for key in TIMED},
    **{f"{m}.{f}.calls": "count" for m, fs in tracer.TRACED.items() for f in fs},
    **{f"{key}.results": "count" for key in RETURNS_LIST},
}


class RunError(Exception):
    """The run could not be made; nothing is printed on stdout."""


def run_round(root: str, job_path: str, number: int, deadline: float) -> dict:
    """Spawn one worker, time its set-up, wait for its result line.

    Round ``number`` runs with PYTHONHASHSEED=number: string-hash layouts
    change a worker's speed, and fixing them per round gives every run the
    same layouts instead of random ones.
    """
    worker = os.path.join(HERE, "worker.py")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, worker, root, job_path],
        cwd=root,
        env={**os.environ, "PYTHONHASHSEED": str(number)},
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "ready":
            proc.wait(timeout=10)
            raise RunError(f"worker did not start (exit code {proc.returncode})")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RunError("worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not rest.strip():
        raise RunError(f"worker failed with exit code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def check_rounds(curves, ops, rounds, outputs_dir) -> tuple[list[str], list[str]]:
    """(failed ops, problems with the ops that did not fail) over all rounds."""
    facts = [checker.Curve(c) for c in curves]
    first = rounds[0]
    failures, problems = [], []
    for r in rounds:
        for i, code in enumerate(r["rc"]):
            if code != 0:
                failures.append(f"op {i} {ops[i].command} exited {code}: {r['errors'].get(str(i), '')[-300:]}")
            elif r["sha"][i] != first["sha"][i]:
                problems.append(f"op {i} {ops[i].command} output differs from the first round")
    for i, op in enumerate(ops):
        if first["rc"][i] != 0:
            continue
        with open(os.path.join(outputs_dir, f"{i:04d}.out"), encoding="utf-8") as fh:
            text = fh.read()
        problems += [f"op {i} {op.command} on {curves[op.curve].label}: {p}" for p in checker.check(facts[op.curve], op, text)]
    if first["trace"] is not None:
        counts = [{k: (v["calls"], v["results"]) for k, v in r["trace"].items()} for r in rounds]
        if any(c != counts[0] for c in counts):
            problems.append("traced call or result counts differ between rounds")
    return failures, problems


def scaled_setup_s(r) -> float:
    """A round's set-up time, scaled by the worker's first kernel passes, right after it.

    Passes timed in the parent scale set-up worse: the parent and the worker
    may run on CPUs that run at different speeds at that moment.
    """
    return r["setup_s"] * reference.NOMINAL_MS / statistics.median(r["reference_ms"][:3])


def end_to_end(rounds) -> dict:
    scaled = [r["scaled_ms"] for r in rounds]
    per_op = [statistics.median(ms) for ms in zip(*scaled)]
    values = {
        "setup_s": statistics.median(scaled_setup_s(r) for r in rounds),
        "wall_s": sum(per_op) / 1e3,
        "op_p50_ms": statistics.median(per_op),
        "op_p90_ms": statistics.quantiles(per_op, n=10)[8],
        "peak_rss_mib": statistics.median(r["rss_kib"] / 1024 for r in rounds),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(rounds) -> dict:
    first = rounds[0]["trace"]
    values = {}
    for module in LAYER_TIMES:
        values[f"{module}.layer.ms"] = statistics.median(
            sum(v["ms"] for k, v in r["trace"].items() if k.startswith(module + ".")) for r in rounds
        )
    for key in TIMED:
        values[f"{key}.ms"] = statistics.median(r["trace"][key]["ms"] for r in rounds)
    for key, v in first.items():
        values[f"{key}.calls"] = v["calls"]
        if key in RETURNS_LIST:
            values[f"{key}.results"] = v["results"]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    began = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nodalpic", "__init__.py")):
        raise RunError(f"no src/nodalpic under {root}; run from the root of a nodalpic checkout")
    work = os.path.join(HERE, "out", f"{workload}-s{seed}{'-trace' if trace else ''}")
    shutil.rmtree(work, ignore_errors=True)
    outputs = os.path.join(work, "outputs")
    os.makedirs(outputs)
    curves, ops = corpus.build(workload, seed)
    paths = corpus.write_curves(curves, os.path.join(work, "curves"))
    job = {"ops": [op.argv(os.path.relpath(paths[op.curve], root)) for op in ops], "trace": trace}
    first_job, next_job = os.path.join(work, "job-first.json"), os.path.join(work, "job.json")
    for path, out in ((first_job, outputs), (next_job, None)):  # only the first round keeps its outputs
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**job, "outputs": out}, fh)

    start = time.perf_counter()
    rounds = []
    while not rounds or time.perf_counter() - start < seconds:
        job_path = next_job if rounds else first_job
        rounds.append(run_round(root, job_path, len(rounds), began + TIME_LIMIT_S))
    failures, problems = check_rounds(curves, ops, rounds, outputs)
    for p in (failures + problems)[:20]:
        print(f"check: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": len(failures),
        "metrics": per_layer(rounds) if trace else end_to_end(rounds),
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "rounds": rounds, "ops": job["ops"], "problems": failures + problems}, fh)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
