"""One benchmark round in a fresh process: import nodalpic, run every op, report.

Usage: python3 perfbench/worker.py <checkout root> <job.json>

The process prints ``ready`` once ``import nodalpic`` has finished, so the
parent can time set-up, then runs each op through ``nodalpic.cli.main(argv)``
in turn with stdout and stderr captured, and prints one JSON line: per-op
latency, exit code and output hash, the process' peak RSS and, when the job
asks for it, the traced per-function figures.  The program's caches start cold
in each worker and persist across its ops.  The reference kernel
(reference.py) is timed before the first op, after every op and every 50 ms
during one, so each stretch of an op lies between two kernel passes that
measure the host's speed at that moment; the worker reports each op's
latency both as measured and scaled by them.
"""

import os
import sys


def main() -> int:
    root, job_path = sys.argv[1], sys.argv[2]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import nodalpic
    from nodalpic import cli

    if not os.path.abspath(nodalpic.__file__).startswith(src + os.sep):
        print(f"worker: imported nodalpic from {nodalpic.__file__}, not from {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)

    import contextlib
    import hashlib
    import io
    import json
    import resource
    import traceback

    import reference

    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    outputs = job["outputs"]
    for _ in range(3):  # the interpreter specialises the kernel's code on its first passes
        reference.timed()
    # no samples inside the ops of a traced round: they would count in the self times
    interval_s = 0 if tracer else reference.SAMPLE_S
    latencies, scaled, codes, digests, errors = [], [], [], [], {}
    reference_ms = [reference.timed()]
    for i, argv in enumerate(job["ops"]):
        out, err = io.StringIO(), io.StringIO()
        sampler = reference.Sampler(interval_s)
        with sampler, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an op that crashes counts as failed; the round goes on
                code = -1
                traceback.print_exc()
        reference_ms.append(reference.timed())
        latencies.append(sum(sampler.segments_ms))
        scaled.append(reference.scaled_ms(sampler.segments_ms, [reference_ms[-2], *sampler.passes_ms, reference_ms[-1]]))
        text = out.getvalue()
        codes.append(code)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        if code != 0:
            errors[i] = err.getvalue()[-2000:]
        if outputs:
            with open(os.path.join(outputs, f"{i:04d}.out"), "w", encoding="utf-8") as fh:
                fh.write(text)
    result = {
        "ms": latencies,
        "scaled_ms": scaled,
        "reference_ms": reference_ms,
        "rc": codes,
        "sha": digests,
        "errors": errors,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.snapshot() if tracer else None,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
