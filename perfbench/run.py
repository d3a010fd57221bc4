"""maplp benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload grid-solve --seed 0 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``grid-solve``, ``cycles-pursuit`` and
``small-certify``.  The benchmark imports ``maplp`` from ``src/`` of the
checkout it sits in, and refuses to run without it.  It runs in a single
process and a single thread: numpy's thread pools are pinned to one thread.

With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
repeats and reports the per-layer metrics, including the tracing overhead
(traced over untraced setup+solve time).  A per-layer metric of a layer the
workload never calls reads 0.  The last stdout line is the result object;
the line before it holds the host, library versions, work counts, dual trace
digests and any failures.  A failed gate or an exception still gives a
result line, with ``correct`` false; when no repeat completed, its metrics
read 0 and the exit code is 1.  Traced runs write their spans to
``perfbench/out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def host_info(numpy, maplp) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "maplp": maplp.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }


def write_spans(reps, workload: str, seed: int) -> Path:
    path = HERE / "out" / f"spans-{workload}-{seed}.json"
    spans = [s for r in reps for s in r.rec.spans]
    path.write_text(json.dumps(spans) + "\n")
    return path


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    src = ROOT / "src"
    if not (src / "maplp" / "__init__.py").is_file():
        print(f"perfbench: no maplp sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import numpy

    import harness
    import maplp
    from workloads import WORKLOADS

    if not Path(maplp.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported maplp from {maplp.__file__}, not {src}", file=sys.stderr)
        return 2

    base_rss_mb = harness.peak_rss_mb()
    workload = WORKLOADS[args.workload]()
    checks = harness.Checks()
    (HERE / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=HERE / "out"))
    try:
        with checks.guard("make_inputs"):
            inputs = workload.make_inputs(args.seed, workdir)
        reps = []
        if not checks.failed:
            reps = harness.measure(workload, inputs, args.seconds, bool(args.trace), checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    harness.check_repeat_exact(reps, checks)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host_info(numpy, maplp),
        "repeats": len(reps),
        "repeat_seconds": [
            {k: round(v, 4) for k, v in r.rec.phase_s.items()} | {"traced": r.rec.traced}
            for r in reps
        ],
        "traced_repeats": sum(r.rec.traced for r in reps),
        "sweep_samples_per_repeat": len(harness.all_sweeps_ms(reps[0])) if reps else 0,
        "rss_mb": {"after_imports": base_rss_mb, "per_repeat": [r.rss_mb for r in reps]},
        "fail_ratio": checks.failed / checks.attempted,
        "failures": checks.messages[:20],
        "counts": reps[0].counts if reps else {},
        "probe_counts": next((r.probe_counts for r in reps if r.rec.traced), {}),
        "digests": reps[0].digests if reps else {},
        "digests_stable": all(r.digests == reps[0].digests for r in reps),
    }
    if args.trace:
        measured = harness.per_layer(reps)
        wanted = spec["per_layer"]
        detail["spans"] = str(write_spans(reps, args.workload, args.seed).relative_to(ROOT))
    else:
        measured = harness.end_to_end(reps, base_rss_mb)
        wanted = spec["end_to_end"]
    unknown = set(measured) - {m["name"] for m in wanted}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    if not reps:
        print("perfbench: no repeat completed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
