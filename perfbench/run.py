"""The asg1kit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  For S seconds the benchmark starts one
fresh process after another (`sample.py`); each sets the workload up, runs
one measured pass over its cases and checks every case.  A fresh process per
sample gives cold workloads empty caches and makes the peak resident memory
that of one workload process.  The BLAS thread count of every sample is
pinned to BLAS_THREADS.

With ``--trace 0`` it prints the end-to-end metrics: medians over the
samples of the pass wall time (study_s), the time summed over the
projection, norms and conformity calls, the set-up time and the peak
memory.  With ``--trace 1`` it alternates untraced and traced samples and
prints the per-layer metrics of the traced ones (`tracing.py`), with
trace.overhead_s the difference of the traced and untraced medians of
study_s.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

Workloads and checks are in `workloads.py`.  `fingerprint.json` holds the
L2/H1/H2 errors of every case at the default seed; a change meant to move
them updates it from the ``errors`` of a run record.  Run records, with
every sample's per-case errors, conformity and cache statistics, and the
spans of traced samples go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "asg1kit")
OUT = os.path.join(HERE, "out")

BLAS_THREADS = 1
# A run ends within this many seconds whatever --seconds says.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "study_s": "s",
    "project_s": "s",
    "norms_s": "s",
    "conformity_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "geometry.derivative_s": "s",
    "geometry.derivative_calls": "count",
    "geometry.derivative_points": "count",
    "fields.pullback_eval_s": "s",
    "fields.pullback_eval_calls": "count",
    "fields.pullback_points": "count",
    "splines.multiply_by_linear_s": "s",
    "splines.multiply_by_linear_calls": "count",
    "splines.eval_operator_s": "s",
    "splines.eval_operator_calls": "count",
    "ritz1d.functionals_s": "s",
    "ritz1d.cache_hits": "count",
    "ritz1d.cache_misses": "count",
    "ritz1d.cache_hit_ratio": "1",
    "ritz1d.functional_bytes": "B",
    "tensor.data_matrix_s": "s",
    "tensor.contract_s": "s",
    "tensor.contract_flops": "flop",
    "tensor.eval_grid_s": "s",
    "asg1.edge_P0_s": "s",
    "asg1.edge_P1_s": "s",
    "asg1.extend_s": "s",
    "asg1.patch_project_self_s": "s",
    "asg1.check_conformity_self_s": "s",
    "norms.self_s": "s",
    "norms.quad_points": "count",
    "gluing.recover_all_s": "s",
    "gluing.recover_all_calls": "count",
    "harness.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def run_sample(args, traced: bool, index: int, deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "sample.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}-{index}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"sample {index} did not finish in time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"sample {index} exited with {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["traced"] = traced
    return sample


def collect(args) -> list[dict]:
    """Samples until the next one would end after --seconds; a traced run
    alternates untraced and traced samples and takes at least one of each."""
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    samples, durations = [], []
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        t0 = time.monotonic()
        samples.append(run_sample(args, traced, len(samples), hard_deadline))
        durations.append(time.monotonic() - t0)
        minimum = 2 if args.trace else 1
        expected_end = time.monotonic() + statistics.mean(durations)
        if len(samples) >= minimum and (expected_end > start + args.seconds
                                        or expected_end > hard_deadline):
            return samples


def summarize(args, samples: list[dict]) -> dict:
    untraced = [s for s in samples if not s["traced"]]
    if not args.trace:
        metrics = {name: statistics.median(s[name] for s in untraced)
                   for name in END_TO_END}
        units = END_TO_END
    else:
        traced = [s for s in samples if s["traced"]]
        metrics = {name: statistics.median(s["layers"][name] for s in traced)
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            statistics.median(s["study_s"] for s in traced)
            - statistics.median(s["study_s"] for s in untraced))
        units = PER_LAYER
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark asg1kit on one workload.")
    parser.add_argument("--workload", required=True,
                        help="refine_bilinear, curved_reuse or highdeg_fine")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed, >= 0 (default 0)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long to keep taking samples")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no asg1kit sources at {PACKAGE}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        samples = collect(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = summarize(args, samples)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    env = {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        **samples[0]["versions"],
        "commit": commit(),
        "source_sha256": source_digest(),
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "samples": samples}
    path = os.path.join(
        OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  samples {len(samples)}  "
          + "  ".join(f"{k} {v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':34s} {failed / attempted:.6g} 1  "
          f"({failed} of {attempted} cases failed)")
    for s in samples:
        for case in s["cases"]:
            for failure in case["failures"]:
                print(f"FAILED {case['case']}: {failure}")
    print(f"run record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
