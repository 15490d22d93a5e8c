"""One sample of a benchmark workload, in a fresh process.

Sets the workload up (imports, seed-built geometries, the warm-up of warm
workloads), runs one measured pass over its cases, checks every case and
prints one JSON object as its last line of standard output.  `run.py`
starts it with the BLAS thread count pinned in the environment:

    python3 perfbench/sample.py --workload NAME --seed N --trace 0|1 [--spans PATH]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer, cache_stats, ritz1d_caches  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    build_geometries,
    check_case,
    conformity_summary,
    run_case,
)

def load_fingerprint() -> dict:
    with open(os.path.join(HERE, "fingerprint.json"), encoding="utf-8") as fh:
        return json.load(fh)["errors"]


def measured_pass(workload, geometries, seed, fingerprint, warm_errors, caches):
    """Run and check every case once; returns the per-case records and the
    summed call times."""
    records = []
    totals = {"project_s": 0.0, "norms_s": 0.0, "conformity_s": 0.0}
    for case in workload.cases:
        before = cache_stats(caches)
        record = {"case": case.label}
        try:
            result = run_case(case, geometries)
            failures = check_case(case, result, fingerprint.get(case.label),
                                  exact=case.builtin or seed == DEFAULT_SEED,
                                  again=warm_errors.get(case.label))
            for key in totals:
                totals[key] += getattr(result, key)
            record["errors"] = result.errors
            record["conformity"] = conformity_summary(result.report)
        except Exception as exc:  # a case that raises counts as failed
            failures = [f"{type(exc).__name__}: {exc}"]
        after = cache_stats(caches)
        record["ritz1d_cache"] = {"hits": after[0] - before[0],
                                  "misses": after[1] - before[1]}
        record["failures"] = failures
        records.append(record)
    return records, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="where a traced sample writes its spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    fingerprint = load_fingerprint()
    geometries = build_geometries(workload, args.seed)
    warm_errors = {case.label: run_case(case, geometries).errors
                   for case in workload.warmup}
    setup_s = time.perf_counter() - T0

    caches = ritz1d_caches()
    tracer = Tracer() if args.trace else None
    run = measured_pass
    if tracer is not None:
        tracer.install()
        run = tracer.wrap("study", measured_pass)
    before = cache_stats(caches)
    start = time.perf_counter()
    records, totals = run(workload, geometries, args.seed, fingerprint,
                          warm_errors, caches)
    study_s = time.perf_counter() - start
    after = cache_stats(caches)
    if tracer is not None:
        tracer.uninstall()

    out = {
        "setup_s": setup_s,
        "study_s": study_s,
        **totals,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failures"]),
        "cases": records,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(
            (after[0] - before[0], after[1] - before[1]))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
