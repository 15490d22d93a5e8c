"""The benchmark's cheaper cases reproduce its accuracy fingerprint.

`perfbench/fingerprint.json` stores the L2/H1/H2 errors of every benchmark
case at the default seed.  The cases below take well under a second each;
they run through the benchmark's own `run_case` and `check_case` with the
exact comparison, so an error that moves beyond round-off fails here and not
only in a benchmark run.
"""

import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    Case,
    build_geometries,
    check_case,
    run_case,
)

CASES = [Case("three_patch_L", "sinsin", 4, 2, n) for n in (16, 32)]
CASES += list(WORKLOADS["curved_reuse"].cases)


@pytest.fixture(scope="module")
def fingerprint():
    with open(os.path.join(PERFBENCH, "fingerprint.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["seed"] == DEFAULT_SEED
    return data["errors"]


@pytest.fixture(scope="module")
def geometries():
    return build_geometries(WORKLOADS["curved_reuse"], DEFAULT_SEED)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.label)
def test_case_reproduces_fingerprint(case, fingerprint, geometries):
    result = run_case(case, geometries)
    assert check_case(case, result, fingerprint.get(case.label), exact=True) == []
