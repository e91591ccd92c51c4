"""The benchmark's traced gate, run on its small workloads.

`bench/run.py` fails a traced run in which a workload's item fails or one
of its expected layers records no calls.  A change to the package can trip
that gate (a renamed method the tracer patches, a layer whose calls move to
another path), and the benchmark only runs after the tests do, so one
traced pass of each small workload runs here.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import selftest
        import tracer
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return tracer, workloads, selftest


@pytest.mark.parametrize("name", ["catalogue", "highdeg", "fuzz"])
def test_traced_small_workload_reaches_its_layers(bench_modules, name):
    tracer, workloads, _ = bench_modules
    workload = workloads.build(name, 0, small=True)
    # As in `bench/run.py`, only the pass is traced: the output checks'
    # own arithmetic must not count towards the layers the pass reaches.
    with tracer.Tracer() as trace:
        outputs = workloads.run_pass(workload)
    result = workloads.check_pass(workload, outputs)
    assert result.failed_items == [] and result.final_ok
    calls = trace.layer_calls()
    assert [layer for layer in tracer.EXPECTED_LAYERS[name] if not calls[layer]] == []


def test_bench_selftest_passes(bench_modules, capsys):
    assert bench_modules[2].main() == 0
