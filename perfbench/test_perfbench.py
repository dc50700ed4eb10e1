"""Self-checks of the benchmark's instance generators and tracer.

Planted models must satisfy their SAT instances under the generators' own
evaluator, the brute-force oracle must confirm every expected verdict on
instances small enough for it, and a seed must reproduce its instances.
"""

import json
import signal
from array import array
from pathlib import Path
from types import SimpleNamespace

import pytest

import generators
import run
from spans import LAYER_METRICS, Tracer

from qcsp.combine import combined_problem
from qcsp.formulas import parse_problem
from qcsp.oracle import superpose_bruteforce

ORACLE_MAX_VARS = 8


def _first_pass(workload, seed):
    return [
        generators.make_case(workload, seed, index)
        for index in range(len(generators.SCHEDULES[workload]))
    ]


def _variables(case):
    return len(parse_problem(case.text).instance.variables)


def _verdicts(api, case):
    product = run.solve(api, case)
    # henson_roundtrip: solve_auto and then through the reduction
    return tuple(result.sat for result in product[1:])


@pytest.mark.parametrize("workload", generators.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_model_satisfies_exactly_the_sat_instances(workload, seed):
    for case in _first_pass(workload, seed):
        # an UNSAT gadget always contradicts the planted model of the rest
        assert generators.evaluate(case.text, case.planted) == case.expect_sat, case.text


@pytest.mark.parametrize("workload", generators.WORKLOADS)
def test_oracle_confirms_expected_verdicts(workload):
    small = [
        case for case in _first_pass(workload, 0) if _variables(case) <= ORACLE_MAX_VARS
    ]
    # the same families at sizes the oracle can afford; pa_convex's schedule
    # starts above them
    small += [
        generators.build_case(workload, f"small:{seed}", size, sat)
        for seed in range(3)
        for size in (5, 6)
        for sat in (True, False)
    ]
    for case in small:
        problem = combined_problem(parse_problem(case.text))
        result = superpose_bruteforce(problem, max_vars=ORACLE_MAX_VARS)
        assert result.sat == case.expect_sat, case.text


@pytest.mark.parametrize("workload", generators.WORKLOADS)
def test_same_seed_same_instances_and_verdicts(workload):
    api = run.import_qcsp()

    def vectors(seed):
        cases = _first_pass(workload, seed)
        small = [case for case in cases if _variables(case) <= 6]
        expected = [case.expect_sat for case in small]
        verdicts = [_verdicts(api, case) for case in small]
        assert all(set(v) == {e} for v, e in zip(verdicts, expected))
        return [case.digest for case in cases], expected, verdicts

    first = vectors(7)
    assert vectors(7) == first
    assert vectors(8)[0] != first[0]


def test_tracer_records_layers_and_restores_bindings():
    api = run.import_qcsp()
    original = api.theories.TheorySolver.entails_eq, api.formulas.make_instance
    case = generators.make_case("mi_complete", 0, 1)
    tracer = Tracer()
    with tracer.installed(api):
        tracer.instance = 0
        span = tracer.begin("instance")
        product = run.solve(api, case)
        tracer.end(span)
    assert (api.theories.TheorySolver.entails_eq, api.formulas.make_instance) == original
    assert run.check(api, case, product) is None
    assert all(end >= start for start, end in zip(tracer.starts, tracer.ends))
    metrics, self_share = tracer.layer_metrics()
    assert metrics["kernels.temporal_search_calls"] >= 1
    assert metrics["theories.entails_calls"] >= 1
    assert metrics["theories.entails_ms"] <= metrics["trace.solve_ms"]
    assert sum(self_share.values()) == pytest.approx(1.0)


def test_benchmark_json_declares_what_run_py_reports():
    declared = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == LAYER_METRICS
    assert {w["name"] for w in declared["workloads"]} <= set(generators.WORKLOADS)


def test_henson_direct_decides_the_henson_roundtrip_instances():
    api = run.import_qcsp()
    for index in range(len(generators.SCHEDULES["henson_roundtrip"])):
        roundtrip = run.make_case("henson_roundtrip", 3, index)
        direct = run.make_case("henson_direct", 3, index)
        assert (direct.workload, direct.text) == ("henson_direct", roundtrip.text)
        assert run.check(api, roundtrip, run.solve(api, roundtrip)) is None
        assert run.solve(api, direct)[1].sat == direct.expect_sat


def test_deadline_cuts_a_run_short_of_a_whole_pass(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.0)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        records, cut = run.run_loop(
            run.import_qcsp(), "henson_roundtrip", 0, 25.0, run.time.perf_counter()
        )
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert cut and len(records.plain_ms) == 1
    # a calibration before and after the one instance
    assert list(records.slice_of) == [1] and len(records.calibration_ms) == 2


def test_scaled_times_use_the_calibrations_around_each_instance():
    records = SimpleNamespace(
        plain_ms=array("d", [10.0, 10.0, 30.0]),
        slice_of=array("I", [1, 1, 2]),
        calibration_ms=array("d", [run.REFERENCE_MS, run.REFERENCE_MS, 2 * run.REFERENCE_MS]),
    )
    assert list(run.scaled_ms(records)) == pytest.approx([10.0, 10.0, 20.0])
