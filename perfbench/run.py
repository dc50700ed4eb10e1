"""qcsp benchmark runner: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload mi_complete --seed 1 --seconds 25 --trace 0

One client in one thread sends the next generated instance only after the
previous verdict is back (a closed loop).  Each instance goes through the
public API as ``qcsp solve`` does: ``parse_problem`` -> ``combined_problem``
-> ``solve_auto``.  henson_roundtrip also decides each instance through the
reduction ``build_s_star`` -> ``component_label_solve``.  henson_direct
decides the same instances by calling ``henson_decide`` itself, as
``qcsp henson solve`` does, and replays that witness; it is not a declared
workload because its witnesses fail replay at this commit.  The timed region
runs from instance text to verdict, on the wall clock; generation and
witness replay are outside it.  Every ``CALIBRATE_EVERY_S`` between
instances the run times the fixed loop of ``calibration.py``, and the
end-to-end metrics scale each solve time to a machine on which that loop
takes ``calibration.REFERENCE_MS``; the unscaled figures go on the ``wall``
line.  Runs cover whole passes of the workload's size/verdict schedule
until ``--seconds`` have passed and at least ``MIN_INSTANCES`` were
solved.  A run that reaches ``DEADLINE_S`` first is
cut and counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` solves every
instance once untraced and once traced (alternating which goes first), prints
the per-layer metrics from the spans and the tracing overhead, and writes the
spans to ``perfbench/out/spans-<workload>.tsv.gz``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
instance failed (wrong verdict, witness that does not replay, exception or
time-limit hit) or the run was cut, and 2 when ``src/qcsp`` is missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

# sibling modules: the script's own directory is on sys.path
import generators
from calibration import REFERENCE_MS, calibration_ms
from spans import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_INSTANCES = 100
# Set-up is measured in this many fresh processes before the timed loop and
# as many again after it, so a burst of slow process starts meets only one half.
SETUP_REPEATS = 5
DEADLINE_S = 150.0
CALIBRATE_EVERY_S = 0.25
# Workloads that draw their instances from another one's generator.
FAMILY = {"henson_direct": "henson_roundtrip"}
WORKLOADS = generators.WORKLOADS + tuple(FAMILY)
# Per-instance limits, far above the slowest instance seen on the pure kernels.
TIME_LIMIT_S = {
    "mi_complete": 10.0,
    "chain_complete": 20.0,
    "pa_convex": 10.0,
    "henson_roundtrip": 1.0,
    "henson_direct": 1.0,
}
END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class TimeLimit(Exception):
    """The per-instance time limit was hit."""


def _on_alarm(signum, frame):
    raise TimeLimit


@contextmanager
def time_limit(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def import_qcsp() -> SimpleNamespace:
    importlib.import_module("qcsp")
    importlib.import_module("qcsp.checking")
    return SimpleNamespace(
        formulas=sys.modules["qcsp.formulas"],
        theories=sys.modules["qcsp.theories"],
        combine=sys.modules["qcsp.combine"],
        henson=sys.modules["qcsp.henson"],
        checking=sys.modules["qcsp.checking"],
        kernels=sys.modules["qcsp._kernels"],
    )


def solve(api, case):
    """Instance text to verdict, through module attributes looked up at call
    time so that the tracer's wrappers are seen."""
    problem = api.formulas.parse_problem(case.text)
    if case.workload == "henson_direct":
        decl = next(iter(problem.theories.values()))
        return problem, api.henson.henson_decide(problem.instance, decl.forbidden)
    combined = api.combine.combined_problem(problem)
    result = api.combine.solve_auto(combined)
    if case.workload != "henson_roundtrip":
        return combined, result
    tid, decl = next(iter(problem.theories.items()))
    star = api.henson.build_s_star(problem.instance, problem.symbols[tid, "E"])
    reduced = api.henson.component_label_solve(star, decl.forbidden)
    return combined, result, reduced


def check(api, case, product) -> str | None:
    """None when the verdict is the expected one and a SAT witness replays."""
    result = product[1]
    if case.workload == "henson_roundtrip" and result.sat != product[2].sat:
        return "solve_auto and reduced verdicts disagree"
    if result.sat != case.expect_sat:
        return f"verdict {result.verdict}, expected {'SAT' if case.expect_sat else 'UNSAT'}"
    if not result.sat:
        return None
    if case.workload == "henson_direct":
        problem = product[0]
        decl = next(iter(problem.theories.values()))
        replays = api.checking.check_henson_witness(
            decl.forbidden, problem.instance, result.witness
        )
    else:
        replays = api.checking.check_combined_witness(product[0], result)
    return None if replays else "witness does not replay"


def timed_solve(api, case, limit: float, tracer: Tracer | None = None):
    """(milliseconds, failure reason or None) for one closed-loop request."""
    span = tracer.begin("instance") if tracer else None
    start = time.perf_counter_ns()
    try:
        with time_limit(limit):
            product = solve(api, case)
        failure = None
    except TimeLimit:
        product, failure = None, f"time limit {limit} s"
    except Exception as exc:  # the run goes on; the instance counts as failed
        product, failure = None, f"{type(exc).__name__}: {exc}"
    elapsed_ms = (time.perf_counter_ns() - start) / 1e6
    if tracer:
        tracer.end(span)
    if failure is None:
        try:
            failure = check(api, case, product)
        except Exception as exc:
            failure = f"replay raised {type(exc).__name__}: {exc}"
    return elapsed_ms, failure


# Run in a fresh interpreter: the clock starts after the instance text is
# read, before the first import of qcsp, and stops at the warm-up verdict.
# The calibration loop follows, untimed, to scale that time.
SETUP_CHILD = """
import sys, time
text = sys.stdin.read()
start = time.perf_counter()
from qcsp.combine import combined_problem, solve_auto
from qcsp.formulas import parse_problem
solve_auto(combined_problem(parse_problem(text)))
elapsed = time.perf_counter() - start
from calibration import calibration_ms
print(elapsed, calibration_ms())
"""


def measure_setup(warm: generators.Case) -> list[tuple[float, float]]:
    """(scaled, wall) seconds in each of SETUP_REPEATS fresh processes of:
    the first import of qcsp plus one solve of the warm-up instance.  Each
    process scales its time by the calibration loop it runs right after.
    The warm-up instance is the first one of seed 0 for every --seed, so
    set-up time does not vary with the seed; its generation is not timed."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            input=warm.text,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(HERE)))},
            timeout=60,
            check=True,
        )
        elapsed, calibration = map(float, child.stdout.split())
        times.append((elapsed * REFERENCE_MS / calibration, elapsed))
    return times


def make_case(workload: str, seed: int, index: int) -> generators.Case:
    case = generators.make_case(FAMILY.get(workload, workload), seed, index)
    return dataclasses.replace(case, workload=workload)


def run_loop(api, workload, seed, seconds, started, tracer=None):
    """Closed loop over whole schedule passes.  Returns the run's records
    and whether the deadline cut the run short of a whole pass and
    MIN_INSTANCES.  Records keep only numbers, and cases only when they
    failed, so the run's memory does not grow with the instance count.

    The calibration loop runs before the first instance, after the last,
    and between instances once CALIBRATE_EVERY_S has passed since it last
    ran; ``slice_of[i]`` is the number of calibrations before instance i."""
    schedule_length = len(generators.SCHEDULES[FAMILY.get(workload, workload)])
    limit = TIME_LIMIT_S[workload]
    records = SimpleNamespace(
        plain_ms=array("d"), traced_ms=array("d"), sat=0, sizes=set(), failures=[],
        calibration_ms=array("d", [calibration_ms()]), slice_of=array("I"),
    )
    loop_start = calibrated = time.perf_counter()
    index = 0
    while True:
        case = make_case(workload, seed, index)
        if tracer is None:
            plain_ms, failure = timed_solve(api, case, limit)
        else:
            tracer.instance = index
            passes = {}
            for traced in (False, True) if index % 2 == 0 else (True, False):
                if traced:
                    with tracer.installed(api):
                        passes[traced] = timed_solve(api, case, limit, tracer)
                else:
                    passes[traced] = timed_solve(api, case, limit)
            (plain_ms, plain_failure), (traced_ms, traced_failure) = passes[False], passes[True]
            failure = plain_failure or traced_failure
            records.traced_ms.append(traced_ms)
        records.plain_ms.append(plain_ms)
        records.slice_of.append(len(records.calibration_ms))
        records.sat += case.expect_sat
        records.sizes.add(case.size)
        if failure:
            records.failures.append((case, failure))
        index += 1
        now = time.perf_counter()
        whole = index % schedule_length == 0 and index >= MIN_INSTANCES
        late = now - started > DEADLINE_S
        stop = late or (whole and now - loop_start >= seconds)
        if stop or now - calibrated >= CALIBRATE_EVERY_S:
            records.calibration_ms.append(calibration_ms())
            calibrated = time.perf_counter()
        if stop:
            return records, not whole


def scaled_ms(records) -> array:
    """Each solve time scaled by REFERENCE_MS over the mean of the two
    calibrations around it."""
    cal = records.calibration_ms
    return array("d", (
        ms * 2 * REFERENCE_MS / (cal[k - 1] + cal[k])
        for ms, k in zip(records.plain_ms, records.slice_of)
    ))


def end_to_end(times_ms, succeeded) -> dict:
    return {
        "instances_per_s": succeeded / (sum(times_ms) / 1e3),
        "solve_ms_p50": statistics.median(times_ms),
        "solve_ms_p90": statistics.quantiles(times_ms, n=10, method="inclusive")[8],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "qcsp" / "__init__.py").is_file():
        print(f"qcsp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    warm = make_case(args.workload, 0, 0)
    setup = measure_setup(warm)
    api = import_qcsp()
    solve(api, warm)
    tracer = Tracer() if args.trace else None
    records, cut = run_loop(api, args.workload, args.seed, args.seconds, started, tracer)
    setup += measure_setup(warm)

    plain = records.plain_ms
    attempted = len(plain)
    failures = records.failures
    if cut:
        print(f"FAILED run: cut at the {DEADLINE_S} s deadline after {attempted} "
              "instances, short of a whole pass and the minimum count")
    sat = records.sat
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": api.kernels.backend_name,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "clients": 1,
        "instances": attempted,
        "sat": sat,
        "unsat": attempted - sat,
        "sizes": sorted(records.sizes),
        "time_limit_s": TIME_LIMIT_S[args.workload],
        "cut_by_deadline": cut,
        "calibrations": len(records.calibration_ms),
        "calibration_ms": {
            "min": min(records.calibration_ms),
            "median": statistics.median(records.calibration_ms),
            "max": max(records.calibration_ms),
        },
    }
    print("context " + json.dumps(context))
    for case, reason in failures[:20]:
        print(f"FAILED instance {case.index} (size {case.size}, {case.digest[:12]}): {reason}")
    print(f"failed_share {len(failures) / attempted!r} share ({len(failures)} of {attempted})")

    if tracer is None:
        scaled = scaled_ms(records)
        metrics = {
            **end_to_end(scaled, attempted - len(failures)),
            "setup_s": statistics.median(s for s, _ in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        beyond = sum(ms > metrics["solve_ms_p90"] for ms in scaled)
        print(f"samples {attempted} ({beyond} beyond p90)")
        wall = end_to_end(plain, attempted - len(failures))
        wall["setup_s"] = statistics.median(w for _, w in setup)
        print("wall " + json.dumps(wall))
    else:
        metrics, self_share = tracer.layer_metrics()
        traced_p50 = statistics.median(records.traced_ms)
        plain_p50 = statistics.median(plain)
        metrics["trace.overhead_share"] = (traced_p50 - plain_p50) / plain_p50
        units = LAYER_METRICS
        print("self time share of traced solve time, by span:")
        for name, share in sorted(self_share.items(), key=lambda kv: -kv[1]):
            print(f"  {name:28s} {share:.3f}")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.tsv.gz")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")

    result = {
        "correct": not failures and not cut,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures or cut else 0


if __name__ == "__main__":
    sys.exit(main())
