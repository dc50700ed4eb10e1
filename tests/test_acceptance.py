"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance here is
exact (verdict equality on 100% of the enumerated instances).
"""

import hashlib
import math
import random
import time
from itertools import chain, combinations

from qcsp.analysis import probe_convexity, check_cross_prevention
from qcsp.checking import check_combined_witness
from qcsp.combine import (
    CombinedProblem,
    combined_problem,
    solve_auto,
    solve_complete,
    solve_convex,
)
from qcsp.formulas import (
    PPFormula,
    RelationSymbol,
    eq,
    make_instance,
    neq,
    parse_problem,
    rel,
    split_by_signature,
)
from qcsp.henson import build_s_star, component_label_solve
from qcsp.oracle import (
    brute_decide_theory,
    enumerate_partitions,
    enumerate_weak_orders,
    superpose_bruteforce,
)
from qcsp.theories import (
    Digraph,
    TheorySolver,
    builtin_mi,
    henson_decide,
    pa_decide,
    relation_for_name,
    temporal_decide,
    witness_values,
)

LT1 = RelationSymbol("t1", "lt", 2)
LEQ1 = RelationSymbol("t1", "leq", 2)
LT2 = RelationSymbol("t2", "lt", 2)
LEQ2 = RelationSymbol("t2", "leq", 2)
MI = RelationSymbol("t1", "mi", 3)
E = RelationSymbol("t1", "E", 2)
C3 = Digraph(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")}))

PA1 = TheorySolver("t1", "point_algebra", True)
PA2 = TheorySolver("t2", "point_algebra", True)
EQ2 = TheorySolver("t2", "equality", True)
MI_RELS = {"leq": relation_for_name("leq"), "mi": builtin_mi()}
TEMPORAL1 = TheorySolver("t1", "temporal", False, relations=MI_RELS)
B1_SOLVERS = {
    "t1": TheorySolver("t1", "henson_b1", False, forbidden=(C3,)),
    "t2": TheorySolver("t2", "equality", True),
}

_SWEEP_CACHE: dict = {}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _pa_eq_universe(names):
    universe = []
    for symbol in (LT1, LEQ1):
        for a in names:
            for b in names:
                if a != b:
                    universe.append(rel(symbol, a, b))
    for a, b in combinations(names, 2):
        universe.append(eq(a, b))
    for a, b in combinations(names, 2):
        universe.append(neq(a, b))
    return universe


def _pa_eq_problem(atoms) -> CombinedProblem:
    inst = make_instance(atoms)
    parts, shared = split_by_signature(inst, ["t1", "t2"])
    return CombinedProblem(
        inst, parts, shared, {"t1": PA1, "t2": EQ2}, {"t1": True, "t2": True}
    )


def _exhaustive_problems():
    """Every combined instance on <= 4 variables and <= 4 atoms over
    point_algebra{lt, leq} + equality with all Eq/Neq pairs."""
    universe = _pa_eq_universe(["w", "x", "y", "z"])
    for k in range(0, 5):
        for combo in combinations(universe, k):
            yield _pa_eq_problem(combo)


def _exhaustive_sweep():
    """Decide the exhaustive corpus in both modes and by the oracle; caches
    the verdicts for criteria 1 and 2."""
    if _SWEEP_CACHE:
        return _SWEEP_CACHE
    count = 0
    oracle_diffs = 0
    convex_diffs = 0
    start = time.time()
    for problem in _exhaustive_problems():
        complete = solve_complete(problem).sat
        if superpose_bruteforce(problem).sat != complete:
            oracle_diffs += 1
        if solve_convex(problem).sat != complete:
            convex_diffs += 1
        count += 1
    _SWEEP_CACHE.update(
        count=count,
        oracle_diffs=oracle_diffs,
        convex_diffs=convex_diffs,
        elapsed=time.time() - start,
    )
    return _SWEEP_CACHE


def test_criterion_1_combined_oracle_equivalence():
    sweep = _exhaustive_sweep()
    ok = sweep["oracle_diffs"] == 0 and sweep["elapsed"] < 300
    _report(
        "criterion 1 (combined oracle equivalence)",
        ok,
        f"{sweep['count']} instances, {sweep['oracle_diffs']} disagreements, "
        f"{sweep['elapsed']:.1f}s",
    )


def _random_convex_problem(rng) -> CombinedProblem:
    names = [f"v{i}" for i in range(rng.randint(2, 6))]
    pa_pair = rng.random() < 0.5
    atoms = []
    for _ in range(rng.randint(1, 7)):
        x, y = rng.sample(names, 2)
        if pa_pair:
            kind = rng.choice(["t1lt", "t1leq", "t2lt", "t2leq", "eq", "neq"])
        else:
            kind = rng.choice(["t1lt", "t1leq", "eq", "neq"])
        symbol = {"t1lt": LT1, "t1leq": LEQ1, "t2lt": LT2, "t2leq": LEQ2}.get(kind)
        if symbol is not None:
            atoms.append(rel(symbol, x, y))
        elif kind == "eq":
            atoms.append(eq(x, y))
        else:
            atoms.append(neq(x, y))
    inst = make_instance(atoms)
    parts, shared = split_by_signature(inst, ["t1", "t2"])
    solvers = {"t1": PA1, "t2": PA2 if pa_pair else EQ2}
    return CombinedProblem(inst, parts, shared, solvers, {"t1": True, "t2": True})


def _random_convex_corpus():
    rng = random.Random(20240817)
    for _ in range(10000):
        yield _random_convex_problem(rng)


def test_criterion_2_convex_mode_equivalence():
    sweep = _exhaustive_sweep()
    random_diffs = 0
    for problem in _random_convex_corpus():
        # a defect both modes share must still count, so each is also
        # held to the oracle
        complete = solve_complete(problem).sat
        oracle = superpose_bruteforce(problem).sat
        if solve_convex(problem).sat != complete or oracle != complete:
            random_diffs += 1
    ok = sweep["convex_diffs"] == 0 and random_diffs == 0
    _report(
        "criterion 2 (convex-mode equivalence)",
        ok,
        f"{sweep['count']} exhaustive + 10000 random instances (the random "
        f"ones also against the oracle), "
        f"{sweep['convex_diffs'] + random_diffs} disagreements",
    )


def _random_temporal_instance(rng):
    names = [chr(97 + i) for i in range(rng.randint(1, 6))]
    atoms = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.choice(["mi", "lt", "leq", "neq"])
        if kind == "mi":
            atoms.append(rel(MI, *[rng.choice(names) for _ in range(3)]))
        elif kind in ("lt", "leq"):
            symbol = LT1 if kind == "lt" else LEQ1
            atoms.append(rel(symbol, *[rng.choice(names) for _ in range(2)]))
        else:
            atoms.append(neq(rng.choice(names), rng.choice(names)))
    return make_instance(atoms)


def test_criterion_3_per_theory_oracle_equivalence():
    rng = random.Random(424242)
    temporal_diffs = 0
    for _ in range(10000):
        inst = _random_temporal_instance(rng)
        solver_sat = temporal_decide(inst, MI_RELS).sat
        oracle_sat = brute_decide_theory("temporal", inst, relations=MI_RELS).sat
        if solver_sat != oracle_sat:
            temporal_diffs += 1

    pa_diffs = 0
    names = ["w", "x", "y", "z"]
    universe = _pa_eq_universe(names)
    count = 0
    for k in range(0, 5):
        for combo in combinations(universe, k):
            inst = make_instance(combo)
            if pa_decide(inst).sat != temporal_decide(inst, {}).sat:
                pa_diffs += 1
            count += 1
    ok = temporal_diffs == 0 and pa_diffs == 0
    _report(
        "criterion 3 (per-theory oracle equivalence)",
        ok,
        f"10000 random temporal ({temporal_diffs} diffs), "
        f"{count} exhaustive binary instances ({pa_diffs} diffs)",
    )


def test_criterion_4_nonconvexity_of_mi_expansion():
    witness = probe_convexity(TEMPORAL1, max_vars=4, max_atoms=4)
    found = witness is not None

    atoms = [
        rel(MI, "a", "b", "c"),
        rel(MI, "c", "d", "a"),
        rel(LEQ1, "a", "b"),
        rel(LEQ1, "c", "d"),
    ]
    replays = []
    for extra in ({neq("a", "b")}, {neq("c", "d")}, {neq("a", "b"), neq("c", "d")}):
        replays.append(
            brute_decide_theory(
                "temporal", make_instance(set(atoms) | extra), relations=MI_RELS
            ).sat
        )
    specific = replays == [True, True, False]
    ok = found and specific
    _report(
        "criterion 4 (non-convexity of the mi expansion)",
        ok,
        f"probe witness found={found}, specific witness replays "
        f"{['SAT' if s else 'UNSAT' for s in replays]}",
    )


def test_criterion_5_convexity_consistency():
    start = time.time()
    eq_witness = probe_convexity(
        TheorySolver("t1", "equality", True), max_vars=4, max_atoms=4
    )
    pa_witness = probe_convexity(PA1, max_vars=4, max_atoms=4)
    elapsed = time.time() - start
    ok = eq_witness is None and pa_witness is None and elapsed < 600
    _report(
        "criterion 5 (convexity consistency)",
        ok,
        f"equality witness={eq_witness}, point-algebra witness={pa_witness}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_cross_prevention():
    good = PPFormula(
        ("x", "y", "u", "v"),
        frozenset(),
        frozenset({rel(LT1, "x", "v"), rel(LT1, "u", "y")}),
    )
    report = check_cross_prevention(PA1, good)
    mutant1 = check_cross_prevention(
        PA1, PPFormula(("x", "y", "u", "v"), frozenset(), frozenset({rel(LT1, "x", "y")}))
    )
    mutant2 = check_cross_prevention(
        PA1, PPFormula(("x", "y", "u", "v"), frozenset(), frozenset({neq("x", "y")}))
    )
    ok = report.passes() and not mutant1.cond1 and not mutant2.cond1
    _report(
        "criterion 6 (cross prevention)",
        ok,
        f"formula passes={report.passes()}, mutants fail condition 1: "
        f"{not mutant1.cond1}, {not mutant2.cond1}",
    )


def _b1_combined(atoms) -> CombinedProblem:
    inst = make_instance(atoms)
    parts, shared = split_by_signature(inst, ["t1", "t2"])
    return CombinedProblem(inst, parts, shared, B1_SOLVERS, {"t1": False, "t2": True})


def test_criterion_7_reduction_round_trip():
    start = time.time()
    round_trip_diffs = 0
    count_rt = 0
    for n in range(1, 6):
        names = [f"x{i+1}" for i in range(n)]
        pairs = [(a, b) for a in names for b in names if a != b]
        for mask in range(2 ** len(pairs)):
            atoms = [rel(E, *pairs[i]) for i in range(len(pairs)) if mask >> i & 1]
            inst = make_instance(atoms)
            direct = henson_decide(inst, (C3,)).sat
            reduced = component_label_solve(build_s_star(inst), (C3,)).sat
            if direct != reduced:
                round_trip_diffs += 1
            count_rt += 1

    oracle_diffs = 0
    count_oracle = 0
    # exhaustive through four variables
    for n in range(1, 5):
        names = [f"x{i+1}" for i in range(n)]
        pairs = [(a, b) for a in names for b in names if a != b]
        neq_pairs = list(combinations(names, 2))
        for mask in range(2 ** len(pairs)):
            base = [rel(E, *pairs[i]) for i in range(len(pairs)) if mask >> i & 1]
            for k in range(0, 4):
                for chosen in combinations(neq_pairs, k):
                    problem = _b1_combined(base + [neq(*p) for p in chosen])
                    left = component_label_solve(problem.instance, (C3,)).sat
                    right = superpose_bruteforce(problem).sat
                    if left != right:
                        oracle_diffs += 1
                    count_oracle += 1
    # seeded sample at five variables
    rng = random.Random(31337)
    names = [f"x{i+1}" for i in range(5)]
    pairs = [(a, b) for a in names for b in names if a != b]
    neq_pairs = list(combinations(names, 2))
    for _ in range(3000):
        mask = rng.randrange(2 ** len(pairs))
        atoms = [rel(E, *pairs[i]) for i in range(len(pairs)) if mask >> i & 1]
        atoms += [neq(*p) for p in rng.sample(neq_pairs, rng.randint(0, 3))]
        problem = _b1_combined(atoms)
        left = component_label_solve(problem.instance, (C3,)).sat
        right = superpose_bruteforce(problem).sat
        if left != right:
            oracle_diffs += 1
        count_oracle += 1
    elapsed = time.time() - start
    ok = round_trip_diffs == 0 and oracle_diffs == 0 and elapsed < 600
    _report(
        "criterion 7 (reduction round trip)",
        ok,
        f"{count_rt} round-trip instances ({round_trip_diffs} diffs), "
        f"{count_oracle} oracle comparisons ({oracle_diffs} diffs), "
        f"{elapsed:.1f}s",
    )


def _determinism_corpus():
    import pathlib

    corpus = []
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    for path in sorted(fixtures.glob("*.qcsp")):
        if path.name == "bad_arity.qcsp":
            continue
        problem = parse_problem(path.read_text())
        if problem.theories:
            corpus.append(combined_problem(problem))
    rng = random.Random(555)
    for _ in range(40):
        corpus.append(_random_convex_problem(rng))
    for _ in range(40):
        names = [f"v{i}" for i in range(rng.randint(2, 5))]
        atoms = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(["mi", "leq", "t2lt", "neq"])
            if kind == "mi" and len(names) >= 3:
                atoms.append(rel(MI, *rng.sample(names, 3)))
            elif kind == "leq":
                atoms.append(rel(LEQ1, *rng.sample(names, 2)))
            elif kind == "t2lt":
                atoms.append(rel(LT2, *rng.sample(names, 2)))
            else:
                atoms.append(neq(*rng.sample(names, 2)))
        inst = make_instance(atoms)
        parts, shared = split_by_signature(inst, ["t1", "t2"])
        corpus.append(
            CombinedProblem(
                inst, parts, shared,
                {"t1": TEMPORAL1, "t2": PA2},
                {"t1": False, "t2": True},
            )
        )
    return corpus


def test_criterion_8_determinism_and_concurrency():
    corpus = _determinism_corpus()
    baseline = None
    witness_failures = 0
    for run in range(10):
        verdicts = []
        for problem in corpus:
            result = solve_auto(problem)
            verdicts.append(result.sat)
            if result.sat and not check_combined_witness(problem, result):
                witness_failures += 1
        if baseline is None:
            baseline = verdicts
        elif verdicts != baseline:
            _report("criterion 8 (determinism)", False, f"run {run} diverged")
    ok = witness_failures == 0
    _report(
        "criterion 8 (determinism)",
        ok,
        f"10 runs x {len(corpus)} problems identical, "
        f"{witness_failures} witness failures",
    )


def _witness_digest(solve, corpus) -> str:
    """sha256 over one mode's verdicts and witnesses on a corpus; any change
    to the search order or the witness construction moves it."""
    records = []
    for problem in corpus:
        result = solve(problem)
        if not result.sat:
            records.append(None)
            continue
        witness = result.witness
        records.append((
            witness.arrangement,
            sorted(
                (tid, sorted(witness_values(part).items()))
                for tid, part in witness.part_witnesses.items()
            ),
        ))
    return hashlib.sha256(repr(records).encode()).hexdigest()


# solve_complete on the criterion 8 corpus
COMPLETE_WITNESS_DIGEST = (
    "1b6efdf566c5e1c716a8f0a0c71b8ddd22525ac0530cbada25f4a82cbf2fc4bf"
)
# solve_convex on the criterion 2 corpus: the exhaustive sweep, then the
# random instances
CONVEX_WITNESS_DIGEST = (
    "aaacd1747b3b579fb377f47acdc95ceb3ed177e5806f456056e8870bab2e61b4"
)


def test_complete_mode_witnesses_pinned():
    digest = _witness_digest(solve_complete, _determinism_corpus())
    assert digest == COMPLETE_WITNESS_DIGEST


def test_convex_mode_witnesses_pinned():
    corpus = chain(_exhaustive_problems(), _random_convex_corpus())
    assert _witness_digest(solve_convex, corpus) == CONVEX_WITNESS_DIGEST


def test_criterion_9_counting_self_checks():
    ordered_bell = [1]
    for m in range(1, 6):
        ordered_bell.append(
            sum(math.comb(m, k) * ordered_bell[m - k] for k in range(1, m + 1))
        )
    bell = [1]
    for m in range(5):
        bell.append(sum(math.comb(m, k) * bell[k] for k in range(m + 1)))

    weak_counts = [sum(1 for _ in enumerate_weak_orders(n)) for n in range(6)]
    part_counts = [sum(1 for _ in enumerate_partitions(n)) for n in range(6)]
    ok = (
        weak_counts[1:] == ordered_bell[1:] == [1, 3, 13, 75, 541]
        and part_counts[1:] == bell[1:] == [1, 2, 5, 15, 52]
    )
    _report(
        "criterion 9 (counting self-checks)",
        ok,
        f"weak orders {weak_counts[1:]}, partitions {part_counts[1:]}",
    )
