"""Theory-combination solver for qualitative constraint satisfaction problems.

Pluggable decision procedures for equality, point-algebra, temporal
(order-type) and forbidden-tournament digraph theories, a Nelson-Oppen style
combination engine with a convex propagation mode and a complete arrangement
search, a brute-force superposition oracle, and analysis tools for convexity
and cross prevention.
"""

from .formulas import (
    Atom,
    Instance,
    ParseError,
    PPFormula,
    Problem,
    RelationSymbol,
    collapse_equalities,
    eq,
    make_instance,
    neq,
    parse_problem,
    rel,
    render_problem,
    split_by_signature,
)
from .theories import (
    ContractViolation,
    Digraph,
    HensonWitness,
    SolveResult,
    TemporalRelation,
    TheorySolver,
    WitnessCheckFailed,
    builtin_mi,
    eq_decide,
    henson_decide,
    pa_decide,
    relation_from_predicate,
    temporal_decide,
)
from .combine import (
    CombinedProblem,
    CombinedWitness,
    ConvexityFlagFalse,
    ConvexityNotDeclared,
    combined_problem,
    propagate_step,
    solve_auto,
    solve_complete,
    solve_convex,
)
from .oracle import (
    BoundExceeded,
    PartitionIterator,
    brute_decide_theory,
    enumerate_partitions,
    enumerate_weak_orders,
    superpose_bruteforce,
)
from .analysis import (
    ConvexityWitness,
    CrossPreventionReport,
    check_cross_prevention,
    probe_convexity,
)
from .henson import build_s_star, component_label_solve

__version__ = "0.1.0"
