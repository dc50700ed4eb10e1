"""Parser, serializer, and structural operations on instances."""

import random

import pytest

from qcsp import formulas, theories
from qcsp.formulas import (
    Atom,
    ParseError,
    PPFormula,
    REL,
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


def test_parse_minimal():
    problem = parse_problem("theory t1 equality\nneq x y\n")
    assert list(problem.theories) == ["t1"]
    assert problem.instance.atoms == frozenset({neq("x", "y")})


def test_parse_arity_mismatch():
    with pytest.raises(ParseError) as err:
        parse_problem("theory t1 point_algebra\natom t1 lt x\n")
    assert "line 2" in str(err.value)


def test_parse_undeclared_relation():
    with pytest.raises(ParseError):
        parse_problem("theory t1 equality\natom t1 lt x y\n")


def test_parse_undeclared_theory():
    with pytest.raises(ParseError):
        parse_problem("atom t1 lt x y\n")


def test_parse_duplicate_theory():
    with pytest.raises(ParseError):
        parse_problem("theory t1 equality\ntheory t1 equality\n")


def test_parse_duplicate_relation():
    text = (
        "theory t1 temporal\n"
        "relation t1 r/2 ordertypes 0/1\n"
        "relation t1 r/2 ordertypes 0/0\n"
    )
    with pytest.raises(ParseError):
        parse_problem(text)


def test_parse_bad_ordertype_ranks():
    with pytest.raises(ParseError):
        parse_problem("theory t1 temporal\nrelation t1 r/2 ordertypes 0/2\n")


def test_parse_comments_and_blanks():
    problem = parse_problem("# a comment\n\ntheory t1 equality\neq x y  # trailing\n")
    assert problem.instance.atoms == frozenset({eq("x", "y")})


def test_parse_mi_builtin_has_nine_order_types():
    problem = parse_problem(
        "theory t1 temporal\nrelation t1 mi/3 builtin mi\natom t1 mi x y z\n"
    )
    relation = problem.theories["t1"].relations["mi"]
    assert relation.arity == 3
    assert len(relation.allowed) == 9


def test_parse_henson_tournaments():
    problem = parse_problem(
        "theory t1 henson forbid a>b,b>c,c>a;a>b,a>c,b>c\natom t1 E x y\n"
    )
    decl = problem.theories["t1"]
    assert len(decl.forbidden) == 2
    assert all(t.is_tournament() for t in decl.forbidden)


def test_parse_rejects_non_tournament():
    with pytest.raises(ParseError):
        parse_problem("theory t1 henson forbid a>b,b>a\n")


@pytest.mark.parametrize("line_no", [1, 3])
def test_bad_tournament_token_reports_its_own_line(line_no):
    # the same bad token must report the line it is on, even once a parse
    # of that token has been attempted before
    bad = "theory t1 henson forbid a>b,b>a\n"
    text = "# padding\n" * (line_no - 1) + bad
    for _ in range(2):
        with pytest.raises(ParseError, match=f"^line {line_no}: ") as info:
            parse_problem(text)
        assert info.value.line_no == line_no


def test_repeated_forbid_line_parses_to_equal_tournaments():
    text = "theory t1 henson forbid a>b,b>c,c>a;a>b,a>c,b>c\n"
    first = parse_problem(text).theories["t1"].forbidden
    second = parse_problem(text).theories["t1"].forbidden
    assert first == second
    assert hash(first) == hash(second)


def test_tournament_caches_are_bounded():
    assert formulas._forbidden.cache_info().maxsize is not None
    assert theories._prepared.cache_info().maxsize is not None


def test_parse_unknown_directive():
    with pytest.raises(ParseError):
        parse_problem("frobnicate x y\n")


def test_parse_trailing_comment_on_an_atom_line():
    problem = parse_problem("theory t1 point_algebra\natom t1 lt x y  # x first\n")
    assert problem.instance.atoms == frozenset({rel(RelationSymbol("t1", "lt", 2), "x", "y")})
    assert problem.instance.variables == ("x", "y")


@pytest.mark.parametrize(
    "text, message",
    [
        # an atom line before its theory line names the theory
        ("atom t1 lt x y\ntheory t1 point_algebra\n", "line 1: undeclared theory 't1'"),
        ("theory t1 point_algebra\natom t1 le x y\n", "line 2: undeclared relation t1.le"),
        # the relation is resolved before the variables, and they before the arity
        ("theory t1 point_algebra\natom t1 le x 9y\n", "line 2: undeclared relation t1.le"),
        ("theory t1 point_algebra\n\natom t1 lt x 9y z\n", "line 3: invalid variable '9y'"),
        ("theory t1 equality\neq x y\n# c\nneq y 9y\n", "line 4: invalid variable '9y'"),
        # arities and ranks are ASCII digits: int() takes other digits or fails
        (
            "theory t1 temporal\nrelation t1 r/\u00b2 ordertypes 0/1\n",
            "line 2: bad arity '\u00b2'",
        ),
        (
            "theory t1 temporal\nrelation t1 r/2 ordertypes 0/\u00b2\n",
            "line 2: bad rank '\u00b2' in order type",
        ),
        (
            "theory t1 temporal\nrelation t1 r/\u0661 ordertypes 0\n",
            "line 2: bad arity '\u0661'",
        ),
        (
            "theory t1 temporal\nrelation t1 r/2 ordertypes 0/\u0661\n",
            "line 2: bad rank '\u0661' in order type",
        ),
    ],
)
def test_parse_errors_keep_their_order_and_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value) == message


def test_collapse_transitive():
    symbol = RelationSymbol("t1", "R", 2)
    inst = make_instance([eq("x", "y"), eq("y", "z"), rel(symbol, "x", "z")])
    collapsed, var_map = collapse_equalities(inst)
    assert collapsed.atoms == frozenset({rel(symbol, "x", "x")})
    assert var_map == {"x": "x", "y": "x", "z": "x"}


def test_collapse_keeps_reflexive_disequality():
    inst = make_instance([eq("x", "y"), neq("x", "y")])
    collapsed, var_map = collapse_equalities(inst)
    assert collapsed.atoms == frozenset({neq("x", "x")})
    assert var_map == {"x": "x", "y": "x"}


def test_collapse_identity():
    symbol = RelationSymbol("t1", "R", 2)
    inst = make_instance([rel(symbol, "a", "b")])
    collapsed, var_map = collapse_equalities(inst)
    assert collapsed == inst
    assert var_map == {"a": "a", "b": "b"}


def test_collapse_idempotent_on_random_instances():
    rng = random.Random(5)
    symbol = RelationSymbol("t1", "R", 2)
    for _ in range(200):
        names = [f"v{i}" for i in range(rng.randint(1, 6))]
        atoms = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.choice(["rel", "eq", "neq"])
            x, y = rng.choice(names), rng.choice(names)
            if kind == "rel":
                atoms.append(rel(symbol, x, y))
            elif kind == "eq":
                atoms.append(eq(x, y))
            else:
                atoms.append(neq(x, y))
        once, _ = collapse_equalities(make_instance(atoms))
        twice, var_map = collapse_equalities(once)
        assert once == twice
        assert all(k == v for k, v in var_map.items())


def test_collapse_without_equalities_matches_a_full_collapse():
    # a reflexive eq atom joins nothing but sends the collapse down its full
    # path; without any eq atom the instance comes back as it is
    rng = random.Random(11)
    binary, ternary = RelationSymbol("t1", "R", 2), RelationSymbol("t1", "S", 3)
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(1, 6))]
        atoms = []
        for _ in range(rng.randint(0, 8)):
            symbol = rng.choice([binary, ternary, "neq"])
            if symbol == "neq":
                atoms.append(neq(rng.choice(names), rng.choice(names)))
            else:
                atoms.append(rel(symbol, *rng.choices(names, k=symbol.arity)))
        inst = make_instance(atoms)
        collapsed, var_map = collapse_equalities(inst)
        assert collapsed is inst
        if not inst.variables:
            continue
        v = inst.variables[0]
        full, full_map = collapse_equalities(make_instance(atoms + [eq(v, v)]))
        assert (collapsed, var_map) == (full, full_map)
        assert collapsed.variables == full.variables


def test_split_routes_and_copies():
    lt1 = RelationSymbol("t1", "lt", 2)
    inst = make_instance([rel(lt1, "x", "y"), neq("y", "z")])
    parts, shared = split_by_signature(inst, ["t1", "t2"])
    assert parts["t1"].atoms == frozenset({rel(lt1, "x", "y"), neq("y", "z")})
    assert parts["t2"].atoms == frozenset({neq("y", "z")})
    # y and z reach t2 through the copied disequality, so they are shared
    assert shared == frozenset({"y", "z"})


def test_split_shared_variable():
    lt1 = RelationSymbol("t1", "lt", 2)
    prec2 = RelationSymbol("t2", "prec", 2)
    inst = make_instance([rel(lt1, "x", "y"), rel(prec2, "y", "z")])
    parts, shared = split_by_signature(inst, ["t1", "t2"])
    assert shared == frozenset({"y"})
    assert rel(lt1, "x", "y") in parts["t1"].atoms
    assert rel(prec2, "y", "z") in parts["t2"].atoms


def test_split_preserves_rel_atoms_and_duplicates_neutral():
    rng = random.Random(11)
    lt1 = RelationSymbol("t1", "lt", 2)
    prec2 = RelationSymbol("t2", "prec", 2)
    for _ in range(100):
        names = [f"v{i}" for i in range(rng.randint(2, 5))]
        atoms = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.choice(["t1", "t2", "eq", "neq"])
            x, y = rng.sample(names, 2)
            if kind == "t1":
                atoms.append(rel(lt1, x, y))
            elif kind == "t2":
                atoms.append(rel(prec2, x, y))
            elif kind == "eq":
                atoms.append(eq(x, y))
            else:
                atoms.append(neq(x, y))
        inst = make_instance(atoms)
        parts, _ = split_by_signature(inst, ["t1", "t2"])
        rel_union = {a for part in parts.values() for a in part.atoms if a.kind == REL}
        assert rel_union == {a for a in inst.atoms if a.kind == REL}
        neutral = {a for a in inst.atoms if a.kind != REL}
        for part in parts.values():
            assert neutral <= part.atoms


def test_render_round_trip_fixture_files():
    import pathlib

    for path in sorted((pathlib.Path(__file__).parent / "fixtures").glob("*.qcsp")):
        if path.name == "bad_arity.qcsp":
            continue
        problem = parse_problem(path.read_text())
        again = parse_problem(render_problem(problem))
        assert again == problem


def test_parsed_variables_are_those_of_the_atoms():
    # Instance equality ignores the variables, so compare them themselves
    import pathlib

    for path in sorted((pathlib.Path(__file__).parent / "fixtures").glob("*.qcsp")):
        if path.name == "bad_arity.qcsp":
            continue
        instance = parse_problem(path.read_text()).instance
        assert instance.variables == make_instance(instance.atoms).variables, path.name


def test_render_round_trip_random_problems():
    rng = random.Random(23)
    for _ in range(50):
        lines = ["theory t1 point_algebra", "theory t2 equality"]
        names = [f"v{i}" for i in range(rng.randint(2, 5))]
        for _ in range(rng.randint(1, 6)):
            x, y = rng.sample(names, 2)
            lines.append(
                rng.choice(
                    [f"atom t1 lt {x} {y}", f"atom t1 leq {x} {y}",
                     f"eq {x} {y}", f"neq {x} {y}"]
                )
            )
        problem = parse_problem("\n".join(lines))
        assert parse_problem(render_problem(problem)) == problem


def test_ppformula_rejects_unbound_variables():
    symbol = RelationSymbol("t1", "lt", 2)
    with pytest.raises(ValueError):
        PPFormula(("x", "y"), frozenset(), frozenset({rel(symbol, "x", "z")}))
    with pytest.raises(ValueError):
        PPFormula(("x",), frozenset({"x"}), frozenset())


def test_ppformula_rejects_repeated_free_variables():
    with pytest.raises(ValueError):
        PPFormula(("x", "x", "u", "v"), frozenset(), frozenset())
