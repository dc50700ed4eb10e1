"""Command-line contract: first-line verdicts, exit codes, witness replay."""

import os
import pathlib
import subprocess
import sys

import pytest

from qcsp import _kernels, cli
from qcsp.cli import EXIT_INTERNAL, main
from qcsp.combine import CombinedWitness
from qcsp.formulas import REL, parse_problem
from qcsp.theories import (
    HensonWitness,
    SolveResult,
    TheorySolver,
    canonical_ranks,
    relation_for_name,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_solve_unsat_fixture_convex(capsys):
    code, out, _ = run_cli(
        "solve", str(FIXTURES / "pa_eq_unsat.qcsp"), "--mode", "convex", capsys=capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "UNSAT"


def test_solve_nonconvex_flag_contract(capsys):
    code, _, err = run_cli(
        "solve", str(FIXTURES / "mi_nonconvex.qcsp"), "--mode", "convex", capsys=capsys
    )
    assert code == 3
    assert "convex" in err


def test_solve_empty_instance(capsys):
    code, out, _ = run_cli("solve", str(FIXTURES / "empty.qcsp"), capsys=capsys)
    assert code == 0
    assert out.splitlines()[0] == "SAT"


def test_solve_parse_error(capsys):
    code, _, err = run_cli("solve", str(FIXTURES / "bad_arity.qcsp"), capsys=capsys)
    assert code == 2
    assert "line 2" in err


def test_solve_missing_file(capsys):
    code, _, _ = run_cli("solve", str(FIXTURES / "no_such_file.qcsp"), capsys=capsys)
    assert code == 2


@pytest.mark.parametrize("command, options", [
    (["solve"], []),
    (["oracle"], []),
    (["probe-convexity"], ["--max-vars", "2", "--max-atoms", "1", "--exhaustive"]),
    (["cross-check"], ["--free", "x,y,u,v"]),
    (["henson", "solve"], []),
])
def test_file_that_is_not_utf8_is_a_parse_error(command, options, tmp_path, capsys):
    path = tmp_path / "bad.qcsp"
    path.write_bytes(b"theory t1 equality\n\xff eq a b\n")
    code, out, err = run_cli(*command, str(path), *options, capsys=capsys)
    assert code == 2
    assert out == ""
    assert "parse error:" in err


def test_first_line_is_verdict_everywhere(capsys):
    for name in ["pa_eq_unsat.qcsp", "mi_nonconvex.qcsp", "mi_sat.qcsp",
                 "pa_pair_sat.qcsp", "empty.qcsp"]:
        code, out, _ = run_cli("solve", str(FIXTURES / name), capsys=capsys)
        assert code == 0
        assert out.splitlines()[0] in ("SAT", "UNSAT")


def _replay_witness(problem, out: str) -> bool:
    lines = out.splitlines()
    assert lines[0] == "SAT"
    arrangement: dict[str, int] = {}
    models: dict[str, dict[str, str]] = {}
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "arrangement":
            arrangement[parts[1]] = int(parts[2])
        elif parts[0] == "model":
            models.setdefault(parts[1], {})[parts[2]] = parts[3]
    for atom in problem.instance.atoms:
        if atom.kind == REL:
            tid = atom.symbol.theory_id
            values = models[tid]
            kind = problem.theories[tid].kind
            if kind in ("point_algebra", "temporal"):
                relation = problem.theories[tid].relations.get(
                    atom.symbol.name
                ) or relation_for_name(atom.symbol.name)
                ranks = tuple(int(values[v]) for v in atom.args)
                if canonical_ranks(ranks) not in relation.allowed:
                    return False
            elif kind == "henson":
                if values[atom.args[0]] == values[atom.args[1]]:
                    return False
        else:
            for values in models.values():
                if all(v in values for v in atom.args):
                    same = values[atom.args[0]] == values[atom.args[1]]
                    if atom.kind == "eq" and not same:
                        return False
                    if atom.kind == "neq" and same:
                        return False
    for tid, values in models.items():
        shared_here = [v for v in arrangement if v in values]
        for i in range(len(shared_here)):
            for j in range(i + 1, len(shared_here)):
                u, v = shared_here[i], shared_here[j]
                if arrangement[u] == arrangement[v] and values[u] != values[v]:
                    return False
    return True


def test_witness_replays_end_to_end(capsys):
    for name in ["mi_sat.qcsp", "pa_pair_sat.qcsp"]:
        path = FIXTURES / name
        code, out, _ = run_cli("solve", str(path), "--witness", capsys=capsys)
        assert code == 0
        problem = parse_problem(path.read_text())
        assert _replay_witness(problem, out)


def test_false_convex_flag_falls_back_or_exits_3(capsys):
    path = str(FIXTURES / "convex_flag_false.qcsp")
    code, out, _ = run_cli("solve", path, capsys=capsys)
    assert code == 0
    assert out.splitlines()[0] == "UNSAT"
    code, out, err = run_cli("solve", path, "--mode", "convex", capsys=capsys)
    assert code == 3
    assert out == ""
    assert "mode error" in err and "t1" in err


def test_failed_internal_check_exits_internal(monkeypatch, capsys):
    # wrong kernel ranks trip the temporal witness check; the CLI reports an
    # internal error with its own exit code instead of a traceback
    monkeypatch.setattr(_kernels, "temporal_search", lambda n, *rest: ((0,) * n, None))
    code, out, err = run_cli("solve", str(FIXTURES / "mi_sat.qcsp"), capsys=capsys)
    assert code == EXIT_INTERNAL == 5
    assert out == ""
    assert err.startswith("internal error: temporal witness violates")


def test_sat_witness_that_does_not_replay_exits_internal(monkeypatch, capsys):
    # t1 has x < y; a t1 model with y below x must not reach stdout
    bad = SolveResult(True, CombinedWitness(
        arrangement=(("x",), ("y",)),
        part_witnesses={"t1": {"x": 1, "y": 0}, "t2": {"x": 1, "y": 0}},
    ))
    monkeypatch.setattr(cli, "solve_auto", lambda problem: bad)
    code, out, err = run_cli(
        "solve", str(FIXTURES / "pa_pair_sat.qcsp"), "--witness", capsys=capsys
    )
    assert code == EXIT_INTERNAL == 5
    assert out == ""
    assert err.startswith("internal error: the SAT witness does not replay")


def test_oracle_command(capsys):
    code, out, _ = run_cli("oracle", str(FIXTURES / "mi_nonconvex.qcsp"), capsys=capsys)
    assert code == 0
    assert out.splitlines()[0] == "UNSAT"


def test_oracle_bound_exit_code(tmp_path, capsys):
    lines = ["theory t1 point_algebra"]
    for i in range(9):
        lines.append(f"atom t1 leq v{i} v{i+1}")
    path = tmp_path / "big.qcsp"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli("oracle", str(path), capsys=capsys)
    assert code == 4
    assert "bound" in err


def test_oracle_bad_bound_env_exit_code(monkeypatch, capsys):
    # ASCII digits only, as the parser reads numbers: int() would take the
    # Arabic-Indic eight, surrounding spaces and an underscore separator
    for value in ("abc", "2.5", "-1", "\u0668", " 8 ", "1_0"):
        monkeypatch.setenv("QCSP_ORACLE_BOUND", value)
        code, out, err = run_cli(
            "oracle", str(FIXTURES / "mi_nonconvex.qcsp"), capsys=capsys
        )
        assert code == 4
        assert out == ""
        assert "bound error" in err and "QCSP_ORACLE_BOUND" in err


def test_henson_subcommands(capsys):
    code, out, _ = run_cli("henson", "solve", str(FIXTURES / "henson_c3.qcsp"), capsys=capsys)
    assert code == 0 and out.splitlines()[0] == "UNSAT"
    code, out, _ = run_cli(
        "henson", "reduce-down", str(FIXTURES / "henson_loops.qcsp"), capsys=capsys
    )
    assert code == 0 and out.splitlines()[0] == "UNSAT"
    code, out, _ = run_cli(
        "henson", "reduce-up", str(FIXTURES / "henson_c3.qcsp"), capsys=capsys
    )
    assert code == 0
    reduced = parse_problem(out)
    base = parse_problem((FIXTURES / "henson_c3.qcsp").read_text())
    assert len(reduced.instance.atoms) == len(base.instance.atoms) + 1 + len(
        base.instance.variables
    )


@pytest.mark.parametrize("action", ["solve", "reduce-up", "reduce-down"])
def test_henson_commands_reject_atoms_of_other_theories(action, capsys):
    code, out, err = run_cli(
        "henson", action, str(FIXTURES / "henson_mixed.qcsp"), capsys=capsys
    )
    assert code == 2
    assert out == ""
    assert "t2.lt" in err


@pytest.mark.parametrize("name", ["pa_eq_link_unsat.qcsp", "pa_neq_link_unsat.qcsp"])
def test_solve_agrees_with_oracle_across_eq_neq_links(name, capsys):
    code, out, _ = run_cli("oracle", str(FIXTURES / name), capsys=capsys)
    assert code == 0 and out == "UNSAT\n"
    for mode in ("auto", "complete", "convex"):
        code, out, _ = run_cli("solve", str(FIXTURES / name), "--mode", mode, capsys=capsys)
        assert code == 0 and out == "UNSAT\n"


def test_henson_reduce_down_witness(capsys):
    code, out, _ = run_cli(
        "henson", "reduce-down", str(FIXTURES / "henson_c3.qcsp"), "--witness",
        capsys=capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "SAT"
    values = {}
    for line in lines[1:]:
        _, _, var, value = line.split()
        values[var] = value
    # the whole triangle maps to the loop vertex
    assert set(values.values()) == {"a"}


@pytest.mark.parametrize("action", ["solve", "reduce-down"])
def test_henson_sat_witness_that_does_not_replay_exits_internal(
    action, monkeypatch, capsys
):
    # the triangle's arcs are missing from the stub's digraph
    bad = SolveResult(True, HensonWitness({"x": "p", "y": "q", "z": "r"}, frozenset()))
    monkeypatch.setattr(TheorySolver, "decide", lambda self, inst, base=None: bad)
    monkeypatch.setattr(cli, "component_label_solve", lambda inst, forbidden: bad)
    code, out, err = run_cli(
        "henson", action, str(FIXTURES / "henson_c3.qcsp"), "--witness", capsys=capsys
    )
    assert code == EXIT_INTERNAL == 5
    assert out == ""
    assert err.startswith("internal error: the SAT witness does not replay")


def test_cross_check_command(capsys):
    code, out, _ = run_cli(
        "cross-check", str(FIXTURES / "cross_formula.qcsp"), "--free", "x,y,u,v",
        capsys=capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pass"
    assert "cond1 true" in lines and "cond3 true" in lines


@pytest.mark.parametrize("free", ["x,x,u,v", "x,y,u,", "x,y,u", "x,y,u,v,w", "x,y,u,1v"])
def test_cross_check_rejects_bad_free_variables(free, capsys):
    code, out, err = run_cli(
        "cross-check", str(FIXTURES / "cross_formula.qcsp"), "--free", free,
        capsys=capsys,
    )
    assert code == 2
    assert out == ""
    assert "parse error:" in err


@pytest.mark.parametrize("name", ["1x", "x-y", "\u00e9"])
def test_solve_and_cross_check_share_the_identifier_rule(name, tmp_path, capsys):
    path = tmp_path / "bad_name.qcsp"
    path.write_text(f"theory t1 equality\neq {name} b\n", encoding="utf-8")
    code, out, err = run_cli("solve", str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert "parse error: line 2: invalid variable" in err
    code, out, err = run_cli(
        "cross-check", str(FIXTURES / "cross_formula.qcsp"), "--free", f"x,y,u,{name}",
        capsys=capsys,
    )
    assert (code, out) == (2, "")
    assert "invalid free variable" in err


def test_non_ascii_digit_is_a_parse_error(tmp_path, capsys):
    # str.isdigit() accepts a superscript two, which int() then rejects
    path = tmp_path / "bad_digit.qcsp"
    text = "theory t1 temporal\nrelation t1 r/\u00b2 ordertypes 0/1\n"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli("solve", str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert "parse error: line 2: bad arity" in err
    assert "Traceback" not in err


def test_probe_command_small(capsys):
    code, out, _ = run_cli(
        "probe-convexity", str(FIXTURES / "temporal_sig.qcsp"),
        "--max-vars", "3", "--max-atoms", "3", "--exhaustive", capsys=capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "none"


@pytest.mark.parametrize("count, max_vars, max_atoms, limit", [
    ("0", "3", "3", "count >= 1"),
    ("-2", "3", "3", "count >= 1"),
    ("10", "1", "3", "max_vars >= 2"),
    ("10", "3", "0", "max_atoms >= 1"),
    ("5", "9", "3", "max_vars <= 8"),
    (None, "0", "0", "max_vars >= 2"),
    (None, "1", "3", "max_vars >= 2"),
    (None, "3", "0", "max_atoms >= 1"),
])
def test_probe_random_mode_rejects_bad_limits(count, max_vars, max_atoms, limit, capsys):
    # a count of None probes in exhaustive mode, which checks the same limits
    mode = ["--exhaustive"] if count is None else ["--random", count]
    code, out, err = run_cli(
        "probe-convexity", str(FIXTURES / "temporal_sig.qcsp"), *mode,
        "--max-vars", max_vars, "--max-atoms", max_atoms, capsys=capsys,
    )
    assert code == 4
    assert out == ""
    assert limit in err


def test_unknown_flag_is_an_error():
    with pytest.raises(SystemExit):
        main(["solve", str(FIXTURES / "empty.qcsp"), "--frobnicate"])


def test_console_script_runs():
    # pytest's pythonpath setting reaches only this process, not the child
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "qcsp.cli", "solve", str(FIXTURES / "empty.qcsp")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "SAT"
