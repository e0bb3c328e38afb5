"""Command-line behavior: exit codes, report format, witness replay,
determinism."""

import json
import os

import pytest

from rcrs.cli import main

SUM_RCRS = """
component Add = stateless_det((x:int, y:int), true, (x + y))
component UnitDelay = det((x:int), (s:int), (0), true, (x), (s))
component Split = stateless_det((x:int), true, (x, x))
component Sum = fdbk(Add ; UnitDelay ; Split)
"""

DIV_RCRS = """
component Source = stateless((u:int), (x:int, y:int), true)
component Div = stateless((x:int, y:int), (z:int), y != 0 && z = x / y)
component DivDet = stateless_det((x:int, y:int), y != 0, (x / y))
"""

REFINE_RCRS = """
component Spec = stateless((x:int), (y:int), x >= 0 && y >= x)
component Impl = stateless((x:int), (y:int), x <= y && y <= x + 10)
"""

# B takes one input where A gives two outputs
ILL_FORMED_RCRS = """
component A = stateless_det((x:int), true, (x, x))
component B = stateless_det((u:int), true, (u * 2))
"""


@pytest.fixture
def sum_file(tmp_path):
    p = tmp_path / "sum.rcrs"
    p.write_text(SUM_RCRS)
    return str(p)


@pytest.fixture
def div_file(tmp_path):
    p = tmp_path / "div.rcrs"
    p.write_text(DIV_RCRS)
    return str(p)


@pytest.fixture
def refine_file(tmp_path):
    p = tmp_path / "refine.rcrs"
    p.write_text(REFINE_RCRS)
    return str(p)


@pytest.fixture
def int_domain_file(tmp_path):
    p = tmp_path / "int.dom"
    p.write_text("domain int = {-2, -1, 0, 1, 2}\n")
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_dict(out: str) -> dict:
    entries = {}
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        entries.setdefault(key, value)
    return entries


class TestSimplify:
    def test_sum(self, capsys, sum_file):
        code, out, _ = run_cli(capsys, "simplify", sum_file)
        assert code == 0
        rep = report_dict(out)
        assert rep["component"] == "det((x1:int), (u0:int), (0), true, (u0 + x1), (u0))"

    def test_parse_error_exit_3(self, capsys, tmp_path):
        p = tmp_path / "bad.rcrs"
        p.write_text("component A = stateless_det((x:int), true, (x + ))")
        code, _, err = run_cli(capsys, "simplify", str(p))
        assert code == 3
        assert "error" in err

    def test_nondecomposable_exit_4(self, capsys, tmp_path):
        p = tmp_path / "loop.rcrs"
        p.write_text("component Bad = fdbk(stateless_det((x:int), true, (x)))")
        code, _, err = run_cli(capsys, "simplify", str(p))
        assert code == 4
        assert "non-decomposable" in err


class TestSimulate:
    def test_sum_golden(self, capsys, sum_file):
        code, out, _ = run_cli(
            capsys, "simulate", sum_file, "--input", "x:1,1,1,1", "--horizon", "4"
        )
        assert code == 0
        rep = report_dict(out)
        assert rep["y0"] == "0,1,2,3"

    def test_unit_delay_golden(self, capsys, sum_file):
        code, out, _ = run_cli(
            capsys, "simulate", sum_file, "--target", "UnitDelay", "--input", "x:5,7,9"
        )
        assert code == 0
        assert report_dict(out)["y0"] == "0,5,7"

    def test_illegal_input(self, capsys, div_file):
        code, out, _ = run_cli(
            capsys,
            "simulate", div_file, "--target", "DivDet",
            "--input", "x:4,1", "--input", "y:2,0",
        )
        assert code == 1
        rep = report_dict(out)
        assert rep["illegal_at"] == "1"

    def test_real_inputs_written_as_integers_divide_as_reals(self, capsys, tmp_path):
        p = tmp_path / "q.rcrs"
        p.write_text("component Q = stateless_det((x:real, y:real), true, (x / y))\n")
        code, out, _ = run_cli(capsys, "simulate", str(p), "--input", "x:1,3", "--input", "y:2,1.5")
        assert code == 0
        assert report_dict(out)["y0"] == "1/2,2"

    def test_component_without_inputs_exit_3(self, capsys, tmp_path):
        p = tmp_path / "z.rcrs"
        p.write_text("component Z = stateless_det((), true, (1))\n")
        code, _, err = run_cli(capsys, "simulate", str(p), "--input", "a:1,2")
        assert code == 3
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_empty_trace_value_exit_3(self, capsys, sum_file):
        code, _, err = run_cli(capsys, "simulate", sum_file, "--input", "x:1,,2")
        assert code == 3
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_value_outside_slot_type_exit_3(self, capsys, sum_file):
        code, _, err = run_cli(
            capsys, "simulate", sum_file, "--target", "UnitDelay", "--input", "x:1,true"
        )
        assert code == 3
        assert "not a value of int" in err


    def test_unknown_slot_exit_3(self, capsys, sum_file):
        code, _, err = run_cli(
            capsys, "simulate", sum_file, "--target", "UnitDelay",
            "--input", "x:1,2", "--input", "zz:5,6",
        )
        assert code == 3
        assert err.count("\n") == 1 and err.startswith("error: ") and "zz" in err

    @pytest.mark.parametrize(
        "argv", [("simulate", "{}", "--input", "x:1,2,3"), ("check", "valid", "{}"), ("simplify", "{}")]
    )
    @pytest.mark.parametrize(
        "term, reason",
        [
            ("A ; B", "serial arity mismatch: 2 outputs vs 1 inputs"),
            ("fdbk(stateless_det((), true, (1)))", "feedback child lacks an input or output slot"),
            ("fdbk(A ; B)", "serial arity mismatch: 2 outputs vs 1 inputs"),
        ],
    )
    def test_ill_formed_composite_exit_3(self, capsys, tmp_path, argv, term, reason):
        # every command checks well-formedness first, simulate before it
        # reads the traces or steps the term
        p = tmp_path / "c.rcrs"
        p.write_text(ILL_FORMED_RCRS + f"component C = {term}\n")
        code, out, err = run_cli(capsys, *(a.format(p) for a in argv), "--target", "C")
        assert code == 3
        assert err == f"error: {reason}\n"
        assert "y0" not in report_dict(out)

    def test_negative_horizon_exit_3(self, capsys, sum_file):
        code, _, _ = run_cli(
            capsys, "simulate", sum_file, "--target", "UnitDelay", "--input", "x:1,2",
            "--horizon", "-1",
        )
        assert code == 3


class TestChecks:
    def test_compat_refuted_exit_1(self, capsys, div_file, int_domain_file, no_solver):
        code, out, _ = run_cli(
            capsys,
            "check", "compat", div_file, "--left", "Source", "--right", "Div",
            "--domains", int_domain_file,
        )
        assert code == 1
        assert report_dict(out)["verdict"] == "Refuted"

    def test_refine_proven_exit_0(self, capsys, refine_file, with_solver):
        code, out, _ = run_cli(
            capsys, "check", "refine", refine_file, "--abstract", "Spec", "--concrete", "Impl"
        )
        assert code == 0
        assert report_dict(out)["verdict"] == "Proven"

    def test_refine_unknown_exit_2(self, capsys, refine_file, no_solver):
        code, out, _ = run_cli(
            capsys, "check", "refine", refine_file, "--abstract", "Spec", "--concrete", "Impl"
        )
        assert code == 2
        assert report_dict(out)["verdict"] == "Unknown"

    def test_receptive_refuted_with_witness(self, capsys, div_file):
        code, out, _ = run_cli(capsys, "check", "receptive", div_file, "--target", "DivDet")
        assert code == 1
        rep = report_dict(out)
        assert rep["witness.y"] == "0"
        assert rep["witness.step"] == "0"

    def test_negative_horizon_exit_3(self, capsys, refine_file, int_domain_file):
        code, _, err = run_cli(
            capsys, "check", "refine", refine_file, "--abstract", "Spec", "--concrete", "Impl",
            "--domains", int_domain_file, "--horizon", "-1",
        )
        assert code == 3
        assert "Traceback" not in err

    def test_serial_stage_sees_computed_values(self, capsys, tmp_path, no_solver):
        p = tmp_path / "staged.rcrs"
        p.write_text(
            "component Inc = stateless_det((x:int), true, (x + 1))\n"
            "component Delay = det((x:int), (s:int), (0), true, (x), (s))\n"
            "component Spec = Inc ; Delay\n"
            "component Impl = det((x:int), (s:int, t:int), (0, 0), true, (x + 1, t), (s))\n"
        )
        dom = tmp_path / "01.dom"
        dom.write_text("domain int = {0, 1}\n")
        code, out, _ = run_cli(
            capsys, "check", "refine", str(p), "--abstract", "Spec", "--concrete", "Impl",
            "--domains", str(dom),
        )
        assert code == 2 and report_dict(out)["verdict"] == "Unknown"

    def test_valid_proven(self, capsys, sum_file):
        code, out, _ = run_cli(capsys, "check", "valid", sum_file, "--target", "Add")
        assert code == 0

    def test_refine_iff_contracts_proven_by_solver(self, capsys, tmp_path, with_solver):
        p = tmp_path / "iff.rcrs"
        p.write_text(
            "component A = stateless((x:int), (y:bool), y <-> x < 3)\n"
            "component B = stateless((x:int), (y:bool), y <-> x <= 2)\n"
        )
        code, out, _ = run_cli(capsys, "check", "refine", str(p), "--abstract", "A", "--concrete", "B")
        assert code == 0
        rep = report_dict(out)
        assert rep["verdict"] == "Proven"
        assert rep["note"] == "stateless refinement (sound and complete) via solver"

    def test_refine_with_a_real_constant_decided_by_solver(self, capsys, tmp_path, with_solver):
        # the script writes 0.5 as (/ 1.0 2.0), which the solver reads as one constant
        p = tmp_path / "half.rcrs"
        p.write_text(
            "component A = stateless((x:real), (y:real), y >= x)\n"
            "component B = stateless((x:real), (y:real), y = x + 0.5)\n"
        )
        code, out, _ = run_cli(capsys, "check", "refine", str(p), "--abstract", "A", "--concrete", "B")
        assert (code, report_dict(out)["verdict"]) == (0, "Proven")
        assert report_dict(out)["note"] == "stateless refinement (sound and complete) via solver"
        code, out, _ = run_cli(capsys, "check", "refine", str(p), "--abstract", "B", "--concrete", "A")
        assert (code, report_dict(out)["verdict"]) == (1, "Refuted")


class TestWitnessLines:
    """The report lines of a lasso witness and of a trace witness's outputs."""

    def test_receptive_lasso_lines(self, capsys, tmp_path):
        p = tmp_path / "f.rcrs"
        p.write_text("component Eventually = qltl((x:bool), (), F x = true)\n")
        code, out, _ = run_cli(capsys, "check", "receptive", str(p))
        assert code == 1
        rep = report_dict(out)
        assert rep["lasso.x"] == "|False"
        assert rep["lasso.note"] == "lasso assignment falsifying the goal"

    def test_refine_witness_outputs(self, capsys, tmp_path):
        p = tmp_path / "same.rcrs"
        p.write_text(
            "component Same = stateless((x:int[0..1]), (y:int[0..1]), y = x)\n"
            "component Other = stateless((x:int[0..1]), (y:int[0..1]), y != x)\n"
        )
        code, out, _ = run_cli(capsys, "check", "refine", str(p), "--abstract", "Same", "--concrete", "Other")
        assert code == 1
        assert report_dict(out)["witness.outputs"] == "1;1;1;1"


class TestWitnessReplay:
    def test_refuted_witness_reproduces_via_simulate(
        self, capsys, refine_file, int_domain_file, tmp_path, no_solver
    ):
        wide = tmp_path / "wide.dom"
        wide.write_text("domain int = {-2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}\n")
        code, out, _ = run_cli(
            capsys,
            "check", "refine", refine_file, "--abstract", "Impl", "--concrete", "Spec",
            "--domains", str(wide), "--horizon", "1",
        )
        assert code == 1
        rep = report_dict(out)
        witness_x = rep["witness.x"]
        # the witness trace replayed against the concrete side is illegal
        concrete = tmp_path / "c.rcrs"
        concrete.write_text(
            "component C = stateless_det((x:int), x >= 0, (x))\n"
        )
        code2, out2, _ = run_cli(
            capsys, "simulate", str(concrete), "--input", f"x:{witness_x}"
        )
        assert code2 == 1
        assert report_dict(out2)["illegal_at"] == rep["witness.step"]


class TestLegalAndSmt:
    def test_legal_output(self, capsys, div_file):
        code, out, _ = run_cli(capsys, "legal", div_file, "--target", "DivDet")
        assert code == 0
        assert report_dict(out)["legal"] == "G y != 0"

    def test_smt_refine_script(self, capsys, refine_file):
        code, out, _ = run_cli(
            capsys, "smt", refine_file, "--query", "refine",
            "--abstract", "Spec", "--concrete", "Impl",
        )
        assert code == 0
        assert "(check-sat)" in out
        assert "(assert (not" in out

    def test_smt_valid_script(self, capsys, div_file):
        code, out, _ = run_cli(capsys, "smt", div_file, "--query", "valid", "--target", "Div")
        assert code == 0
        assert "(check-sat)" in out

    # the bundled solver does not decide a division by a variable
    @pytest.mark.parametrize(
        "argv,verdicts",
        [
            (("div", "--query", "valid", "--target", "Source"), ["sat"]),
            (("div", "--query", "valid", "--target", "Div"), ["unknown"]),
            (("sum", "--query", "valid", "--target", "Sum"), ["unknown"]),
            (("refine", "--query", "refine", "--abstract", "Spec", "--concrete", "Impl"), ["unsat"]),
        ],
    )
    def test_smt_stdout_is_smtlib_only(self, capsys, tmp_path, argv, verdicts):
        from rcrs.dlsolver import read_sexprs, run

        p = tmp_path / "input.rcrs"
        p.write_text({"div": DIV_RCRS, "sum": SUM_RCRS, "refine": REFINE_RCRS}[argv[0]])
        code, out, err = run_cli(capsys, "smt", str(p), *argv[1:])
        assert code == 0
        scripts = out.split("(set-logic ")[1:]
        assert scripts and all(script.rstrip().endswith("(check-sat)") for script in scripts)
        assert "time_ms" not in out and err.startswith("time_ms: ")
        # every command is one the solver acts on: nothing is skipped
        heads = {"set-logic", "declare-const", "declare-fun", "declare-datatypes", "assert", "check-sat"}
        assert all(isinstance(c, list) and c and c[0] in heads for c in read_sexprs(out))
        assert run(out) == verdicts

    def test_smt_temporal_contract_exit_3(self, capsys, tmp_path):
        p = tmp_path / "gf.rcrs"
        p.write_text("component GF = qltl((x:bool), (), G F x)\n")
        code, _, err = run_cli(capsys, "smt", str(p), "--query", "valid")
        assert code == 3
        assert err.count("\n") == 1 and err.startswith("error: ")


class TestTranslateCommand:
    def test_translate_roundtrip(self, capsys, tmp_path):
        diagram = tmp_path / "sum.json"
        diagram.write_text(
            json.dumps(
                {
                    "blocks": [
                        {"id": "add", "kind": "Add", "params": {"ty": "int"}},
                        {"id": "delay", "kind": "UnitDelay", "params": {"ty": "int"}},
                        {"id": "split", "kind": "Split", "params": {"ty": "int"}},
                    ],
                    "wires": [
                        {"src": ["add", 0], "dst": ["delay", 0]},
                        {"src": ["delay", 0], "dst": ["split", 0]},
                        {"src": ["split", 0], "dst": ["add", 0]},
                    ],
                    "inputs": [["add", 1]],
                    "outputs": [["split", 1]],
                }
            )
        )
        out_file = tmp_path / "sum.rcrs"
        code, out, _ = run_cli(capsys, "translate", str(diagram), "-o", str(out_file))
        assert code == 0
        code, out, _ = run_cli(capsys, "simplify", str(out_file))
        assert code == 0
        assert report_dict(out)["component"].startswith("det(")


class TestDeterminism:
    def test_identical_invocations_identical_reports(self, capsys, refine_file, with_solver):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(
                capsys,
                "check", "refine", refine_file, "--abstract", "Spec", "--concrete", "Impl",
            )
            outs.append("\n".join(l for l in out.splitlines() if not l.startswith("time_ms")))
        assert outs[0] == outs[1]


class TestSelftest:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "1", "--count", "4")
        assert code == 0
        assert report_dict(out)["failures"] == "0"

    def test_negative_count_exit_3(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--count", "-3")
        assert code == 3
        assert "atomic_equiv" not in out


class TestDataRefine:
    COUNTER_RCRS = """
component Counter = sts((x:int), (y:int), (s:int), s = 0, y = s && s' = s + 1)
component Doubled = sts((x:int), (y:int), (t:int), t = 0, y = t / 2 && t' = t + 2)
"""

    def test_counter_times_two(self, capsys, tmp_path, no_solver):
        f = tmp_path / "counter.rcrs"
        f.write_text(self.COUNTER_RCRS)
        dom = tmp_path / "wide.dom"
        dom.write_text("domain int = {-2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8}\n")
        code, out, _ = run_cli(
            capsys,
            "check", "refine", str(f), "--abstract", "Counter", "--concrete", "Doubled",
            "--data-refine", "t = 2 * s", "--domains", str(dom),
        )
        assert code == 0
        assert report_dict(out)["verdict"] == "Proven"

    def test_false_relation_unknown(self, capsys, tmp_path, no_solver):
        f = tmp_path / "counter.rcrs"
        f.write_text(self.COUNTER_RCRS)
        dom = tmp_path / "small.dom"
        dom.write_text("domain int = {-1, 0, 1, 2}\n")
        code, out, _ = run_cli(
            capsys,
            "check", "refine", str(f), "--abstract", "Counter", "--concrete", "Doubled",
            "--data-refine", "false", "--domains", str(dom),
        )
        assert code == 2


class TestFileErrors:
    def test_missing_file_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "simplify", "does-not-exist.rcrs")
        assert code == 3
        assert "error" in err

    def test_broken_diagram_json_exit_3(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"blocks": [')
        code, _, err = run_cli(capsys, "translate", str(p))
        assert code == 3

    def test_malformed_diagram_exit_3(self, capsys, tmp_path):
        # a block without an id, and a duplicate block id
        for blocks in (
            [{"kind": "Gain", "params": {"ty": "int", "k": 1}}],
            [{"id": "g", "kind": "Gain", "params": {"ty": "int", "k": k}} for k in (2, 3)],
        ):
            p = tmp_path / "malformed.json"
            p.write_text(json.dumps({"blocks": blocks, "inputs": [["g", 0]], "outputs": [["g", 0]]}))
            code, out, err = run_cli(capsys, "translate", str(p))
            assert code == 3
            assert err.count("\n") == 1 and err.startswith("error: ")
            assert "component" not in out

    def test_algebraic_loop_exit_3(self, capsys, tmp_path):
        # one Gain wired to itself: a same-step cycle is a property of the input
        p = tmp_path / "loop.json"
        gain = {"id": "a", "kind": "Gain", "params": {"ty": "int", "k": 2}}
        p.write_text(json.dumps({"blocks": [gain], "wires": [{"src": ["a", 0], "dst": ["a", 0]}],
                                 "inputs": [], "outputs": [["a", 0]]}))
        code, out, err = run_cli(capsys, "translate", str(p))
        assert code == 3
        assert err == "error: same-step dependency cycle among ['a']\n"
        assert "component" not in out

    @pytest.mark.parametrize("text", ["domain int = {a, b}\n", "domain int = {1, 2\n"])
    def test_bad_domain_file_exit_3(self, capsys, refine_file, tmp_path, text):
        dom = tmp_path / "bad.dom"
        dom.write_text(text)
        code, _, err = run_cli(
            capsys, "check", "refine", refine_file, "--abstract", "Spec", "--concrete", "Impl",
            "--domains", str(dom),
        )
        assert code == 3
        assert err.count("\n") == 1 and err.startswith("error: ")


class TestSolverFailure:
    def test_crashing_solver_exits_4(self, capsys, monkeypatch, tmp_path, refine_file):
        import sys

        stub = tmp_path / "crashing_solver.py"
        stub.write_text("import sys\nsys.stdin.read()\n{}['x']\n")
        monkeypatch.setenv("RCRS_SMT_SOLVER", f"{sys.executable} {stub}")
        code, out, err = run_cli(
            capsys, "check", "refine", refine_file, "--abstract", "Spec", "--concrete", "Impl"
        )
        assert code == 4
        assert "verdict" not in out
        assert err.startswith("analysis failure: solver exited with status 1")
        assert err.rstrip().endswith("KeyError: 'x'") and err.count("\n") == 1


class TestUncaughtErrors:
    def test_defect_exits_4_with_one_line(self, capsys, monkeypatch, sum_file):
        import rcrs.cli as cli

        def defect(*args):
            raise ZeroDivisionError("defect in simplify")

        monkeypatch.setattr(cli, "atomic", defect)
        code, _, err = run_cli(capsys, "simplify", sum_file)
        assert code == 4
        assert err == "error: internal failure: ZeroDivisionError: defect in simplify\n"


class TestOneParserPerProcess:
    def test_interleaved_calls_answer_as_a_first_call(self, capsys, tmp_path):
        import rcrs.cli as cli

        data = os.path.join(os.path.dirname(__file__), "data")
        bad = tmp_path / "bad.rcrs"
        bad.write_text("component A = stateless((x:int), (y:int), x >)\n")
        calls = [
            ("check", "receptive", "--no-such-option"),
            ("--version",),
            ("check", "valid", str(bad)),
            ("check", "receptive", os.path.join(data, "div.rcrs")),
        ]

        def run(argv):
            code, out, err = run_cli(capsys, *argv)
            out = "\n".join(l for l in out.splitlines() if not l.startswith("time_ms"))
            return code, out, err

        first = {}
        for argv in calls:
            cli._parser.cache_clear()
            first[argv] = run(argv)
        assert [first[a][0] for a in calls] == [3, 0, 3, 1]
        assert report_dict(first[calls[3]][1])["witness.y"] == "0"
        for argv in calls + calls[::-1] + calls:
            assert run(argv) == first[argv], argv
