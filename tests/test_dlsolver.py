"""The bundled difference-logic SMT-LIB solver: decided fragment, honest
`unknown` outside it."""

import subprocess
import sys

import pytest

from rcrs import dlsolver
from rcrs.dlsolver import run


def verdicts(script: str):
    return run(script)


class TestCore:
    def test_trivial(self):
        assert verdicts("(assert true)(check-sat)") == ["sat"]
        assert verdicts("(assert false)(check-sat)") == ["unsat"]

    def test_bounds(self):
        s = """
        (declare-const x Int)
        (assert (<= x 3))
        (assert (>= x 5))
        (check-sat)
        """
        assert verdicts(s) == ["unsat"]

    def test_difference_chain(self):
        s = """
        (declare-const x Int)(declare-const y Int)(declare-const z Int)
        (assert (<= (- x y) 1))
        (assert (<= (- y z) 1))
        (assert (<= (- z x) (- 3)))
        (check-sat)
        """
        assert verdicts(s) == ["unsat"]

    def test_integer_tightening(self):
        # x < y and y < x + 1 has no integer solution
        s = """
        (declare-const x Int)(declare-const y Int)
        (assert (< x y))
        (assert (< y (+ x 1)))
        (check-sat)
        """
        assert verdicts(s) == ["unsat"]

    def test_real_strict_cycle(self):
        # x < y and y <= x is unsat over the rationals
        s = """
        (declare-const x Real)(declare-const y Real)
        (assert (< x y))
        (assert (<= y x))
        (check-sat)
        """
        assert verdicts(s) == ["unsat"]

    def test_real_strict_sat(self):
        s = """
        (declare-const x Real)(declare-const y Real)
        (assert (< x y))
        (assert (< y 1))
        (check-sat)
        """
        assert verdicts(s) == ["sat"]


class TestQuantifiers:
    def test_forall_int(self):
        assert verdicts("(assert (forall ((x Int)) (not (= x 0))))(check-sat)") == ["unsat"]

    def test_exists_int(self):
        s = """
        (declare-const x Int)
        (assert (exists ((y Int)) (and (<= x y) (<= y (+ x 10)))))
        (check-sat)
        """
        assert verdicts(s) == ["sat"]

    def test_alternation(self):
        # forall x exists y: y > x  (valid over Int)
        s = "(assert (not (forall ((x Int)) (exists ((y Int)) (> y x)))))(check-sat)"
        assert verdicts(s) == ["unsat"]

    def test_bool_quantifier(self):
        s = "(assert (forall ((b Bool)) (or b (not b))))(check-sat)"
        assert verdicts(s) == ["sat"]
        s = "(assert (exists ((b Bool)) (and b (not b))))(check-sat)"
        assert verdicts(s) == ["unsat"]


class TestEnums:
    SCRIPT = """
    (declare-datatypes ((Mode 0)) (((idle) (busy))))
    (declare-const m Mode)
    """

    def test_enum_equality(self):
        assert verdicts(self.SCRIPT + "(assert (= m idle))(check-sat)") == ["sat"]

    def test_enum_exhaustion(self):
        s = self.SCRIPT + "(assert (not (= m idle)))(assert (not (= m busy)))(check-sat)"
        assert verdicts(s) == ["unsat"]

    def test_enum_quantifier(self):
        s = self.SCRIPT + "(assert (forall ((n Mode)) (or (= n idle) (= n busy))))(check-sat)"
        assert verdicts(s) == ["sat"]


class TestFragmentBoundary:
    def test_nonlinear_unknown(self):
        s = """
        (declare-const x Int)(declare-const y Int)
        (assert (= (* x y) 6))
        (check-sat)
        """
        assert verdicts(s) == ["unknown"]

    def test_division_unknown(self):
        s = """
        (declare-const x Int)(declare-const y Int)(declare-const z Int)
        (assert (= z (div x y)))
        (check-sat)
        """
        assert verdicts(s) == ["unknown"]

    def test_three_var_sum_unknown(self):
        s = """
        (declare-const x Int)(declare-const y Int)(declare-const z Int)
        (assert (<= (+ x y) z))
        (check-sat)
        """
        assert verdicts(s) == ["unknown"]

    def test_short_circuit_past_unknown(self):
        # an unsatisfiable decidable conjunct settles the query even though
        # another conjunct is outside the fragment
        s = """
        (declare-const x Int)(declare-const y Int)(declare-const z Int)
        (assert (and (forall ((u Int)) (not (= u 0))) (= z (* x y))))
        (check-sat)
        """
        assert verdicts(s) == ["unsat"]

    def test_mixed_sorts_unknown(self):
        s = """
        (declare-const x Int)(declare-const r Real)
        (assert (<= (- x r) 0))
        (check-sat)
        """
        assert verdicts(s) == ["unknown"]


class TestRationalConstants:
    """`rcrs` writes a real without an integer value as a quotient of two
    constants, `(/ 1.0 2.0)` for 1/2; the solver reads it as one constant."""

    def test_quotient_of_constants(self):
        s = """
        (declare-const x Real)(declare-const y Real)
        (assert (= y (+ x (/ 1.0 2.0))))
        (assert (< y x))
        (check-sat)
        """
        assert verdicts(s) == ["unsat"]
        assert verdicts("(declare-const y Real)(assert (< (- (/ 1.0 3.0)) y))(assert (< y 0.0))(check-sat)") == [
            "sat"
        ]

    @pytest.mark.parametrize("quotient", ["(/ 1.0 0.0)", "(/ x 2.0)", "(/ 2.0 x)", "(/ 1.0 2.0 3.0)"])
    def test_zero_divisor_or_variable_reads_unknown(self, quotient):
        s = f"(declare-const x Real)(declare-const y Real)(assert (= y {quotient}))(check-sat)"
        assert verdicts(s) == ["unknown"]

    def test_integer_bounds_round_inward(self):
        # no integer lies in [1/2, 1/2] or strictly between 1/3 and 2/3
        assert verdicts("(assert (exists ((x Int)) (= (to_real x) (/ 1.0 2.0))))(check-sat)") == ["unsat"]
        s = "(assert (exists ((x Int)) (and (< (/ 1.0 3.0) (to_real x)) (< (to_real x) (/ 2.0 3.0)))))(check-sat)"
        assert verdicts(s) == ["unsat"]
        s = "(assert (exists ((x Int)) (and (< (/ 1.0 3.0) (to_real x)) (< (to_real x) (/ 5.0 3.0)))))(check-sat)"
        assert verdicts(s) == ["sat"]
        assert verdicts("(declare-const x Int)(assert (= (to_real x) 0.5))(check-sat)") == ["unsat"]

    def test_integer_between_real_bounds_reads_unknown(self):
        # for y = 0 no integer lies strictly between y and y + 1; the real
        # shadow y < y + 1 would say one always does
        s = """
        (declare-const y Real)
        (assert (= y 0.0))
        (assert (not (exists ((x Int)) (and (< y (to_real x)) (< (to_real x) (+ y 1.0))))))
        (check-sat)
        """
        assert verdicts(s) == ["unknown"]
        # one-sided bounds still eliminate: an integer lies above any real
        assert verdicts("(declare-const y Real)(assert (exists ((x Int)) (>= (to_real x) y)))(check-sat)") == ["sat"]


class TestIte:
    def test_ite_in_term(self):
        s = """
        (declare-const x Int)(declare-const b Bool)
        (assert (= x (ite b 1 2)))
        (assert (not b))
        (assert (= x 1))
        (check-sat)
        """
        assert verdicts(s) == ["unsat"]


class TestSubprocessContract:
    def test_reads_stdin_prints_first_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rcrs.dlsolver"],
            input=b"(assert true)(check-sat)",
            stdout=subprocess.PIPE,
        )
        assert proc.stdout.decode().splitlines()[0] == "sat"


class TestToReal:
    def test_cast_reads_as_its_argument(self):
        s = """
        (declare-const x Int)
        (assert (< (to_real x) (to_real x)))
        (check-sat)
        """
        assert verdicts(s) == ["unsat"]

    def test_cast_does_not_make_mixed_sorts_decided(self):
        s = """
        (declare-const x Int)(declare-const r Real)
        (assert (<= (- (to_real x) r) 0))
        (check-sat)
        """
        assert verdicts(s) == ["unknown"]


class TestFailures:
    SCRIPT = "(declare-const x Int)(assert (< x 0))(check-sat)"

    def test_rejected_input_reads_unknown(self, monkeypatch):
        def reject(self):
            raise ValueError("outside the fragment")

        monkeypatch.setattr(dlsolver.Solver, "check", reject)
        assert run(self.SCRIPT) == ["unknown"]

    def test_defect_propagates(self, monkeypatch):
        def defect(self):
            raise KeyError("a bug, not an answer")

        monkeypatch.setattr(dlsolver.Solver, "check", defect)
        with pytest.raises(KeyError):
            run(self.SCRIPT)

    def test_loads_only_the_solver(self):
        # a solver spawn imports no other module of the package
        code = "import sys, rcrs.dlsolver; print(sorted(m for m in sys.modules if m.startswith('rcrs')))"
        proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, check=True)
        assert proc.stdout.decode().strip() == "['rcrs', 'rcrs.dlsolver']"


class TestStreaming:
    """Each `(check-sat)` is answered as soon as it is read; `(reset)` starts
    a fresh context."""

    # several goals without `(reset)`, split across lines anyhow
    SCRIPT = (
        "(declare-const x Int)(assert (< x 3))(check-sat)\n"
        "(assert (> x 5)) ; a comment with (check-sat)\n"
        "(check-sat)(declare-const |odd (name)| Int)\n(assert (< |odd (name)| x))\n(check-sat"
        ")\n(assert (forall ((y Int)) (not (= y 0))))(check-sat)"
    )

    def test_answers_while_stdin_is_open(self):
        import select

        goals = (("(assert true)\n(check-sat)\n", b"sat\n"), ("(reset)(assert false)(check-sat)", b"unsat\n"))
        with subprocess.Popen(
            [sys.executable, "-m", "rcrs.dlsolver"], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        ) as proc:
            try:
                for goal, want in goals:
                    proc.stdin.write(goal.encode())
                    proc.stdin.flush()
                    assert select.select([proc.stdout], [], [], 10)[0], "no answer while stdin is open"
                    assert proc.stdout.readline() == want
            finally:
                proc.kill()

    def test_stream_without_reset_answers_as_run(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rcrs.dlsolver"], input=self.SCRIPT.encode(), stdout=subprocess.PIPE, check=True
        )
        assert run(self.SCRIPT) == ["sat", "unsat", "unsat", "unsat"]
        assert proc.stdout.decode().splitlines() == run(self.SCRIPT)

    def test_commands_split_at_every_chunk_boundary(self):
        whole = list(dlsolver.commands([self.SCRIPT]))
        # ten commands, then the empty rest
        assert "".join(whole) == self.SCRIPT and len(whole) == 11 and whole[-1] == ""
        for cut in range(len(self.SCRIPT)):
            assert list(dlsolver.commands([self.SCRIPT[:cut], self.SCRIPT[cut:]])) == whole

    def test_each_goal_goes_through_run(self, monkeypatch, capsys):
        import io

        goals = []
        solve = dlsolver.run
        monkeypatch.setattr(dlsolver, "run", lambda script: goals.append(script) or solve(script))
        stream = "(assert false)(check-sat)(reset)(check-sat)(reset)(assert false)"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stream.encode())))
        assert dlsolver.main() == 0
        assert capsys.readouterr().out == "unsat\nsat\n"
        assert goals == ["(assert false)(check-sat)", "(check-sat)"]

    def test_no_check_sat_reads_unknown(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rcrs.dlsolver"], input=b"(assert true)", stdout=subprocess.PIPE, check=True
        )
        assert proc.stdout == b"unknown\n"


class TestMalformedScripts:
    """A script that the bundled solver cannot read answers `unknown`, with
    no traceback."""

    @pytest.mark.parametrize("text", ["(assert true", "(assert true))", ")"])
    def test_reader_rejects_unbalanced_parentheses(self, text):
        with pytest.raises(ValueError):
            dlsolver.read_sexprs(text)

    def test_run_reads_the_script_inside_its_try(self):
        assert run("(assert true") == ["unknown"]
        assert run("(assert |x)(check-sat)") == ["unknown"]

    def test_wrong_arity_reads_unknown(self):
        assert run("(declare-const x)(check-sat)") == ["unknown"]
        assert run("(assert true)(check-sat)(assert)(check-sat)") == ["sat", "unknown"]

    @pytest.mark.parametrize(
        "stream, want",
        [
            ("(assert true))(check-sat)", "unknown\n"),
            ("(assert true)\n(check-sat)\n(assert (", "sat\n"),
            ("(assert true))(check-sat)(reset)(assert false)(check-sat)", "unknown\nunsat\n"),
        ],
    )
    def test_stream_keeps_a_rejected_command_as_context(self, monkeypatch, capsys, stream, want):
        import io

        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stream.encode())))
        assert dlsolver.main() == 0
        assert capsys.readouterr() == (want, "")

    # a command name, a declared constant or a sort name that is a list
    NAME_LISTS = [
        "(declare-const (x) Int)(check-sat)",
        "(declare-datatypes ((())) (()))(check-sat)",
        "(declare-datatypes (()) (()))(check-sat)",
        "(declare-datatypes ((E 0)) ((((a)))))(check-sat)",
        "(declare-datatypes E ((a)))(check-sat)",
        "((x))(check-sat)",
        "(assert (forall (((x) Int)) true))(check-sat)",
    ]

    @pytest.mark.parametrize("script", NAME_LISTS)
    def test_a_name_that_is_not_a_symbol_reads_unknown(self, script):
        assert run(script) == ["unknown"]

    @pytest.mark.parametrize("script", NAME_LISTS[:2])
    def test_stream_with_a_name_that_is_not_a_symbol(self, monkeypatch, capsys, script):
        import io

        stream = script + "(reset)(assert true)(check-sat)"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stream.encode())))
        assert dlsolver.main() == 0
        assert capsys.readouterr() == ("unknown\nsat\n", "")

    def test_unbalanced_script_through_the_executable(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rcrs.dlsolver"],
            input=b"(assert true))(check-sat)",
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"unknown\n", b"")


class TestFiniteSorts:
    """`Bool` is a finite sort like an enumeration: equality of formulas is
    an iff, and every form `rcrs` never emits reads `unknown`."""

    def test_iff_of_formulas(self):
        s = """
        (declare-const x Int)(declare-const y Bool)
        (assert (not (= (= (= y true) (< x 3)) (= (= y true) (<= x 2)))))
        (check-sat)
        """
        assert verdicts(s) == ["unsat"]
        assert verdicts("(declare-const x Int)(assert (= (< x 3) (> x 5)))(check-sat)") == ["sat"]
        assert verdicts("(declare-const x Int)(assert (= (< x 3) (>= x 3)))(check-sat)") == ["unsat"]

    def test_ite_under_a_quantifier_stays_under_it(self):
        # the formula side is read whole: its ite is not lifted out of the
        # forall, where z would name the free constant
        s = """
        (declare-const z Int)(declare-const y Bool)
        (assert (= y (forall ((z Int)) (< 0 (ite (< z 0) 1 (- 1))))))
        (assert y)(assert (< z 0))
        (check-sat)
        """
        assert verdicts(s) == ["unsat"]

    def test_bool_and_enum_constants(self):
        s = TestEnums.SCRIPT + "(declare-const b Bool)(assert (= b (= m busy)))(assert (= m idle))(assert b)(check-sat)"
        assert verdicts(s) == ["unsat"]
        assert verdicts("(declare-const b Bool)(assert (not (= b false)))(assert (not b))(check-sat)") == ["unsat"]

    @pytest.mark.parametrize(
        "form",
        [
            "(let ((z x)) (< z 0))",
            "(distinct x 0)",
            "(ite (< x 0) (< x 1) (> x 1))",
            "(< y 0)",  # declared by declare-fun
        ],
    )
    def test_unemitted_forms_read_unknown(self, form):
        s = f"(declare-const x Int)(declare-fun y () Int)(assert {form})(check-sat)"
        assert verdicts(s) == ["unknown"]

    def test_unclosed_quoted_symbol_is_rejected(self):
        with pytest.raises(ValueError):
            dlsolver.tokenize("(assert |open")


class TestDnfCap:
    def test_cap_is_checked_before_the_product_is_built(self):
        import tracemalloc

        def side(tag):
            ors = " ".join(f"(or (< {tag}{i} 0) (> {tag}{i} 5))" for i in range(10))
            return f"(or (and {ors}) (< {tag} 0))"

        names = [f"{t}{i}" for t in "ab" for i in range(10)] + ["a", "b"]
        decls = "".join(f"(declare-const {n} Int)" for n in names)
        script = f"{decls}(assert (and {side('a')} {side('b')}))(check-sat)"
        tracemalloc.start()
        try:
            assert verdicts(script) == ["unknown"]  # 1025 x 1025 conjunctions exceed the cap
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestAgainstFiniteEvaluation:
    """The solver on the emitted refinement condition of finite stateless
    tables agrees with exhaustive evaluation of the same goal."""

    def test_refinement_tables(self):
        import random

        from rcrs.analysis import check_fo_validity, emit_smtlib, refine_vc
        from rcrs.corpus import refinement_table_pair
        from rcrs.types import BOOL, EnumType, IntRange, Var

        types = (BOOL, EnumType("Mode", ("idle", "busy", "done")), IntRange(0, 2))
        answers = {"valid": 0, "invalid": 0}
        for seed in range(200):
            rng = random.Random(seed)
            x, y = Var("x", types[seed % 3]), Var("y", types[seed // 3 % 3])
            abstract, concrete = refinement_table_pair(rng, [x], [y])
            for a, b in ((abstract, concrete), (concrete, abstract)):
                (vc,) = refine_vc(a, b)
                valid = check_fo_validity(vc.goal).valid
                assert run(emit_smtlib(vc)) == ["unsat" if valid else "sat"], (seed, a, b)
                answers["valid" if valid else "invalid"] += 1
        assert min(answers.values()) > 50
