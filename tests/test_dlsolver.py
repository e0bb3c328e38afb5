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
