"""The bounded finite-domain oracle: relations, execution, equivalence,
refinement refutation, temporal evaluation on lassos and prefixes."""

import gc
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from rcrs import oracle
from rcrs.components import Atomic, Det, Fdbk, Parallel, Serial, Signature, Stateless, Sts, sig, sigma_in, sigma_out
from rcrs.compose import atomic
from rcrs.corpus import random_det_composite, random_sts_atom
from rcrs.errors import (
    DomainNotFinite,
    ExplosionGuard,
    NonTemporalMisuse,
    NotDeterministic,
    NotLoopFree,
    SignatureMismatch,
    WfError,
)
from rcrs.formulas import (
    And,
    Exists,
    FALSEC,
    Finally,
    Forall,
    Globally,
    Iff,
    Implies,
    Leads,
    Not,
    Or,
    TRUEC,
    Until,
    atom,
    eq,
)
from rcrs.oracle import (
    POISON,
    Expansion,
    FiniteDomain,
    IllegalAt,
    LassoWord,
    QltlVerdict,
    all_lassos,
    behavior,
    bounded_hoare,
    bounded_refute_refinement,
    bounded_rel,
    bounded_equiv,
    eval_formula_step,
    eval_prefix3,
    eval_qltl,
    exec_det,
    lasso_count,
    legal_lasso,
    parse_domain_file,
)
from rcrs.terms import FALSE, App, NextRef, PrimedRef, TRUE, VarRef, add, intc, ite, var
from rcrs.types import BOOL, INT, IntRange, Var
from rcrs.verdicts import Refuted, Unknown


class TestFiniteDomain:
    def test_builtin_domains(self):
        d = FiniteDomain()
        assert d.values(BOOL) == (False, True)
        assert d.values(IntRange(-1, 1)) == (-1, 0, 1)
        with pytest.raises(DomainNotFinite):
            d.values(INT)

    def test_override_file(self):
        d = parse_domain_file("# comment\ndomain int = {-2, -1, 0, 1, 2}\ndomain real = {0.5, 1}\n")
        assert d.values(INT) == (-2, -1, 0, 1, 2)

    @pytest.mark.parametrize(
        "text",
        ["domain int = {a, b}", "domain int = {0, true}", "domain int = {1.5}", "domain real = {x}",
         "domain bool = {0, 1}"],
    )
    def test_override_file_rejects_values_of_another_type(self, text):
        with pytest.raises(DomainNotFinite):
            parse_domain_file(text)

    def test_real_domain_divides_as_reals(self):
        # written as integers or not, a real domain's values are Fractions,
        # so 1 / 2 is 1/2 and not Euclidean division
        from rcrs.components import StatelessDet
        from rcrs.terms import div
        from rcrs.types import REAL

        d = parse_domain_file("domain real = {1, 2}")
        assert d.values(REAL) == (1, 2) and all(type(v) is Fraction for v in d.values(REAL))
        x, y = var("x", REAL), var("y", REAL)
        c = Atomic(StatelessDet(sig(("x", REAL), ("y", REAL)), TRUEC, (div(x, y),)))
        one, two = d.values(REAL)
        assert exec_det(c, ((one, two),), d) == ((Fraction(1, 2),),)
        assert behavior(c, d, 1).outputs(((one, two),)) == {((Fraction(1, 2),),)}
        assert behavior(c, d, 1).pouts == behavior(c, parse_domain_file("domain real = {1.0, 2.0}"), 1).pouts

    def test_explosion_guard(self):
        d = FiniteDomain({"int": tuple(range(100))}, cap=1000)
        with pytest.raises(ExplosionGuard):
            list(d.traces(sig(("x", INT), ("y", INT)), 4))


class TestBoundedRel:
    def test_unit_delay_relation(self, unit_delay):
        dom = FiniteDomain({"int": (0, 1)})
        pairs, illegal = bounded_rel(Atomic(unit_delay), dom, 2)
        assert illegal == set()
        assert (((1,), (0,)), ((0,), (1,))) in pairs

    def test_sum_as_sts_golden(self):
        x, y, s = var("x", INT), var("y", INT), var("s", INT)
        sum_sts = Sts(
            sig(("x", INT)), sig(("y", INT)), sig(("s", INT)),
            eq(s, intc(0)),
            And(eq(y, s), eq(PrimedRef(Var("s", INT)), add(s, x))),
        )
        # the state needs headroom for the last transition: s(4) = 4
        dom = FiniteDomain({"int": (0, 1, 2, 3, 4)})
        pairs, illegal = bounded_rel(Atomic(sum_sts), dom, 4)
        ones = tuple(((1,),) * 4)
        outs = [o for (i, o) in pairs if i == ones]
        assert outs == [((0,), (1,), (2,), (3,))]

    def test_false_contract_all_illegal(self):
        c = Stateless(sig(("x", IntRange(0, 1))), sig(("y", IntRange(0, 1))), FALSEC)
        pairs, illegal = bounded_rel(Atomic(c), FiniteDomain(), 2)
        assert pairs == set()
        assert illegal == {((0,),), ((1,),)}

    @pytest.mark.parametrize("seed", (0, 3, 4, 7))
    def test_composite_relation_is_its_atomic_form(self, seed):
        c = random_det_composite(random.Random(seed), 6, 2)
        assert not isinstance(c, Atomic)
        dom = FiniteDomain({"int": (0, 1)})
        assert bounded_rel(c, dom, 2) == bounded_rel(Atomic(atomic(c)), dom, 2)


class TestExecDet:
    def test_sum_golden(self, sum_component):
        assert exec_det(sum_component, ((1,), (1,), (1,), (1,))) == ((0,), (1,), (2,), (3,))

    def test_unit_delay_golden(self, unit_delay):
        assert exec_det(Atomic(unit_delay), ((5,), (7,), (9,))) == ((0,), (5,), (7,))

    def test_identity(self):
        from rcrs.components import StatelessDet

        ident = StatelessDet(sig(("x", INT)), TRUEC, (var("x", INT),))
        trace = ((4,), (-1,), (0,))
        assert exec_det(Atomic(ident), trace) == trace

    def test_illegal_at_step(self):
        from rcrs.components import StatelessDet
        from rcrs.terms import App

        x, y = var("x", INT), var("y", INT)
        div = StatelessDet(
            sig(("x", INT), ("y", INT)), atom("!=", y, intc(0)), (App("/", (x, y)),)
        )
        assert exec_det(Atomic(div), ((4, 2), (6, 3), (1, 0))) == IllegalAt(2)

    def test_requires_determinism(self):
        s = Stateless(sig(("x", INT)), sig(("y", INT)), TRUEC)
        with pytest.raises(NotDeterministic):
            exec_det(Atomic(s), ((0,),))

    def test_requires_loop_freeness(self):
        from rcrs.components import StatelessDet

        passthrough = StatelessDet(
            sig(("a", INT), ("b", INT)), TRUEC, (var("a", INT), var("b", INT))
        )
        with pytest.raises(NotLoopFree):
            exec_det(Fdbk(Atomic(passthrough)), ((0,),))

    def test_feedback_behavior_quantifies_over_the_domain(self):
        # the legality predicate of the atom under feedback has a quantifier
        from rcrs.components import StatelessDet

        z = Var("z", INT)
        child = StatelessDet(
            sig(("u", INT), ("x", INT)),
            Exists(z, eq(VarRef(z), var("x", INT))),
            (var("x", INT), var("x", INT)),
        )
        beh = behavior(Fdbk(Atomic(child)), FiniteDomain({"int": (0, 1)}), 1)
        assert beh.pouts == {((0,),): {((0,),)}, ((1,),): {((1,),)}}
        assert not beh.dead

    def test_nested_feedback(self):
        """Feedback inside feedback: the outer loop value flows through the
        inner probe pass without being consumed."""
        from rcrs.components import StatelessDet

        # c(x1, x2) = (x2 + 1, 5): inner fdbk removes x1 (out1 = x2+1 ignores x1)
        c = StatelessDet(
            sig(("x1", INT), ("x2", INT)), TRUEC,
            (add(var("x2", INT), intc(1)), intc(5)),
        )
        inner = Fdbk(Atomic(c))  # one input (x2), one output (5)
        # pad to two slots so the outer feedback has one slot left over
        split = StatelessDet(sig(("v", INT)), TRUEC, (var("v", INT), var("v", INT)))
        outer = Fdbk(Serial(inner, Atomic(split)))
        assert exec_det(outer, ((),) * 2) == ((5,), (5,))


class TestIllFormedTerms:
    """Each bounded check raises the reason a term is not well-formed before
    it steps the term."""

    @staticmethod
    def _serial(*stages):
        from rcrs.components import StatelessDet

        split = StatelessDet(sig(("x", INT)), TRUEC, (var("x", INT), var("x", INT)))
        double = StatelessDet(sig(("u", INT)), TRUEC, (add(var("u", INT), var("u", INT)),))
        flag = StatelessDet(sig(("b", BOOL)), TRUEC, (var("b", BOOL),))
        atoms = {"split": split, "double": double, "flag": flag}
        left, right = (Atomic(atoms[name]) for name in stages)
        return Serial(left, right)

    CHECKS = {
        "exec_det": lambda c, dom: exec_det(c, ((True,),), dom),
        "explore": lambda c, dom: oracle.explore(c, dom, 2),
        "behavior": lambda c, dom: behavior(c, dom, 2),
        "legal_lasso": lambda c, dom: legal_lasso(c, dom, 2),
        "bounded_refute_refinement": lambda c, dom: bounded_refute_refinement(c, c, dom, 2),
        "bounded_equiv": lambda c, dom: bounded_equiv(c, c, dom, 2),
        "bounded_hoare": lambda c, dom: bounded_hoare(lambda t: True, c, lambda t: True, dom, 2),
    }

    @pytest.mark.parametrize("check", CHECKS)
    def test_bool_output_into_int_input(self, check):
        # the first stage's bool output feeds the second's int input
        mistyped = self._serial("flag", "double")
        with pytest.raises(WfError, match="^serial type mismatch at slot 1: bool vs int$"):
            self.CHECKS[check](mistyped, FiniteDomain({"int": (0, 1)}))

    def test_arity_mismatch(self):
        c = self._serial("split", "double")
        reason = "^serial arity mismatch: 2 outputs vs 1 inputs$"
        with pytest.raises(WfError, match=reason):
            exec_det(c, ((1,), (2,)))
        with pytest.raises(WfError, match=reason):
            exec_det(Fdbk(c), ((),))

    def test_feedback_over_no_input_slot(self):
        from rcrs.components import StatelessDet

        c = Fdbk(Atomic(StatelessDet(sig(), TRUEC, (intc(1),))))
        for check in (lambda: exec_det(c, ((),)), lambda: behavior(c, FiniteDomain(), 1)):
            with pytest.raises(WfError, match="^feedback child lacks an input or output slot$"):
                check()

    @pytest.mark.parametrize("check", ["bounded_equiv", "bounded_refute_refinement", "bounded_hoare"])
    def test_feedback_over_a_closed_loop(self, check):
        # the inner feedback takes the only slot on each side, so reading
        # the outer one's signature would raise EmptyFeedbackSignature
        from rcrs.components import StatelessDet

        c = Fdbk(Fdbk(Atomic(StatelessDet(sig(("x", INT)), TRUEC, (var("x", INT),)))))
        with pytest.raises(WfError, match="^feedback child lacks an input or output slot$"):
            self.CHECKS[check](c, FiniteDomain({"int": (0, 1)}))


class TestBoundedEquiv:
    def test_equivalent_sum(self, sum_component, small_int_domain):
        from rcrs.compose import atomic

        a = atomic(sum_component)
        assert bounded_equiv(Atomic(a), sum_component, small_int_domain, 4)

    def test_different_components(self, add_block, unit_delay):
        r = bounded_equiv(
            Atomic(add_block), Atomic(unit_delay), FiniteDomain({"int": (0, 1)}), 2
        )
        assert not r

    def test_counterexample_is_lexicographically_least(self):
        from rcrs.components import StatelessDet

        ident = StatelessDet(sig(("x", IntRange(0, 2))), TRUEC, (var("x", IntRange(0, 2)),))
        bumper = StatelessDet(
            sig(("x", IntRange(0, 2))), TRUEC, (add(var("x", IntRange(0, 2)), intc(0)),)
        )
        # make them differ on x >= 1 only
        differ = StatelessDet(
            sig(("x", IntRange(0, 2))), TRUEC,
            (add(var("x", IntRange(0, 2)), var("x", IntRange(0, 2))),),
        )
        r = bounded_equiv(Atomic(ident), Atomic(differ), FiniteDomain({"int": (0, 1, 2)}), 1)
        assert not r
        assert r.counterexample == ((1,),)

    def test_each_trace_starts_from_the_initial_state(self, unit_delay):
        # both output 0 on every one-step trace; carried over from the trace
        # (1,), the delay's state would output 1 on the next one
        zero = Det(
            sig(("x", INT)), sig(("s", INT)), (intc(0),), TRUEC, (var("x", INT),), (intc(0),)
        )
        dom = FiniteDomain({"int": (1, 0)})
        assert bounded_equiv(Atomic(unit_delay), Atomic(zero), dom, 1)
        r = bounded_equiv(Atomic(unit_delay), Atomic(zero), dom, 2)
        assert not r and r.counterexample == ((1,), (1,))


class TestRefuteRefinement:
    def test_reversed_worked_example(self):
        a = Stateless(
            sig(("x", INT)), sig(("y", INT)),
            And(atom("<=", var("x", INT), var("y", INT)), atom("<=", var("y", INT), add(var("x", INT), intc(10)))),
        )
        b = Stateless(
            sig(("x", INT)), sig(("y", INT)),
            And(atom(">=", var("x", INT), intc(0)), atom(">=", var("y", INT), var("x", INT))),
        )
        dom = FiniteDomain({"int": tuple(range(-2, 13))})
        res = bounded_refute_refinement(Atomic(a), Atomic(b), dom, 1)
        assert isinstance(res, Refuted)
        assert res.witness.steps[0][0] < 0  # a negative input separates them
        # and x = -1 is indeed a witness: legal left, illegal right
        assert res.witness.step == 0

    def test_reflexive_unknown(self, add_block):
        res = bounded_refute_refinement(
            Atomic(add_block), Atomic(add_block), FiniteDomain({"int": (0, 1)}), 2
        )
        assert isinstance(res, Unknown)

    def test_output_witness(self):
        ty = IntRange(0, 1)
        ne = Stateless(sig(("x", ty)), sig(("y", ty)), atom("!=", var("x", ty), var("y", ty)))
        anything = Stateless(sig(("x", ty)), sig(("y", ty)), TRUEC)
        res = bounded_refute_refinement(Atomic(ne), Atomic(anything), FiniteDomain(), 1)
        assert isinstance(res, Refuted)
        assert res.witness.outputs is not None

    def test_signatures_that_differ_raise(self):
        # b takes no input 2, which a does: no bounded answer compares them
        from rcrs.syntax import parse_component

        a = parse_component("stateless((x:int[0..2]), (y:int[0..2]), y = x)")
        b = parse_component("stateless((x:int[0..1]), (y:int[0..2]), y = x)")
        c = parse_component("stateless((x:int[0..2]), (y:int[0..1]), y = x)")
        for abstract, concrete, side in ((a, b, "input"), (b, a, "input"), (a, c, "output")):
            with pytest.raises(SignatureMismatch, match=f"{side} signatures differ"):
                bounded_refute_refinement(abstract, concrete, FiniteDomain(), 1)


class TestEvalQltl:
    def test_gfx_true(self):
        xb = Var("x", BOOL)
        gfx = Globally(Finally(atom("=", var("x", BOOL), TRUE)))
        assert eval_qltl(gfx, {xb: LassoWord((), (True,))}).definite is True

    def test_gfx_false(self):
        xb = Var("x", BOOL)
        gfx = Globally(Finally(atom("=", var("x", BOOL), TRUE)))
        assert eval_qltl(gfx, {xb: LassoWord((True,), (False,))}).definite is False

    def test_request_response_quantified(self):
        xb, yb = Var("x", BOOL), Var("y", BOOL)
        req = Globally(Implies(atom("=", var("x", BOOL), TRUE), Finally(atom("=", var("y", BOOL), TRUE))))
        gfy = Globally(Finally(atom("=", var("y", BOOL), TRUE)))
        phi = Forall(yb, Implies(req, gfy))
        w = LassoWord((), (True, False))
        res = eval_qltl(phi, {xb: w}, Expansion(stem=2, loop=2))
        assert res.family is True

    def test_next_on_terms(self):
        xi = Var("x", IntRange(0, 3))
        f = Globally(eq(NextRef(var("x", IntRange(0, 3))), add(var("x", IntRange(0, 3)), intc(1))))
        inc = LassoWord((0, 1, 2), (3,))
        assert eval_qltl(f, {xi: inc}).definite is False  # 3 -> 3 breaks it
        assert eval_qltl(f, {xi: LassoWord((), (0, 1))}, Expansion(2, 2)).definite is False

    def test_explosion_guard(self):
        xb = Var("x", BOOL)
        yb = Var("y", BOOL)
        f = Forall(yb, Globally(Finally(atom("=", var("y", BOOL), TRUE))))
        with pytest.raises(ExplosionGuard):
            eval_qltl(f, {xb: LassoWord((), (True,))}, Expansion(3, 3, cap=5))

    def test_work_budget(self):
        xb = Var("x", BOOL)
        gfx = Globally(Finally(atom("=", var("x", BOOL), TRUE)))
        word = {xb: LassoWord((True, False), (False, True))}
        assert eval_qltl(gfx, word, Expansion(cap=1000)).definite is True
        with pytest.raises(ExplosionGuard, match="work budget"):
            eval_qltl(gfx, word, Expansion(cap=20))

    def test_family_guard_counts_distinct_words(self):
        # 16 distinct bool words up to stem 2 and loop 2, from 42 pairs
        xb, yb = Var("x", BOOL), Var("y", BOOL)
        f = Exists(yb, atom("=", var("y", BOOL), var("x", BOOL)))
        res = eval_qltl(f, {xb: LassoWord((), (True,))}, Expansion(2, 2, cap=20))
        assert res == QltlVerdict(True, True)

    def test_false_is_definitely_false(self):
        assert eval_qltl(FALSEC, {}) == QltlVerdict(False, False)
        assert eval_qltl(Globally(FALSEC), {}) == QltlVerdict(False, False)
        assert eval_qltl(Finally(TRUEC), {}) == QltlVerdict(True, True)


class TestEvaluatorEdgeRules:
    """Rules every route of the evaluator keeps: at one step, on prefixes and
    on lassos."""

    X = Var("x", BOOL)
    Y = Var("y", BOOL)
    x_true = atom("=", var("x", BOOL), TRUE)
    x_false = atom("=", var("x", BOOL), FALSE)
    # fails at one step: a next-step reference
    step_raises = eq(NextRef(var("x", BOOL)), TRUE)
    # fails on a prefix or a lasso: a primed reference
    temporal_raises = eq(PrimedRef(Var("x", BOOL)), TRUE)

    def test_decided_left_operand_skips_a_raising_right_one(self):
        env = {self.X: True}
        with pytest.raises(NonTemporalMisuse):
            eval_formula_step(self.step_raises, env)
        assert eval_formula_step(And(self.x_false, self.step_raises), env) is False
        assert eval_formula_step(Or(self.x_true, self.step_raises), env) is True
        assert eval_formula_step(Implies(self.x_false, self.step_raises), env) is True
        words = {self.X: LassoWord((), (True,))}
        with pytest.raises(NonTemporalMisuse):
            eval_qltl(self.temporal_raises, words)
        assert eval_qltl(And(self.x_false, self.temporal_raises), words) == QltlVerdict(False, False)
        assert eval_qltl(Or(self.x_true, self.temporal_raises), words) == QltlVerdict(True, True)
        assert eval_qltl(Implies(self.x_false, self.temporal_raises), words) == QltlVerdict(True, True)

    def test_ite_with_known_condition_takes_its_branch_over_poison(self):
        c, n, m = Var("c", BOOL), Var("n", INT), Var("m", INT)
        f = eq(ite(VarRef(c), VarRef(n), VarRef(m)), intc(1))
        assert eval_formula_step(f, {c: True, n: 1, m: POISON}) is True
        assert eval_formula_step(f, {c: False, n: 1, m: POISON}) is None
        assert eval_formula_step(f, {c: POISON, n: 1, m: 1}) is None
        # arithmetic over POISON is POISON, and an atom over it unknown
        assert eval_formula_step(eq(add(VarRef(m), intc(1)), intc(2)), {m: POISON}) is None

    def test_misuse_raises_only_when_reached(self):
        env = {self.X: True}
        for misuse in (self.step_raises, Globally(self.x_true), Finally(self.x_true)):
            with pytest.raises(NonTemporalMisuse):
                eval_formula_step(misuse, env)
            assert eval_formula_step(Or(self.x_true, misuse), env) is True
        # a quantifier reaches its body only for the candidates it tries
        assert eval_formula_step(Exists(self.Y, Or(self.x_true, self.step_raises)), env, None, FiniteDomain())
        with pytest.raises(NonTemporalMisuse, match="prefix evaluation"):
            eval_prefix3(self.temporal_raises, {self.X: (True,)}, FiniteDomain())
        assert eval_prefix3(Or(Finally(self.x_true), self.temporal_raises), {self.X: (True,)}, FiniteDomain())
        with pytest.raises(NonTemporalMisuse, match="temporal evaluation"):
            eval_qltl(Globally(self.temporal_raises), {self.X: LassoWord((), (True,))})

    @staticmethod
    def _budget(phi, words, stem, loop, budget):
        """The evaluation fits in `budget` formula-node visits and runs out
        of a budget one smaller, so it fails at the same node."""
        with pytest.raises(ExplosionGuard, match="work budget"):
            eval_qltl(phi, words, Expansion(stem, loop, cap=budget - 1))
        return eval_qltl(phi, words, Expansion(stem, loop, cap=budget))

    def test_shadowing_quantifier_scans_the_window_of_its_own_word(self):
        # the shadowed word's stem of 5 is out of scope under the quantifier:
        # G scans 5 positions of the candidate word, not 10
        words = {self.X: LassoWord((True,) * 5, (False,))}
        x, y = var("x", BOOL), var("y", BOOL)
        assert self._budget(Exists(self.X, Globally(eq(x, x))), words, 1, 1, 17) == QltlVerdict(True, True)
        assert self._budget(Exists(self.Y, Globally(eq(y, y))), words, 1, 1, 32) == QltlVerdict(True, True)

    def test_work_budget_runs_out_at_the_same_node(self):
        n_ty = IntRange(0, 2)
        x, y, n = var("x", BOOL), var("y", BOOL), var("n", n_ty)
        words = {self.X: LassoWord((True, False), (False, True, True)), Var("n", n_ty): LassoWord((0,), (1, 2))}
        cases = [
            (Globally(Implies(eq(x, TRUE), Finally(atom(">=", n, intc(2))))), 105, QltlVerdict(True, True)),
            (
                Forall(self.Y, Implies(Globally(Finally(eq(y, TRUE))), Iff(eq(y, x), Finally(eq(x, TRUE))))),
                205,
                QltlVerdict(False, False),
            ),
            (Until(eq(x, TRUE), atom(">=", n, intc(2))), 5, QltlVerdict(False, False)),
        ]
        for phi, budget, verdict in cases:
            assert self._budget(phi, words, 1, 2, budget) == verdict

    def test_poison_through_feedback(self):
        # the probe pass computes the looped-back first output (the state)
        # with POISON on the loop input, which reaches only the ite's untaken
        # branch and the other output
        a, c, s = var("a", INT), var("c", BOOL), var("s", INT)
        child = Det(
            sig(("a", INT), ("c", BOOL)), sig(("s", INT)), (intc(0),), TRUEC,
            (add(a, intc(1)),), (s, ite(c, intc(7), add(a, intc(1)))),
        )
        trace = ((True,), (False,), (False,), (True,))
        assert exec_det(Fdbk(Atomic(child)), trace) == ((7,), (2,), (3,), (7,))


def _reference_lassos(values, max_stem, max_loop):
    """The earlier all_lassos: every (stem, loop) pair, normalized (primitive
    period, minimal stem) and kept when its normal form is new."""

    def normalize(stem, loop):
        for d in range(1, len(loop)):
            if len(loop) % d == 0 and loop == loop[:d] * (len(loop) // d):
                loop = loop[:d]
                break
        stem, loop = list(stem), list(loop)
        while stem and stem[-1] == loop[-1]:
            stem.pop()
            loop = [loop[-1]] + loop[:-1]
        return tuple(stem), tuple(loop)

    seen, out = set(), []
    for ls in range(max_stem + 1):
        for ll in range(1, max_loop + 1):
            for stem in itertools.product(values, repeat=ls):
                for loop in itertools.product(values, repeat=ll):
                    key = normalize(stem, loop)
                    if key not in seen:
                        seen.add(key)
                        out.append(LassoWord(stem, loop))
    return out


LASSO_POOLS = [
    (False, True),
    (0, 1, 2),
    ("idle", "heat", "hold", "cool"),
    (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)),
    (1, 2, 1, Fraction(2), 3),
    (7,),
]
LASSO_GRID = [
    (pool, s, l) for pool in LASSO_POOLS for s in range(4) for l in range(1, 5)
]


class TestAllLassos:
    @pytest.mark.parametrize("pool,max_stem,max_loop", LASSO_GRID)
    def test_same_list_as_reference(self, pool, max_stem, max_loop):
        got = all_lassos(pool, max_stem, max_loop)
        want = _reference_lassos(pool, max_stem, max_loop)
        assert got == want
        # equal pool entries of different types: the first occurrence is kept
        assert [[type(x) for x in w.stem + w.loop] for w in got] == [
            [type(x) for x in w.stem + w.loop] for w in want
        ]

    @pytest.mark.parametrize("pool,max_stem,max_loop", LASSO_GRID)
    def test_count_in_closed_form(self, pool, max_stem, max_loop):
        assert lasso_count(len(set(pool)), max_stem, max_loop) == len(
            all_lassos(pool, max_stem, max_loop)
        )


class TestEvalPrefix:
    def test_globally_refuted_by_prefix(self):
        x = Var("x", BOOL)
        f = Globally(atom("=", var("x", BOOL), TRUE))
        assert eval_prefix3(f, {x: (True, False)}, FiniteDomain()) is False
        assert eval_prefix3(f, {x: (True, True)}, FiniteDomain()) is None

    def test_finally_proved_by_prefix(self):
        x = Var("x", BOOL)
        f = Finally(atom("=", var("x", BOOL), TRUE))
        assert eval_prefix3(f, {x: (False, True)}, FiniteDomain()) is True
        assert eval_prefix3(f, {x: (False, False)}, FiniteDomain()) is None

    def test_quantified_prefix(self):
        x, y = Var("x", BOOL), Var("y", BOOL)
        f = Forall(y, Globally(atom("=", var("y", BOOL), var("x", BOOL))))
        assert eval_prefix3(f, {x: (True, True)}, FiniteDomain()) is False

    def test_decided_left_operand_skips_the_right(self):
        # the quantifier would expand 2**2 sequences, over the cap of 3
        x, y = Var("x", BOOL), Var("y", BOOL)
        dom = FiniteDomain(cap=3)
        over = Forall(y, atom("=", var("y", BOOL), var("x", BOOL)))
        x_true = atom("=", var("x", BOOL), TRUE)
        words = {x: (False, True)}
        with pytest.raises(ExplosionGuard):
            eval_prefix3(over, words, dom)
        assert eval_prefix3(And(x_true, over), words, dom) is False
        assert eval_prefix3(Or(Finally(x_true), over), words, dom) is True
        assert eval_prefix3(Implies(x_true, over), words, dom) is True

    def test_ite_with_known_condition(self):
        # the untaken branch reads past the prefix
        x, c = Var("x", INT), Var("c", BOOL)
        f = eq(ite(var("c", BOOL), var("x", INT), NextRef(var("x", INT))), intc(1))
        assert eval_prefix3(f, {x: (1,), c: (True,)}, FiniteDomain()) is True
        assert eval_prefix3(f, {x: (1,), c: (False,)}, FiniteDomain()) is None


class TestBoundedHoare:
    def test_sum_nondecreasing(self, sum_component):
        dom = FiniteDomain({"int": (0, 1, 2)})
        pre = lambda t: all(step[0] >= 0 for step in t)
        post = lambda o: all(o[i][0] <= o[i + 1][0] for i in range(len(o) - 1))
        res = bounded_hoare(pre, sum_component, post, dom, 4)
        assert isinstance(res, Unknown)

    def test_div_refuted(self):
        from rcrs.components import StatelessDet
        from rcrs.terms import App

        x, y = var("x", INT), var("y", INT)
        div = StatelessDet(
            sig(("x", INT), ("y", INT)), atom("!=", y, intc(0)), (App("/", (x, y)),)
        )
        dom = FiniteDomain({"int": (0, 1)})
        res = bounded_hoare(lambda t: True, Atomic(div), lambda o: True, dom, 1)
        assert isinstance(res, Refuted)

    def test_vacuous_precondition(self, add_block):
        dom = FiniteDomain({"int": (0, 1)})
        res = bounded_hoare(lambda t: False, Atomic(add_block), lambda o: False, dom, 2)
        assert isinstance(res, Unknown)


class TestFeedbackSoundnessChecks:
    class _Child:
        """Stand-in evaluator returning a scripted first output per pass."""

        def __init__(self, firsts):
            self.firsts = list(firsts)

        def successors(self, config, x, commit):
            return [(config, (self.firsts.pop(0), 0))]

    @pytest.mark.parametrize("firsts", [("poison", 1), (1, 2)])
    def test_committing_pass_checks_raise(self, firsts):
        from rcrs.errors import SoundnessError
        from rcrs.oracle import POISON, _FdbkEval

        child = self._Child(POISON if f == "poison" else f for f in firsts)
        with pytest.raises(SoundnessError):
            _FdbkEval(child).successors(None, (), commit=True)

    class _Chain:
        """Stand-in child of a two-loop chain: scripted looped outputs per pass."""

        def __init__(self, looped):
            self.looped = list(looped)

        def successors(self, config, x, commit):
            return [(config, (*self.looped.pop(0), 0))]

    @pytest.mark.parametrize(
        "looped",
        [
            # the first probe settles one value, the second none: poison is left
            (("poison", 1), ("poison", 1)),
            # two probes settle both values, and the committing pass disagrees
            (("poison", 2), (1, 2), (1, 3)),
        ],
    )
    def test_two_loop_chain_checks_raise(self, looped):
        from rcrs.errors import SoundnessError
        from rcrs.oracle import POISON, _FdbkEval

        child = self._Chain(tuple(POISON if v == "poison" else v for v in vs) for vs in looped)
        with pytest.raises(SoundnessError):
            _FdbkEval(child, loops=2).successors(None, (), commit=True)
        assert not child.looped


def _delay_ring(k: int) -> dict:
    """k Add blocks, each fed back through its own UnitDelay and chained to
    the next; the external input enters the first.  Its output at step t is
    the binomial coefficient C(k + t, t)."""
    blocks, wires = [], []
    for i in range(k):
        add, delay = f"a{i:03}", f"d{i:03}"
        blocks += [{"id": add, "kind": "Add", "params": {"ty": "int"}},
                   {"id": delay, "kind": "UnitDelay", "params": {"ty": "int", "init": 0}}]
        wires += [{"src": [add, 0], "dst": [delay, 0]}, {"src": [delay, 0], "dst": [add, 0]}]
        if i:
            wires.append({"src": [f"a{i - 1:03}", 0], "dst": [add, 1]})
    return {"blocks": blocks, "wires": wires, "inputs": [["a000", 1]], "outputs": [[f"a{k - 1:03}", 0]]}


class TestFeedbackChain:
    """A chain of k nested feedbacks steps its innermost term at most k + 1
    times to probe and once to commit, not 2^k times."""

    class _Counting:
        def __init__(self, inner, limit):
            self.inner, self.limit, self.passes = inner, limit, []

        def successors(self, config, x, commit):
            self.passes.append(commit)
            if len(self.passes) > self.limit:
                pytest.fail(f"{len(self.passes)} passes in one step")
            return self.inner.successors(config, x, commit)

    @pytest.mark.parametrize("k", [16, 64])
    def test_ring_steps_each_loop_once(self, k):
        from math import comb

        from rcrs.diagrams import load_diagram, translate

        term = translate(load_diagram(json.dumps(_delay_ring(k))))
        node = chain = oracle._stepper(term, FiniteDomain())
        while isinstance(chain.child, oracle._FdbkEval):
            chain = chain.child
        (config,) = node.init
        chain.child = counting = self._Counting(chain.child, k + 2)
        for t in range(4):
            counting.passes = []
            ((config, y),) = node.successors(config, (1,))
            assert y == (comb(k + t, t),)
            # each looped value is a delay's input, definite on the first probe
            assert counting.passes == [False, True]


STAGED_RCRS = """
component Inc = stateless_det((x:int), true, (x + 1))
component Id = stateless_det((x:int), true, (x))
component Dec = stateless((x:int), (y:int), y + 1 = x)
component Delay = det((x:int), (s:int), (0), true, (x), (s))
component Spec = Inc ; Delay
component Impl = det((x:int), (s:int, t:int), (0, 0), true, (x + 1, t), (s))
"""


class TestComputedIntermediates:
    """A serial stage sees the values the stage before it computed, those
    outside the domain too: the domain bounds inputs and choices only."""

    @pytest.fixture
    def staged(self):
        from rcrs.syntax import parse_rcrs

        return parse_rcrs(STAGED_RCRS)[0], parse_domain_file("domain int = {0, 1}")

    def test_every_trace_keeps_its_run(self, staged):
        b, dom = staged
        beh = behavior(b["Spec"], dom, 4)
        for trace in dom.traces(beh.in_sig, 4):
            assert beh.first_illegal(trace) is None
            assert beh.outputs(trace) == {exec_det(b["Spec"], trace)}

    def test_equal_runs_are_not_refuted(self, staged):
        b, dom = staged
        assert isinstance(bounded_refute_refinement(b["Spec"], b["Impl"], dom, 4), Unknown)
        assert isinstance(bounded_refute_refinement(b["Impl"], b["Spec"], dom, 4), Unknown)

    def test_nondeterministic_stage_takes_a_computed_input(self, staged):
        # Inc computes 2 on the input 1; Dec maps it back into the domain
        b, dom = staged
        assert bounded_equiv(Serial(b["Inc"], b["Dec"]), b["Id"], dom, 3)


def _slice_first_illegal(dead, trace):
    """`Behavior.first_illegal` as a loop over the trace's prefixes."""
    return next((k for k in range(len(trace)) if trace[: k + 1] in dead), None)


def _reference_walk(c, dom, horizon):
    """pouts and dead of `behavior`, each input prefix run from the start."""
    node = oracle._stepper(c, dom)
    pouts, dead = {}, set()
    for n in range(1, horizon + 1):
        for px in dom.traces(sigma_in(c), n):
            runs = {(s, ()) for s in node.init}
            for x in px:
                steps = [(node.successors(s, x), ys) for s, ys in runs]
                runs = {(s2, ys + (y,)) for succ, ys in steps for s2, y in succ}
            if not all(succ for succ, _ in steps):
                dead.add(px)
            pouts[px] = frozenset(ys for _, ys in runs)
    return pouts, dead


def _walked_components():
    dom = FiniteDomain({"int": (0, 1)})
    for seed in range(50):
        yield random_det_composite(random.Random(seed)), dom
        yield Atomic(random_sts_atom(random.Random(seed))), dom


class TestSuccessorTable:
    """A bounded walk steps each (configuration, input) pair once, and answers
    as a walk that runs every input prefix from the start."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for cls in (oracle._DetAtom, oracle._StsAtom):

            def counting(node, config, x, commit=True, step=cls.successors):
                calls[config, x] += 1
                return step(node, config, x, commit)

            monkeypatch.setattr(cls, "successors", counting)
        return calls

    @staticmethod
    def hoare(c, dom, horizon):
        return bounded_hoare(lambda t: True, c, lambda o: True, dom, horizon)

    def test_each_pair_steps_once_per_walk(self, calls):
        dom = FiniteDomain({"int": (0, 1)})
        for seed in range(10):
            roots = (
                Atomic(atomic(random_det_composite(random.Random(seed)))),
                Atomic(random_sts_atom(random.Random(seed))),
            )
            for c, walk in itertools.product(roots, (behavior, legal_lasso, bounded_rel, self.hoare)):
                walk(c, dom, 4)
                assert calls and max(calls.values()) == 1, (seed, c, walk)
                calls.clear()

    def test_behavior_matches_the_reference_walk(self):
        for c, dom in _walked_components():
            for horizon in range(1, 5):
                beh = behavior(c, dom, horizon)
                pouts, dead = _reference_walk(c, dom, horizon)
                assert (beh.pouts, beh.dead) == (pouts, dead), (c, horizon)
                for n in range(horizon + 1):
                    for trace in dom.traces(beh.in_sig, n):
                        assert beh.first_illegal(trace) == _slice_first_illegal(dead, trace)

    def test_first_illegal_off_the_walk(self):
        # past the horizon, or through a value outside the domain, nothing
        # was walked: the answer is the slice loop's
        outside = 7
        for c, dom in _walked_components():
            beh = behavior(c, dom, 3)
            for trace in dom.traces(beh.in_sig, 3):
                width = len(trace[0])
                longer = trace + trace[:2]
                assert beh.first_illegal(longer) == _slice_first_illegal(beh.dead, longer)
                for i in range(len(trace)):
                    odd = trace[:i] + ((outside,) * width,) + trace[i + 1 :]
                    assert beh.first_illegal(odd) == _slice_first_illegal(beh.dead, odd)

    def test_disagreeing_feedback_passes_raise(self, monkeypatch):
        from rcrs.errors import SoundnessError

        class Disagreeing:
            """A child whose two passes give different first outputs."""

            init = [()]
            firsts = itertools.cycle((1, 2))

            def successors(self, config, x, commit):
                return [(config, (next(self.firsts), 0))]

        monkeypatch.setattr(oracle, "_stepper", lambda c, dom: oracle._FdbkEval(Disagreeing()))
        c = Atomic(Det(sig(("x", INT)), sig(), (), TRUEC, (), (var("x", INT),)))
        dom = FiniteDomain({"int": (0, 1)})
        for walk in (behavior, legal_lasso):
            with pytest.raises(SoundnessError):
                walk(c, dom, 2)

    def test_a_step_that_raised_is_not_kept(self, monkeypatch):
        # a step that raises leaves no graph: the next call steps it again
        from rcrs.errors import SoundnessError

        class Flaky:
            init = [()]
            calls = 0

            def successors(self, config, x, commit=True):
                self.calls += 1
                if self.calls == 1:
                    raise SoundnessError("first step")
                return [(config, x)]

        node = Flaky()
        monkeypatch.setattr(oracle, "_stepper", lambda c, dom: node)
        c = Atomic(Det(sig(("x", INT)), sig(), (), TRUEC, (), (var("x", INT),)))
        dom = FiniteDomain({"int": (0,)})
        with pytest.raises(SoundnessError):
            oracle.explore(c, dom, 1)
        assert oracle.explore(c, dom, 1) == ([()], [(0,)], {((), (0,)): [((), (0,))]})
        assert node.calls == 2


def _reference_equiv(c1, c2, dom, horizon, b1, b2):
    """bounded_equiv as a comparison of the two sides' `behavior` walks,
    trace by trace."""
    if sigma_in(c1).types() != sigma_in(c2).types() or sigma_out(c1).types() != sigma_out(c2).types():
        return oracle.EquivResult(False, None, "signature mismatch")
    for trace in dom.traces(sigma_in(c1), horizon):
        k1, k2 = b1.first_illegal(trace), b2.first_illegal(trace)
        if k1 != k2:
            return oracle.EquivResult(False, trace, f"illegal at {k1} vs {k2}")
        if k1 is None and b1.outputs(trace) != b2.outputs(trace):
            return oracle.EquivResult(False, trace, "output sets differ")
    return oracle.EquivResult(True)


def _reference_refute(abstract, dom, horizon, ba, bc):
    """bounded_refute_refinement as a comparison of the two sides' `behavior`
    walks, trace by trace."""
    from rcrs.verdicts import TraceWitness

    in_sig = sigma_in(abstract)
    for trace in dom.traces(in_sig, horizon):
        if ba.first_illegal(trace) is not None:
            continue
        kc = bc.first_illegal(trace)
        if kc is not None:
            note = "legal input rejected by the concrete component"
            return Refuted(TraceWitness(in_sig.names(), trace, step=kc, note=note), horizon=horizon)
        extra = bc.outputs(trace) - ba.outputs(trace)
        if extra:
            note = "concrete output outside the abstract relation"
            return Refuted(TraceWitness(in_sig.names(), trace, outputs=min(extra), note=note), horizon=horizon)
    return Unknown("no bounded counterexample up to the horizon")


def _mutant(c, top, horizon):
    """c beside a watcher of its inputs that rejects the last input of the
    trace that is `top` on every input at every step: the last trace in the
    order of `dom.traces` over 0..top, and the only one on which it can
    differ from c (for a horizon of at least 2)."""
    from rcrs.components import StatelessDet
    from rcrs.terms import div, mul, sub

    ins = [Var(f"x{i}", INT) for i in range(len(sigma_in(c)))]
    dup = StatelessDet(Signature(tuple(ins)), TRUEC, tuple(map(VarRef, ins)) * 2)
    # over 0..top with top 1 or 2, x * (x - (top - 1)) is top at x = top and
    # 0 elsewhere, so `hit` is 1 when every input is top and 0 otherwise
    e = intc(1)
    for x in ins:
        e = mul(e, mul(VarRef(x), sub(VarRef(x), intc(top - 1))))
    hit, s = div(e, intc(top ** len(ins))), var("s0", INT)
    watcher = Det(
        Signature(tuple(ins)), sig(("s0", INT)), (intc(0),),
        atom("!=", mul(s, hit), intc(horizon - 1)), (mul(add(s, intc(1)), hit),), (),
    )
    return Serial(Atomic(dup), Parallel(c, Atomic(watcher)))


class TestJointWalk:
    """bounded_equiv and bounded_refute_refinement walk both sides at once and
    answer as a trace-by-trace comparison of their `behavior` walks."""

    @staticmethod
    def assert_same(c1, c2, dom, horizon, walks=None):
        # walks: a cache of `behavior` walks shared by the calls on one corpus
        walks = {} if walks is None else walks
        for c in (c1, c2):
            if (c, horizon) not in walks:
                walks[c, horizon] = behavior(c, dom, horizon)
        b1, b2 = walks[c1, horizon], walks[c2, horizon]
        assert bounded_equiv(c1, c2, dom, horizon) == _reference_equiv(c1, c2, dom, horizon, b1, b2), (c1, c2, horizon)
        got, want = bounded_refute_refinement(c1, c2, dom, horizon), _reference_refute(c1, dom, horizon, b1, b2)
        assert repr(got) == repr(want), (c1, c2, horizon)

    def test_composites_and_mutants(self):
        for seed in range(100):
            c = random_det_composite(random.Random(seed))
            a = Atomic(atomic(c))
            for values in ((0, 1), (0, 1, 2)):
                dom, m, walks = FiniteDomain({"int": values}), _mutant(c, values[-1], 3), {}
                for c1, c2 in ((a, c), (a, m), (m, a)):
                    self.assert_same(c1, c2, dom, 3, walks)

    def test_the_mutant_differs_on_the_last_trace_only(self):
        c = random_det_composite(random.Random(3))
        dom = FiniteDomain({"int": (0, 1)})
        r = bounded_equiv(Atomic(atomic(c)), _mutant(c, 1, 3), dom, 3)
        assert not r and r.counterexample == ((1,) * len(sigma_in(c)),) * 3

    def test_nondeterministic_transition_systems(self):
        dom = FiniteDomain()
        for seed in range(300):
            s1 = Atomic(random_sts_atom(random.Random(seed)))
            s2 = Atomic(random_sts_atom(random.Random(seed + 1000)))
            walks: dict = {}
            for horizon in range(4):
                for c1, c2 in ((s1, s2), (s2, s1), (s1, s1)):
                    self.assert_same(c1, c2, dom, horizon, walks)

    def test_refinement_tables(self):
        from rcrs.corpus import refinement_table_pair

        for seed in range(60):
            ty = (IntRange(0, 1), IntRange(0, 2), BOOL)[seed % 3]
            a, b = refinement_table_pair(random.Random(seed), [Var("x", ty)], [Var("y", ty)])
            walks: dict = {}
            for horizon in (1, 2, 4):
                self.assert_same(Atomic(a), Atomic(b), FiniteDomain(), horizon, walks)
                self.assert_same(Atomic(b), Atomic(a), FiniteDomain(), horizon, walks)

    def test_input_signatures_that_differ(self):
        # refinement raises where the input or output types differ, as
        # refine_vc does, and equivalence answers "signature mismatch"
        from rcrs.corpus import refinement_table_pair

        comps = [Atomic(random_sts_atom(random.Random(0))), random_det_composite(random.Random(1))]
        for seed, ty in enumerate((IntRange(0, 2), BOOL, IntRange(1, 2))):
            comps.extend(map(Atomic, refinement_table_pair(random.Random(seed), [Var("x", ty)], [Var("y", ty)])))
        dom = FiniteDomain({"int": (0, 1)})
        walks: dict = {}
        for c1, c2 in itertools.product(comps, repeat=2):
            same = (sigma_in(c1).types(), sigma_out(c1).types()) == (sigma_in(c2).types(), sigma_out(c2).types())
            for horizon in (1, 2):
                if same:
                    self.assert_same(c1, c2, dom, horizon, walks)
                    continue
                assert bounded_equiv(c1, c2, dom, horizon) == oracle.EquivResult(False, None, "signature mismatch")
                with pytest.raises(SignatureMismatch):
                    bounded_refute_refinement(c1, c2, dom, horizon)

    def test_disagreeing_feedback_raises_from_both_checks(self, monkeypatch):
        from rcrs.errors import SoundnessError

        class Disagreeing:
            init = [()]
            firsts = itertools.cycle((1, 2))

            def successors(self, config, x, commit):
                return [(config, (next(self.firsts), 0))]

        monkeypatch.setattr(oracle, "_stepper", lambda c, dom: oracle._FdbkEval(Disagreeing()))
        c = Atomic(Det(sig(("x", INT)), sig(), (), TRUEC, (), (var("x", INT),)))
        dom = FiniteDomain({"int": (0, 1)})
        for check in (bounded_equiv, bounded_refute_refinement):
            with pytest.raises(SoundnessError):
                check(c, c, dom, 2)

    def test_a_step_that_raises_below_an_early_difference_still_raises(self, monkeypatch):
        from rcrs.errors import SoundnessError

        class Counting:
            """Outputs `out` at every step; its third step raises."""

            init = [0]

            def __init__(self, out):
                self.out = out

            def successors(self, n, x, commit=True):
                if n == 2:
                    raise SoundnessError("third step")
                return [(n + 1, (self.out,))]

        c1, c2 = (Atomic(Det(sig(("x", INT)), sig(), (), TRUEC, (), (intc(k),))) for k in (0, 1))
        monkeypatch.setattr(oracle, "_stepper", lambda c, dom: Counting(c.atom.out[0].value))
        dom = FiniteDomain({"int": (0, 1)})
        # the output sets differ on the first trace, and the walk goes on
        for check in (bounded_equiv, bounded_refute_refinement):
            with pytest.raises(SoundnessError):
                check(c1, c2, dom, 3)

    def test_each_pair_steps_once_per_side(self, monkeypatch):
        calls = Counter()
        for cls in (oracle._DetAtom, oracle._StsAtom):

            def counting(node, config, x, commit=True, step=cls.successors):
                calls[node, config, x] += 1
                return step(node, config, x, commit)

            monkeypatch.setattr(cls, "successors", counting)
        dom = FiniteDomain({"int": (0, 1)})
        for seed in range(10):
            # atomic forms: an atom nested in a composite steps once per
            # configuration of the composite that holds it
            c = random_det_composite(random.Random(seed))
            a, m = Atomic(atomic(c)), Atomic(atomic(_mutant(c, 1, 4)))
            s1, s2 = (Atomic(random_sts_atom(random.Random(seed + k))) for k in (0, 1))
            for c1, c2 in ((a, m), (s1, s2)):
                for check in (bounded_equiv, bounded_refute_refinement):
                    check(c1, c2, dom, 4)
                    assert calls and max(calls.values()) == 1, (seed, c1, c2, check)
                    calls.clear()

    def test_a_unit_input_component_at_a_long_horizon(self):
        # one trace at any horizon: the cap does not bound the walk's depth
        count = Atomic(Det(sig(), sig(("s", INT)), (intc(0),), TRUEC, (add(var("s", INT), intc(1)),), (var("s", INT),)))
        still = Atomic(Det(sig(), sig(("s", INT)), (intc(0),), TRUEC, (var("s", INT),), (var("s", INT),)))
        dom = FiniteDomain()
        assert bounded_equiv(count, count, dom, 5000)
        r = bounded_equiv(count, still, dom, 5000)
        assert not r and r.counterexample == ((),) * 5000 and r.detail == "output sets differ"
        assert isinstance(bounded_refute_refinement(count, count, dom, 5000), Unknown)
        res = bounded_refute_refinement(still, count, dom, 5000)
        assert isinstance(res, Refuted) and res.witness.outputs == tuple((k,) for k in range(5000))


class TestCompileLeavesNoGarbage:
    def test_no_reference_cycles(self):
        # compiling must leave nothing that only the cyclic collector frees
        x, y = Var("x", INT), Var("y", INT)
        X = VarRef(x)
        terms = (X, PrimedRef(x), NextRef(X), intc(2), App("neg", (X,)), add(X, intc(1)), ite(TRUE, X, intc(0)))
        a = atom("<", X, intc(1))
        body = atom("=", VarRef(y), X)
        formulas = [TRUEC, FALSEC, a, Not(a), And(a, a), Or(a, a), Implies(a, a), Iff(a, a),
                    Forall(y, body), Exists(y, body), Until(a, a), Leads(a, a), Globally(a), Finally(a)]
        formulas += [atom("=", t, X) for t in terms]
        gc.collect()
        gc.disable()
        try:
            for sem in (oracle._Step, oracle._Prefix, oracle._Lasso):
                for node in (*terms, *formulas):
                    oracle._compile(node, sem, (x,), (x,))
            assert gc.collect() == 0
        finally:
            gc.enable()
