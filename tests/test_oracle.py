"""The bounded finite-domain oracle: relations, execution, equivalence,
refinement refutation, temporal evaluation on lassos and prefixes."""

import itertools
from fractions import Fraction

import pytest

from rcrs.components import Atomic, Det, Fdbk, Parallel, Serial, Signature, Stateless, Sts, sig
from rcrs.errors import DomainNotFinite, ExplosionGuard, NotDeterministic, NotLoopFree
from rcrs.formulas import (
    And,
    Exists,
    FALSEC,
    Finally,
    Forall,
    Globally,
    Implies,
    Or,
    TRUEC,
    atom,
    eq,
)
from rcrs.oracle import (
    Expansion,
    FiniteDomain,
    IllegalAt,
    LassoWord,
    QltlVerdict,
    TraceAssignment,
    all_lassos,
    behavior,
    bounded_hoare,
    bounded_refute_refinement,
    bounded_rel,
    bounded_equiv,
    eval_prefix3,
    eval_qltl,
    exec_det,
    lasso_count,
    parse_domain_file,
)
from rcrs.terms import NextRef, PrimedRef, TRUE, VarRef, add, intc, ite, var
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


def test_trace_assignment_accessors():
    t = TraceAssignment(("x", "y"), ((1, 2), (3, 4)))
    assert t.horizon == 2
    assert t.slot("x") == (1, 3)
    assert t.slot("y") == (2, 4)


class TestFeedbackSoundnessChecks:
    class _Child:
        """Stand-in evaluator returning a scripted first output per pass."""

        def __init__(self, firsts):
            self.firsts = list(firsts)

        def get_state(self):
            return None

        def set_state(self, s):
            pass

        def step(self, inputs, commit):
            return [self.firsts.pop(0), 0]

    @pytest.mark.parametrize("firsts", [("poison", 1), (1, 2)])
    def test_committing_pass_checks_raise(self, firsts):
        from rcrs.errors import SoundnessError
        from rcrs.oracle import POISON, _FdbkEval

        child = self._Child(POISON if f == "poison" else f for f in firsts)
        with pytest.raises(SoundnessError):
            _FdbkEval(child).step((), commit=True)


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
