"""Formula manipulation: free variables, substitution, next-shifting, and the
rewrite-based simplifier."""

import random

import pytest

from rcrs.errors import PrimedInTemporal, TypeMismatch
from rcrs.formulas import (
    And,
    Atom,
    Exists,
    FalseC,
    Finally,
    Forall,
    Formula,
    Globally,
    Iff,
    Implies,
    Leads,
    Not,
    Or,
    TRUEC,
    FALSEC,
    TrueC,
    Until,
    apply_next,
    atom,
    children,
    conj,
    eq,
    free_vars,
    rebuild,
    simplify,
    substitute,
    uses_primed,
)
from rcrs.oracle import (
    Expansion,
    FiniteDomain,
    LassoWord,
    all_lassos,
    eval_formula_step,
    eval_qltl,
)
from rcrs.terms import (
    App,
    Const,
    NextRef,
    PrimedRef,
    TRUE,
    Term,
    VarRef,
    add,
    intc,
    var,
)
from rcrs.types import BOOL, INT, IntRange, Var

x, y, s, z = (Var(n, INT) for n in "xysz")
xb, yb = Var("x", BOOL), Var("y", BOOL)


class TestTraversal:
    def test_rebuild_inverts_children_for_every_node_class(self):
        a = atom("<", VarRef(x), add(VarRef(y), intc(1)))
        b = eq(PrimedRef(s), NextRef(VarRef(x)))
        samples = [
            VarRef(x), PrimedRef(s), NextRef(VarRef(x)), intc(3),
            App("ite", (TRUE, VarRef(x), intc(0))),
            TRUEC, FALSEC, a, Not(a), And(a, b), Or(a, b), Implies(a, b), Iff(a, b),
            Forall(y, a), Exists(y, a), Until(a, b), Leads(a, b), Globally(a), Finally(a),
        ]
        classes = {*Term.__subclasses__(), *Formula.__subclasses__()}
        assert {type(n) for n in samples} == classes
        for n in samples:
            assert rebuild(n, children(n)) == n
        # a reference is interned: rebuilding one gives back the object itself
        assert rebuild(VarRef(x), ()) is VarRef(x) and rebuild(PrimedRef(s), ()) is PrimedRef(s)
        assert children(a) == a.args
        assert children(Forall(y, a)) == (a,)
        assert rebuild(And(a, b), (b, a)) == And(b, a)

    def test_primed_reference_under_binder(self):
        f = Exists(s, eq(PrimedRef(s), VarRef(x)))
        assert uses_primed(f)
        fv = free_vars(f)
        assert fv.vars == {x}
        assert not fv.uses_primed

    def test_substitute_under_forall_renames_apart_from_inner_binders(self):
        # x := y under "forall y" renames y; the fresh name y0 is also bound
        # further in, and that binder must move aside rather than capture it
        y0 = Var("y0", INT)
        f = Forall(y, Forall(y0, atom("<", VarRef(x), add(VarRef(y), VarRef(y0)))))
        g = substitute(f, {x: VarRef(y)})
        outer, inner = g.var, g.body.var
        assert len({y, outer, inner}) == 3
        assert g.body.body == atom("<", VarRef(y), add(VarRef(outer), VarRef(inner)))

    def test_substitute_leaves_renamed_binder_alone(self):
        # the binder x is renamed to x0, which sigma also maps: occurrences
        # of the binder must not be replaced as if they were free x0
        x0 = Var("x0", INT)
        f = Exists(x, atom("<", VarRef(x), VarRef(y)))
        g = substitute(f, {y: VarRef(x), x0: intc(5)})
        assert g == Exists(g.var, atom("<", VarRef(g.var), VarRef(x)))
        assert g.var != x

    def test_apply_next_leaves_bound_variables_unshifted(self):
        f = Forall(
            y,
            And(
                eq(NextRef(VarRef(y)), VarRef(x)),
                Exists(x, eq(VarRef(x), VarRef(y))),
            ),
        )
        assert apply_next(f) == Forall(
            y,
            And(
                eq(NextRef(VarRef(y)), NextRef(VarRef(x))),
                Exists(x, eq(VarRef(x), VarRef(y))),
            ),
        )


class TestFreeVars:
    def test_binder_removes_bound(self):
        f = Exists(y, atom("<", VarRef(x), VarRef(y)))
        fv = free_vars(f)
        assert fv.vars == {x}
        assert not fv.uses_primed and not fv.uses_temporal

    def test_primed_counts_as_carrier(self):
        f = eq(PrimedRef(s), add(VarRef(s), VarRef(x)))
        fv = free_vars(f)
        assert fv.vars == {s, x}
        assert fv.uses_primed

    def test_temporal_flag(self):
        f = Globally(eq(NextRef(VarRef(y)), VarRef(x)))
        fv = free_vars(f)
        assert fv.vars == {x, y}
        assert fv.uses_temporal

    def test_shadowing_is_innermost(self):
        inner = Exists(x, eq(VarRef(x), intc(0)))
        f = And(eq(VarRef(x), intc(1)), inner)
        assert free_vars(f).vars == {x}


class TestSubstitute:
    def test_plain(self):
        f = eq(VarRef(y), VarRef(s))
        g = substitute(f, {s: add(VarRef(x), intc(1))})
        assert g == eq(VarRef(y), add(VarRef(x), intc(1)))

    def test_capture_avoidance(self):
        f = Exists(y, eq(VarRef(y), VarRef(x)))
        g = substitute(f, {x: VarRef(y)})
        assert isinstance(g, Exists)
        assert g.var != y
        assert g.body == eq(VarRef(g.var), VarRef(y))

    def test_primed_substitution_to_next(self):
        trs = And(eq(VarRef(y), VarRef(s)), eq(PrimedRef(s), VarRef(x)))
        g = substitute(trs, {}, {s: NextRef(VarRef(s))})
        assert g == And(eq(VarRef(y), VarRef(s)), eq(NextRef(VarRef(s)), VarRef(x)))

    def test_type_mismatch(self):
        f = eq(VarRef(x), intc(0))
        with pytest.raises(TypeMismatch):
            substitute(f, {x: Const(True, BOOL)})

    def test_free_vars_subset_property(self):
        rng = random.Random(5)
        for _ in range(50):
            f = _random_fo_formula(rng, [x, y, s], 3)
            sigma = {x: add(VarRef(y), intc(1)), s: intc(2)}
            g = substitute(f, sigma)
            before = free_vars(f).vars
            after = free_vars(g).vars
            allowed = (before - set(sigma)) | {y}
            assert after <= allowed


class TestApplyNext:
    def test_simple(self):
        f = eq(VarRef(x), intc(1))
        assert apply_next(f) == eq(NextRef(VarRef(x)), intc(1))

    def test_bound_untouched(self):
        f = Forall(y, eq(VarRef(y), VarRef(x)))
        g = apply_next(f)
        assert g == Forall(y, eq(VarRef(y), NextRef(VarRef(x))))

    def test_nested_next(self):
        f = eq(NextRef(VarRef(x)), VarRef(y))
        g = apply_next(f)
        assert g == eq(NextRef(NextRef(VarRef(x))), NextRef(VarRef(y)))

    def test_rejects_primed(self):
        f = eq(PrimedRef(s), VarRef(x))
        with pytest.raises(PrimedInTemporal):
            apply_next(f)

    def test_commutes_with_substitution_on_disjoint_vars(self):
        f = eq(VarRef(x), VarRef(y))
        sigma = {y: intc(3)}
        # substituting a constant then shifting == shifting then substituting
        left = apply_next(substitute(f, sigma))
        right = substitute(apply_next(f), {})
        # after shifting, y occurrences are under next; replace both forms
        assert left == eq(NextRef(VarRef(x)), intc(3))


class TestSimplify:
    def test_leads_true(self):
        assert simplify(Leads(eq(VarRef(x), VarRef(y)), TRUEC)) == TRUEC

    def test_leads_false(self):
        assert simplify(Leads(eq(VarRef(x), VarRef(y)), FALSEC)) == FALSEC

    def test_true_leads(self):
        f = eq(VarRef(x), VarRef(y))
        assert simplify(Leads(TRUEC, f)) == Globally(f)

    def test_leads_self(self):
        f = eq(VarRef(x), VarRef(y))
        assert simplify(Leads(f, f)) == Globally(f)

    def test_forall_leads_pullout(self):
        # forall y: (phi L psi) -> (exists y: phi) L psi  (phi non-temporal);
        # here the pulled antecedent collapses by the one-point rule, and
        # true L psi collapses to G psi
        phi = eq(VarRef(y), VarRef(s))
        psi = Globally(eq(VarRef(x), intc(0)))
        f = simplify(Forall(y, Leads(phi, psi)))
        assert f == Globally(eq(VarRef(x), intc(0)))

    def test_forall_leads_pullout_nontrivial(self):
        phi = atom("<=", VarRef(y), VarRef(s))
        psi = Globally(eq(VarRef(x), intc(0)))
        f = simplify(Forall(y, Leads(phi, psi)))
        assert f == Leads(Exists(y, phi), psi)

    def test_exists_globally_pull(self):
        body = atom("<=", VarRef(y), VarRef(x))
        f = simplify(Exists(y, Globally(body)))
        assert f == Globally(Exists(y, body))

    def test_one_point_exists(self):
        f = Exists(z, And(eq(VarRef(z), App("/", (VarRef(x), VarRef(y)))), atom(">", VarRef(z), intc(0))))
        assert simplify(f) == atom(">", App("/", (VarRef(x), VarRef(y))), intc(0))

    def test_one_point_forall(self):
        f = Forall(z, Implies(eq(VarRef(z), VarRef(x)), atom(">=", VarRef(z), VarRef(x))))
        assert simplify(f) == TRUEC

    def test_excluded_middle(self):
        a = atom(">", VarRef(x), intc(0))
        b = atom("<=", VarRef(x), intc(0))
        assert simplify(Or(a, b)) == TRUEC
        assert simplify(And(a, b)) == FALSEC

    def test_or_factoring(self):
        g = eq(VarRef(y), intc(1))
        f = Or(And(g, atom(">", VarRef(x), intc(0))), And(g, atom("<=", VarRef(x), intc(0))))
        assert simplify(f) == g

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(80):
            f = _random_fo_formula(rng, [x, y, s], 3)
            g = simplify(f)
            assert simplify(g) == g

    def test_semantics_preserved_first_order(self):
        rng = random.Random(23)
        dom = FiniteDomain({"int": (-1, 0, 1)})
        for _ in range(60):
            f = _random_fo_formula(rng, [x, y], 3)
            g = simplify(f)
            for vx in (-1, 0, 1):
                for vy in (-1, 0, 1):
                    env = {x: vx, y: vy}
                    assert eval_formula_step(f, env, None, dom) == eval_formula_step(
                        g, env, None, dom
                    ), (f, g, env)

    def test_semantics_preserved_temporal(self):
        rng = random.Random(37)
        for _ in range(40):
            f = _random_temporal_formula(rng, [xb, yb], 3)
            g = simplify(f)
            for wx in all_lassos((False, True), 1, 2)[:6]:
                for wy in all_lassos((False, True), 1, 2)[:6]:
                    words = {xb: wx, yb: wy}
                    a = eval_qltl(f, words)
                    b = eval_qltl(g, words)
                    assert a.family == b.family, (f, g, words)


def _random_fo_formula(rng, vars_, depth):
    if depth <= 0 or rng.random() < 0.3:
        v = rng.choice(vars_)
        pred = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        other = rng.choice([VarRef(rng.choice(vars_)), intc(rng.randint(-1, 1))])
        return atom(pred, VarRef(v), other)
    kind = rng.random()
    if kind < 0.25:
        return And(_random_fo_formula(rng, vars_, depth - 1), _random_fo_formula(rng, vars_, depth - 1))
    if kind < 0.5:
        return Or(_random_fo_formula(rng, vars_, depth - 1), _random_fo_formula(rng, vars_, depth - 1))
    if kind < 0.65:
        return Not(_random_fo_formula(rng, vars_, depth - 1))
    if kind < 0.8:
        return Implies(_random_fo_formula(rng, vars_, depth - 1), _random_fo_formula(rng, vars_, depth - 1))
    binder = rng.choice([Forall, Exists])
    fresh = Var("q", INT)
    return binder(fresh, _random_fo_formula(rng, vars_ + [fresh], depth - 1))


def _random_temporal_formula(rng, vars_, depth):
    if depth <= 0 or rng.random() < 0.3:
        v = rng.choice(vars_)
        t = VarRef(v)
        if rng.random() < 0.3:
            t = NextRef(t)
        return Atom("=", (t, TRUE))
    kind = rng.random()
    if kind < 0.2:
        return And(_random_temporal_formula(rng, vars_, depth - 1), _random_temporal_formula(rng, vars_, depth - 1))
    if kind < 0.4:
        return Or(_random_temporal_formula(rng, vars_, depth - 1), _random_temporal_formula(rng, vars_, depth - 1))
    if kind < 0.55:
        return Not(_random_temporal_formula(rng, vars_, depth - 1))
    if kind < 0.7:
        return Globally(_random_temporal_formula(rng, vars_, depth - 1))
    if kind < 0.85:
        return Finally(_random_temporal_formula(rng, vars_, depth - 1))
    return Until(
        _random_temporal_formula(rng, vars_, depth - 1),
        _random_temporal_formula(rng, vars_, depth - 1),
    )
