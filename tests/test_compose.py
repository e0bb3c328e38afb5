"""The symbolic composition engine: per-kind serial/parallel/feedback, the
dependency analyses, the closure table, and the simplification algorithm."""

import json
import random

import pytest

from rcrs.components import (
    LAYOUT,
    Atomic,
    Det,
    Fdbk,
    Kind,
    Parallel,
    Qltl,
    Serial,
    Signature,
    Stateless,
    StatelessDet,
    Sts,
    alpha_equivalent,
    sig,
    wf,
)
from rcrs.compose import (
    atomic,
    decomposable,
    determ,
    feedback,
    loop_free,
    oi,
    parallel,
    serial,
)
from rcrs.corpus import random_det_composite, random_stateless_table
from rcrs.diagrams import load_diagram, translate
from rcrs.errors import (
    AlgebraicLoop,
    FeedbackOnNonDecomposable,
    KindError,
    NotDecomposable,
    NotDeterministic,
    WfError,
)
from rcrs.formulas import And, Globally, TRUEC, atom, children, eq
from rcrs.oracle import FiniteDomain, bounded_equiv, behavior
from rcrs.terms import App, VarRef, add, intc, var
from rcrs.types import BOOL, INT, IntRange, Var


class TestSerial:
    def test_add_then_delay_gives_det(self, add_block, unit_delay):
        c = serial(add_block, unit_delay)
        assert isinstance(c, Det)
        expected = Det(
            sig(("x", INT), ("y", INT)), sig(("s", INT)), (intc(0),), TRUEC,
            (add(var("x", INT), var("y", INT)),), (var("s", INT),),
        )
        assert alpha_equivalent(Atomic(c), Atomic(expected))

    def test_identity_neutral(self):
        ident = StatelessDet(sig(("x", INT)), TRUEC, (var("x", INT),))
        c = StatelessDet(sig(("a", INT)), atom(">", var("a", INT), intc(0)), (add(var("a", INT), intc(1)),))
        assert alpha_equivalent(Atomic(serial(ident, c)), Atomic(c))
        assert alpha_equivalent(Atomic(serial(c, ident)), Atomic(c))

    def test_div_incompatibility_shape(self):
        source = Stateless(sig(("u", INT)), sig(("x", INT), ("y", INT)), TRUEC)
        x, y = var("x", INT), var("y", INT)
        div = StatelessDet(sig(("x", INT), ("y", INT)), atom("!=", y, intc(0)), (App("/", (x, y)),))
        c = serial(source, div)
        assert isinstance(c, Stateless)
        # semantically false: over any finite domain no behavior exists
        dom = FiniteDomain({"int": (-1, 0, 1)})
        beh = behavior(Atomic(c), dom, 1)
        assert all(beh.first_illegal(t) is not None for t in dom.traces(c.inputs, 1))

    def test_wf_error(self, add_block, unit_delay):
        with pytest.raises(WfError):
            serial(unit_delay, add_block)

    def test_mixed_kind_lifts_to_join(self, add_block, unit_delay):
        s = Stateless(sig(("x", INT)), sig(("y", INT)), atom(">", var("y", INT), var("x", INT)))
        out = serial(unit_delay, s)
        assert isinstance(out, Sts)
        q = Qltl(sig(("x", INT)), sig(("y", INT)), Globally(atom(">", var("y", INT), var("x", INT))))
        out2 = serial(unit_delay, q)
        assert isinstance(out2, Qltl)


class TestParallel:
    def test_add_parallel_add(self, add_block):
        c = parallel(add_block, add_block)
        assert isinstance(c, StatelessDet)
        assert len(c.inputs) == 4 and len(c.out) == 2
        assert c.inpt == TRUEC

    def test_qltl_parallel(self):
        a = Qltl(sig(("x", BOOL)), sig(("y", BOOL)), Globally(eq(var("x", BOOL), var("y", BOOL))))
        b = Qltl(sig(("u", BOOL)), sig(("v", BOOL)), Globally(eq(var("u", BOOL), var("v", BOOL))))
        c = parallel(a, b)
        assert isinstance(c, Qltl)
        assert len(c.inputs) == 2 and len(c.outputs) == 2
        assert isinstance(c.phi, And)

    def test_mixed_parallel_joins(self):
        s = Stateless(sig(("x", INT)), sig(("y", INT)), atom(">", var("y", INT), var("x", INT)))
        u = var("u", INT)
        d = StatelessDet(sig(("u", INT)), atom("!=", u, intc(0)), (App("/", (intc(1), u)),))
        c = parallel(s, d)
        assert isinstance(c, Stateless)
        # oracle confirmation over a small range
        dom = FiniteDomain({"int": (-2, -1, 0, 1, 2)})
        r = bounded_equiv(Atomic(c), Parallel(Atomic(s), Atomic(d)), dom, 1)
        assert r, r.detail


class TestFeedbackOps:
    def test_decomposable_examples(self, split_block):
        d = Det(
            sig(("x", INT), ("y", INT)), sig(("s", INT)), (intc(0),), TRUEC,
            (add(var("x", INT), var("y", INT)),), (var("s", INT), var("s", INT)),
        )
        assert decomposable(d)
        ident = StatelessDet(sig(("x", INT)), TRUEC, (var("x", INT),))
        assert not decomposable(ident)
        swap = StatelessDet(sig(("x", INT), ("y", INT)), TRUEC, (var("y", INT), var("x", INT)))
        assert decomposable(swap)

    def test_kind_error(self):
        s = Stateless(sig(("x", INT)), sig(("y", INT)), TRUEC)
        with pytest.raises(KindError):
            decomposable(s)

    def test_feedback_sum_inner(self):
        inner = Det(
            sig(("x", INT), ("y", INT)), sig(("s", INT)), (intc(0),), TRUEC,
            (add(var("x", INT), var("y", INT)),), (var("s", INT), var("s", INT)),
        )
        fb = feedback(inner)
        expected = Det(
            sig(("y", INT)), sig(("s", INT)), (intc(0),), TRUEC,
            (add(var("s", INT), var("y", INT)),), (var("s", INT),),
        )
        assert alpha_equivalent(Atomic(fb), Atomic(expected))

    def test_feedback_substitutes_into_outputs(self):
        c = StatelessDet(
            sig(("x", INT), ("y", INT)), TRUEC,
            (add(var("y", INT), intc(1)), var("x", INT)),
        )
        fb = feedback(c)
        expected = StatelessDet(sig(("y", INT)), TRUEC, (add(var("y", INT), intc(1)),))
        assert alpha_equivalent(Atomic(fb), Atomic(expected))

    def test_feedback_substitutes_into_precondition(self):
        c = StatelessDet(
            sig(("x", INT), ("y", INT)), atom("<", var("x", INT), intc(10)),
            (var("y", INT), var("x", INT)),
        )
        fb = feedback(c)
        assert fb.inpt == atom("<", var("y", INT), intc(10))
        # two-pass execution confirms: y routes to x, precondition on y
        from rcrs.oracle import exec_det, IllegalAt

        assert exec_det(Atomic(fb), ((3,),)) == ((3,),)
        assert exec_det(Atomic(fb), ((11,),)) == IllegalAt(0)

    def test_not_decomposable_error(self):
        ident = StatelessDet(sig(("x", INT)), TRUEC, (var("x", INT),))
        with pytest.raises(NotDecomposable):
            feedback(ident)


class TestAnalyses:
    def test_determ(self, add_block, unit_delay, sum_component):
        assert determ(Serial(Atomic(add_block), Atomic(unit_delay)))
        assert determ(sum_component)
        s = Stateless(sig(("x", INT)), sig(("y", INT)), atom(">", var("y", INT), var("x", INT)))
        assert not determ(Atomic(s))

    def test_oi_add(self, add_block):
        assert oi(Atomic(add_block)) == {(1, 1), (1, 2)}

    def test_oi_unit_delay(self, unit_delay):
        assert oi(Atomic(unit_delay)) == frozenset()

    def test_oi_sum(self, sum_component):
        assert oi(sum_component) == frozenset()

    def test_oi_requires_determ(self):
        s = Stateless(sig(("x", INT)), sig(("y", INT)), TRUEC)
        with pytest.raises(NotDeterministic):
            oi(Atomic(s))

    def test_oi_serial_composition_lemma(self):
        rng = random.Random(3)
        from rcrs.corpus import random_det_atom

        for _ in range(40):
            a = random_det_atom(rng, rng.randint(1, 2))
            b = random_det_atom(rng, len(a.out))
            composed = oi(Atomic(serial(a, b)))
            expected = frozenset(
                (i, j)
                for (i, k) in oi(Atomic(b))
                for (k2, j) in oi(Atomic(a))
                if k == k2
            )
            assert composed == expected

    def test_loop_free(self, sum_component, add_block, unit_delay):
        assert loop_free(sum_component)
        passthrough = StatelessDet(
            sig(("a", INT), ("b", INT)), TRUEC, (var("a", INT), var("b", INT))
        )
        assert not loop_free(Fdbk(Atomic(passthrough)))
        assert loop_free(Serial(Atomic(add_block), Atomic(unit_delay)))


class TestAtomic:
    def test_sum_derivation(self, sum_component):
        a = atomic(sum_component)
        expected = Det(
            sig(("y", INT)), sig(("s", INT)), (intc(0),), TRUEC,
            (add(var("s", INT), var("y", INT)),), (var("s", INT),),
        )
        assert alpha_equivalent(Atomic(a), Atomic(expected))
        assert oi(Atomic(a)) == oi(sum_component)

    def test_atomic_of_atomic(self, add_block):
        assert atomic(Atomic(add_block)) is add_block

    def test_bare_atomic_children(self, add_block, split_block):
        # a composite may hold atomic components without the Atomic wrapper
        wrapped = Serial(Atomic(split_block), Atomic(add_block))
        bare = Serial(split_block, add_block)
        assert atomic(bare) == atomic(wrapped)
        assert oi(bare) == oi(wrapped) == frozenset({(1, 1)})

    def test_fail_branch(self):
        ident = StatelessDet(sig(("x", INT)), TRUEC, (var("x", INT),))
        with pytest.raises(FeedbackOnNonDecomposable) as err:
            atomic(Fdbk(Atomic(ident)))
        assert err.value.path == ()

    def test_fail_branch_carries_path(self, add_block):
        ident = StatelessDet(sig(("x", INT)), TRUEC, (var("x", INT),))
        bad = Parallel(Atomic(add_block), Fdbk(Atomic(ident)))
        with pytest.raises(FeedbackOnNonDecomposable) as err:
            atomic(bad)
        assert err.value.path == ("right",)

    # the closure table, written out literally: rows are the left operand
    CLOSURE = {
        Kind.QLTL: {k: Kind.QLTL for k in Kind},
        Kind.STS: {
            Kind.QLTL: Kind.QLTL,
            Kind.STS: Kind.STS,
            Kind.STATELESS: Kind.STS,
            Kind.DET: Kind.STS,
            Kind.STATELESS_DET: Kind.STS,
        },
        Kind.STATELESS: {
            Kind.QLTL: Kind.QLTL,
            Kind.STS: Kind.STS,
            Kind.STATELESS: Kind.STATELESS,
            Kind.DET: Kind.STS,
            Kind.STATELESS_DET: Kind.STATELESS,
        },
        Kind.DET: {
            Kind.QLTL: Kind.QLTL,
            Kind.STS: Kind.STS,
            Kind.STATELESS: Kind.STS,
            Kind.DET: Kind.DET,
            Kind.STATELESS_DET: Kind.DET,
        },
        Kind.STATELESS_DET: {
            Kind.QLTL: Kind.QLTL,
            Kind.STS: Kind.STS,
            Kind.STATELESS: Kind.STATELESS,
            Kind.DET: Kind.DET,
            Kind.STATELESS_DET: Kind.STATELESS_DET,
        },
    }

    def test_closure_table_cells(self, unit_delay):
        """All 25 cells of the serial/parallel closure table, each with
        one-input one-output instances so every serial pair is composable."""
        instances = {
            Kind.STATELESS_DET: StatelessDet(
                sig(("x", INT)), TRUEC, (add(var("x", INT), intc(1)),)
            ),
            Kind.DET: unit_delay,
            Kind.STATELESS: Stateless(
                sig(("x", INT)), sig(("y", INT)), eq(var("y", INT), var("x", INT))
            ),
            Kind.STS: Sts(
                sig(("x", INT)), sig(("y", INT)), sig(("s", INT)),
                eq(var("s", INT), intc(0)),
                eq(var("y", INT), var("s", INT)),
            ),
            Kind.QLTL: Qltl(
                sig(("x", INT)), sig(("y", INT)),
                Globally(eq(var("y", INT), var("x", INT))),
            ),
        }
        for ka, row in self.CLOSURE.items():
            for kb, expected in row.items():
                a, b = instances[ka], instances[kb]
                assert serial(a, b).kind() == expected, ("serial", ka, kb)
                assert parallel(a, b).kind() == expected, ("parallel", ka, kb)

    def test_fdbk_preserves_det(self):
        d = Det(
            sig(("x", INT), ("y", INT)), sig(("s", INT)), (intc(0),), TRUEC,
            (var("y", INT),), (var("s", INT), var("s", INT)),
        )
        assert feedback(d).kind() == Kind.DET
        swap = StatelessDet(sig(("x", INT), ("y", INT)), TRUEC, (var("y", INT), var("x", INT)))
        assert feedback(swap).kind() == Kind.STATELESS_DET


class TestCollapse:
    """`atomic` collapses a term whose leaves are deterministic and bind no
    variable in one walk; its result equals a bottom-up fold of the public
    serial, parallel and feedback, which rename their operands apart at
    every level."""

    @staticmethod
    def fold(c, path=()):
        if isinstance(c, Atomic):
            return c.atom
        if isinstance(c, Fdbk):
            inner = TestCollapse.fold(c.child, path + ("child",))
            if not decomposable(inner):
                where = "/".join(path) or "root"
                raise FeedbackOnNonDecomposable(
                    f"feedback over a non-decomposable {inner.kind().value} component at {where}", path=path
                )
            return feedback(inner)
        step = serial if isinstance(c, Serial) else parallel
        return step(TestCollapse.fold(c.left, path + ("left",)), TestCollapse.fold(c.right, path + ("right",)))

    @staticmethod
    def outcome(f, c):
        try:
            return f(c)
        except FeedbackOnNonDecomposable as e:
            return type(e), str(e), e.path

    @staticmethod
    def distinct_nodes(a):
        roots = [v for name, role in LAYOUT[type(a)] if role in ("formula", "terms", "values")
                 for v in ((getattr(a, name),) if role == "formula" else getattr(a, name))]
        seen, stack = set(), roots
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(children(node))
        return len(seen)

    def test_random_composites_equal_the_fold(self):
        failures = 0
        for seed in range(200):
            c = random_det_composite(random.Random(seed), 12, 2)
            want = self.fold(c)
            got = atomic(c)
            assert got == want, seed
            assert self.distinct_nodes(got) <= self.distinct_nodes(want), seed
            # a feedback around it raises where the fold raises, or agrees
            looped = Fdbk(Parallel(c, c))
            for term in (looped, Parallel(c, looped)) if wf(looped) else ():
                want = self.outcome(self.fold, term)
                assert self.outcome(atomic, term) == want, seed
                failures += isinstance(want, tuple)
        assert failures > 50

    def test_diagrams_equal_the_fold(self):
        from test_diagrams import flat_spec

        translated = 0
        for seed in range(200):
            rng = random.Random(seed)
            try:
                c = translate(load_diagram(json.dumps(flat_spec(rng, rng.randint(1, 8)))))
            except AlgebraicLoop:
                continue
            assert self.outcome(atomic, c) == self.outcome(self.fold, c), seed
            translated += 1
        assert translated > 150

    def test_root_names(self):
        inc = StatelessDet(sig(("a", INT)), TRUEC, (add(var("a", INT), intc(1)),))
        delay = Det(sig(("b", INT)), sig(("t", INT)), (intc(0),), TRUEC, (var("b", INT),), (var("t", INT),))
        pair = Det(sig(("p", INT), ("q", INT)), sig(("r", INT)), (intc(0),), TRUEC, (var("q", INT),),
                   (var("r", INT), var("p", INT)))
        terms = [
            Serial(Parallel(Atomic(delay), Atomic(inc)), Parallel(Atomic(delay), Atomic(delay))),
            Parallel(Serial(Atomic(inc), Atomic(delay)), Fdbk(Atomic(pair))),
            Fdbk(Serial(Parallel(Atomic(inc), Atomic(delay)), Atomic(pair))),
            Fdbk(Fdbk(Parallel(Atomic(pair), Atomic(delay)))),
            Serial(Fdbk(Parallel(Atomic(pair), Atomic(inc))), Fdbk(Parallel(Atomic(pair), Atomic(inc)))),
        ]
        names = [
            (("x0", "x1"), ("u0", "v0", "v1")),
            (("x0", "x1"), ("s0", "s1")),
            (("x1",), ("u0", "v0")),
            (("x2",), ("s0", "s1")),
            (("x0", "x1"), ("u0", "v0")),
        ]
        for c, want in zip(terms, names):
            a = atomic(c)
            assert (a.inputs.names(), a.states.names()) == want
            assert a == self.fold(c)

    def test_det_chain_builds_one_component(self, monkeypatch):
        from rcrs import components, compose

        delay = Det(sig(("b", INT)), sig(("t", INT)), (intc(0),), TRUEC, (var("b", INT),), (var("t", INT),))
        c = Atomic(delay)
        for _ in range(199):
            c = Serial(c, Atomic(delay))
        calls = {"build": 0, "rename": 0}

        def counting(key, f):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return f(*args, **kwargs)
            return wrapper

        for cls in (Det, StatelessDet, Stateless, Sts, Qltl):
            monkeypatch.setattr(cls, "__post_init__", counting("build", cls.__post_init__))
        monkeypatch.setattr(compose, "rename_slots", counting("rename", compose.rename_slots))
        monkeypatch.setattr(components, "rename_atomic", counting("rename", components.rename_atomic))
        a = atomic(c)
        assert calls == {"build": 1, "rename": 0}
        assert a.states.names() == (*(f"u{i}" for i in range(199)), "v0")

    @pytest.mark.parametrize("n", [1500, 5000])
    def test_chains_deeper_than_the_recursion_limit(self, n):
        ident = Atomic(StatelessDet(sig(("x", INT)), TRUEC, (var("x", INT),)))
        c = ident
        for _ in range(n - 1):
            c = Serial(c, ident)
        assert wf(c)
        assert atomic(c) == StatelessDet(sig(("x0", INT)), TRUEC, (var("x0", INT),))


class TestOracleAgreement:
    """Bounded-trace agreement between symbolic composition and the oracle."""

    def test_serial_matches_oracle_composition_nondet(self):
        rng = random.Random(17)
        ty = IntRange(0, 1)
        dom = FiniteDomain()
        for _ in range(15):
            a = random_stateless_table(rng, [Var("x", ty)], [Var("y", ty)])
            b = random_stateless_table(rng, [Var("u", ty)], [Var("v", ty)])
            r = bounded_equiv(Atomic(serial(a, b)), Serial(Atomic(a), Atomic(b)), dom, 3)
            assert r, (r.counterexample, r.detail)

    def test_parallel_matches_oracle_composition_nondet(self):
        rng = random.Random(19)
        ty = IntRange(0, 1)
        dom = FiniteDomain()
        for _ in range(10):
            a = random_stateless_table(rng, [Var("x", ty)], [Var("y", ty)])
            b = random_stateless_table(rng, [Var("u", ty)], [Var("v", ty)])
            r = bounded_equiv(Atomic(parallel(a, b)), Parallel(Atomic(a), Atomic(b)), dom, 2)
            assert r, (r.counterexample, r.detail)

    def test_serial_matches_oracle_sts(self):
        rng = random.Random(23)
        from rcrs.corpus import random_sts_atom

        dom = FiniteDomain()
        for _ in range(8):
            a = random_sts_atom(rng)
            b = random_sts_atom(rng)
            r = bounded_equiv(Atomic(serial(a, b)), Serial(Atomic(a), Atomic(b)), dom, 3)
            assert r, (r.counterexample, r.detail)

    def test_feedback_matches_oracle(self):
        rng = random.Random(29)
        dom = FiniteDomain({"int": (0, 1)})
        from rcrs.corpus import random_det_atom

        found = 0
        while found < 10:
            c = random_det_atom(rng, 2)
            if len(c.out) < 2:
                continue
            try:
                if not decomposable(c):
                    continue
            except KindError:
                continue
            found += 1
            r = bounded_equiv(Atomic(feedback(c)), Fdbk(Atomic(c)), dom, 3)
            assert r, (r.counterexample, r.detail)

    def test_associativity_at_bound(self):
        rng = random.Random(31)
        ty = IntRange(0, 1)
        dom = FiniteDomain()
        for _ in range(10):
            a = random_stateless_table(rng, [Var("x", ty)], [Var("y", ty)])
            b = random_stateless_table(rng, [Var("u", ty)], [Var("v", ty)])
            c = random_stateless_table(rng, [Var("p", ty)], [Var("q", ty)])
            left = atomic(Serial(Serial(Atomic(a), Atomic(b)), Atomic(c)))
            right = atomic(Serial(Atomic(a), Serial(Atomic(b), Atomic(c))))
            r = bounded_equiv(Atomic(left), Atomic(right), dom, 3)
            assert r, (r.counterexample, r.detail)


def test_corpus_growth_lets_defects_through(monkeypatch):
    import random

    from rcrs import corpus

    def defect(c):
        raise ZeroDivisionError("defect in loop_free")

    monkeypatch.setattr(corpus, "loop_free", defect)
    with pytest.raises(ZeroDivisionError):
        for seed in range(50):
            corpus._grow(random.Random(seed), 3)
