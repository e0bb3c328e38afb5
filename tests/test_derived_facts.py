"""Facts a node derives from its fields and keeps on itself: the hash of
terms and formulas, the free references of terms and formulas, the type of
terms, and the shape, dependency facts and atomic form of composite
components.  Keeping them must change nothing that can be observed, and they
must never leave the process.  Variables and variable references are
interned, one object per value, so their hash is identity and a copy is the
object itself."""

import copy
import os
import pickle
import random
import subprocess
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import pytest

import rcrs
from rcrs.components import LAYOUT, Atomic, Det, Fdbk, Parallel, Serial, StatelessDet, sig
from rcrs.compose import atomic
from rcrs.corpus import random_det_composite
from rcrs.errors import FeedbackOnNonDecomposable
from rcrs.formulas import (
    _CHILD_FIELDS,
    And,
    Atom,
    Exists,
    FALSEC,
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
    Until,
    children,
    free_refs,
    nodes,
    rebuild,
    substitute,
)
from rcrs.terms import App, Const, NextRef, PrimedRef, Term, VarRef, add, intc, type_of, var
from rcrs.types import BOOL, INT, EnumType, IntRange, IntType, Var

SRC = str(Path(rcrs.__file__).resolve().parent.parent)
x, y, s = (Var(n, INT) for n in "xys")
INTERNED = (Var, VarRef, PrimedRef)


def _facts(node) -> set:
    return {k for k in vars(node) if k.startswith("_")}


# what a component term keeps of its signatures, well-formedness and
# dependency relation
SHAPE_FACTS = {"_shape", "_deps"}


def _one_of_each():
    a = Atom("<", (VarRef(x), add(VarRef(y), intc(1))))
    b = Atom("=", (PrimedRef(s), NextRef(VarRef(x))))
    return [
        VarRef(x), PrimedRef(s), NextRef(VarRef(x)), intc(3),
        App("ite", (Const(True, BOOL), VarRef(x), intc(0))),
        TRUEC, FALSEC, a, Not(a), And(a, b), Or(a, b), Implies(a, b), Iff(a, b),
        Forall(y, a), Exists(y, a), Until(a, b), Leads(a, b), Globally(a), Finally(a),
    ]


def _derive_all(node):
    hash(node)
    free_refs(node)
    if isinstance(node, Term):
        type_of(node)


class TestInvisible:
    def test_hash_is_the_field_hash(self):
        # but for interned values, whose hash is their identity, kept nowhere
        samples = _one_of_each() + [x, Var("b", BOOL)]
        assert {type(n) for n in samples} >= {*Term.__subclasses__(), *Formula.__subclasses__()}
        for n in samples:
            if isinstance(n, INTERNED):
                want = object.__hash__(n)
            else:
                want = hash(tuple(getattr(n, fld.name) for fld in fields(n)))
            assert hash(n) == want
            assert hash(n) == want  # kept, and the same
            assert ("_hash" in vars(n)) != isinstance(n, INTERNED)

    def test_repr_eq_and_fields_do_not_see_facts(self):
        for n in _one_of_each():
            before = (repr(n), [f.name for f in fields(n)])
            twin = copy.deepcopy(n)
            _derive_all(n)
            assert _facts(n)
            assert (repr(n), [f.name for f in fields(n)]) == before
            assert n == twin and twin == n
            # a copy of an interned reference is the reference, facts and all
            assert twin is n if isinstance(n, INTERNED) else not _facts(twin)

    def test_traversal_and_layout_tables_hold_fields_only(self):
        assert _CHILD_FIELDS[App] == (("args", True),)
        assert _CHILD_FIELDS[Forall] == (("body", False),)
        assert _CHILD_FIELDS[VarRef] == ()
        for table in (_CHILD_FIELDS, LAYOUT):
            for layout in table.values():
                assert not any(name.startswith("_") for name, _ in layout)
        assert LAYOUT[Det] == (
            ("inputs", "signature"),
            ("states", "signature"),
            ("init_vals", "values"),
            ("inpt", "formula"),
            ("next", "terms"),
            ("out", "terms"),
        )

    def test_new_nodes_start_without_facts(self):
        for n in _one_of_each():
            _derive_all(n)
            kids = children(n)
            if kids:
                assert not _facts(rebuild(n, kids))
        f = And(Atom("<", (VarRef(x), VarRef(y))), Atom("=", (VarRef(s), intc(0))))
        _derive_all(f)
        assert not _facts(replace(f, right=f.left))
        g = substitute(f, {x: intc(2)})
        assert g != f and not _facts(g) and not _facts(g.left)
        assert g.right is f.right  # untouched subtrees are shared, facts and all

    def test_substitution_renames_binders_as_before(self):
        # the binder's subtree has no free x, but m is a variable of the
        # replacement: it is renamed apart, as it always was
        m = Var("m", INT)
        f = And(Atom("<", (VarRef(x), intc(0))), Exists(m, Atom("=", (VarRef(m), intc(0)))))
        g = substitute(f, {x: VarRef(m)})
        m0 = Var("m0", INT)
        assert g == And(Atom("<", (VarRef(m), intc(0))), Exists(m0, Atom("=", (VarRef(m0), intc(0)))))
        assert substitute(f, {y: VarRef(s)}) is f  # nothing to replace or rename


def _random_term(rng, scope, depth):
    r = rng.random()
    if depth <= 0 or r < 0.3:
        leaf = rng.random()
        if leaf < 0.45:
            return VarRef(rng.choice(scope))
        if leaf < 0.75:
            return PrimedRef(rng.choice(scope))
        return intc(rng.randint(-2, 2))
    if r < 0.4:
        return NextRef(_random_term(rng, scope, depth - 1))
    return App("+", (_random_term(rng, scope, depth - 1), _random_term(rng, scope, depth - 1)))


def _random_formula(rng, scope, depth):
    r = rng.random()
    if depth <= 0 or r < 0.2:
        return Atom("<=", (_random_term(rng, scope, 2), _random_term(rng, scope, 2)))
    if r < 0.35:
        # binders reuse names that also occur free, so shadowing is common
        v = rng.choice(scope + [Var("q", INT)])
        return rng.choice((Forall, Exists))(v, _random_formula(rng, scope + [v], depth - 1))
    if r < 0.5:
        return rng.choice((Not, Globally, Finally))(_random_formula(rng, scope, depth - 1))
    left = _random_formula(rng, scope, depth - 1)
    # a shared subtree now and then: its facts are computed once
    right = left if rng.random() < 0.1 else _random_formula(rng, scope, depth - 1)
    return rng.choice((And, Or, Implies, Iff, Until, Leads))(left, right)


def _reference_free_refs(node):
    """The pre-order fold free_refs is defined by."""
    plain, primed, temporal = set(), set(), False
    for n, bound in nodes(node):
        if isinstance(n, VarRef) and n.var not in bound:
            plain.add(n.var)
        elif isinstance(n, PrimedRef) and n.var not in bound:
            primed.add(n.var)
        elif isinstance(n, (NextRef, Until, Leads, Globally, Finally)):
            temporal = True
    return plain, primed, temporal


class TestFreeRefs:
    @pytest.mark.parametrize("seed", range(6))
    def test_kept_free_refs_match_the_preorder_fold(self, seed):
        rng = random.Random(seed)
        scope = [x, y, s, Var("x", BOOL)]
        for _ in range(40):
            f = _random_formula(rng, scope, 5)
            # derive at the root first, then check every subtree's kept triple
            for n in (f, *(n for n, _ in nodes(f))):
                want = _reference_free_refs(n)
                assert free_refs(n) == want
                assert free_refs(n) == want  # the kept triple

    def test_deep_formula(self):
        f = Atom("<", (VarRef(x), intc(0)))
        for i in range(3000):
            f = And(f, Atom("=", (VarRef(Var(f"v{i % 7}", INT)), intc(i))))
        plain, primed, temporal = free_refs(f)
        assert len(plain) == 8 and not primed and not temporal


class TestAtomicForm:
    def test_atomic_twice(self):
        c = random_det_composite(random.Random(3), 8, 2)
        first = atomic(c)
        assert atomic(c) == first
        assert atomic(c) is first

    def test_composite_reuses_a_kept_form(self, add_block):
        ident = Atomic(StatelessDet(sig(("x", INT)), TRUEC, (var("x", INT),)))
        inner = Serial(Atomic(add_block), ident)
        kept = atomic(inner)
        outer = Serial(inner, ident)
        assert atomic(outer) == atomic(copy.deepcopy(outer))
        # besides the shape and dependency facts (see components.shape),
        # outer keeps its atomic form, and its atomic child keeps no form
        assert atomic(inner) is kept and _facts(outer) - SHAPE_FACTS == {"_atomic"}
        assert not _facts(ident) - SHAPE_FACTS

    def test_failure_is_raised_again_with_its_path(self, add_block):
        ident = Atomic(StatelessDet(sig(("x", INT)), TRUEC, (var("x", INT),)))
        good = Serial(Atomic(add_block), ident)
        bad = Serial(Parallel(good, Fdbk(ident)), ident)
        errors = []
        for _ in range(2):
            with pytest.raises(FeedbackOnNonDecomposable) as err:
                atomic(bad)
            errors.append(err.value)
        assert [e.path for e in errors] == [("left", "right"), ("left", "right")]
        assert str(errors[0]) == str(errors[1])
        # no failure is kept: the shape only, which atomic reads first
        assert not _facts(bad) - SHAPE_FACTS and not _facts(bad.left) - SHAPE_FACTS


class TestDerivedOutputs:
    def test_kept_outputs_are_invisible_and_a_fresh_derivation(self):
        # the slot y0 is taken, so the derived outputs are y1 and y2
        det = Det(sig(("y0", INT)), sig(("s", INT)), (intc(0),), TRUEC, (var("y0", INT),),
                  (var("s", INT), Const(True, BOOL)))
        for c in (det, StatelessDet(sig(("x", INT)), TRUEC, (var("x", INT),))):
            before = repr(c)
            twin = copy.deepcopy(c)
            outputs = c.outputs
            assert _facts(c) == {"_outputs"}
            assert c.outputs is outputs  # kept
            assert repr(c) == before and c == twin and twin == c and hash(c) == hash(twin)
            assert not _facts(replace(c)) and replace(c) == c
            for copied in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
                assert copied == c and not _facts(copied)
                assert copied.outputs == outputs  # derived again, equal
        assert det.outputs.names() == ("y1", "y2") and det.outputs.types() == (INT, BOOL)


class TestPrintedText:
    def test_an_atom_keeps_its_printed_text(self):
        from rcrs.syntax import print_component

        blk = StatelessDet(sig(("x", INT)), TRUEC, (var("x", INT),))
        before = repr(blk)
        text = print_component(Serial(Atomic(blk), Atomic(blk)))
        assert _facts(blk) == {"_text"} and repr(blk) == before
        assert print_component(blk) is blk._text and text == f"{blk._text} ; {blk._text}"
        for copied in (pickle.loads(pickle.dumps(blk)), copy.copy(blk), copy.deepcopy(blk)):
            assert copied == blk and not _facts(copied)
            assert print_component(copied) == blk._text


def _run(code: str, hash_seed: int, stdin: bytes = b"") -> bytes:
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, stdout=subprocess.PIPE, env=env, check=True
    )
    return proc.stdout


_BUILD = """
from rcrs.components import Atomic, Serial, StatelessDet, sig
from rcrs.formulas import And, Exists, atom
from rcrs.terms import PrimedRef, VarRef, add, intc
from rcrs.types import INT, Var
v, w = Var("speed", INT), Var("limit", INT)
f = And(atom("<=", VarRef(v), VarRef(w)), Exists(w, atom("<", PrimedRef(v), add(VarRef(w), intc(1)))))
blk = StatelessDet(sig(("speed", INT)), atom("<=", VarRef(v), intc(9)), (VarRef(v),))
c = Serial(Atomic(blk), Atomic(blk))
"""


class TestFactsStayInProcess:
    def test_pickle_and_copy_drop_facts(self):
        f = And(Atom("<", (VarRef(x), VarRef(y))), Exists(y, Atom("=", (PrimedRef(y), intc(0)))))
        ident = Atomic(StatelessDet(sig(("x", INT)), TRUEC, (var("x", INT),)))
        c = Serial(ident, ident)
        _derive_all(f)
        atomic(c)
        for n in (f, f.left, c):
            assert _facts(n)
            for twin in (pickle.loads(pickle.dumps(n)), copy.copy(n), copy.deepcopy(n)):
                assert twin == n and not _facts(twin)
        # an interned value pickles as its fields alone, and every copy is
        # the value itself
        ref = f.left.args[0]
        assert _facts(ref) and not _facts(x)
        for n in (x, ref, PrimedRef(y)):
            assert n.__reduce_ex__(4) == (type(n), tuple(getattr(n, fld.name) for fld in fields(n)))
            for twin in (pickle.loads(pickle.dumps(n)), copy.copy(n), copy.deepcopy(n)):
                assert twin is n

    def test_pickled_node_is_found_under_another_hash_seed(self):
        dump = _BUILD + """
import pickle, sys
from rcrs.compose import atomic
from rcrs.formulas import free_refs
hash(f); hash(v); free_refs(f); atomic(c)
sys.stdout.buffer.write(pickle.dumps((f, v, c)))
"""
        load = _BUILD + """
import pickle, sys
from rcrs.compose import atomic
loaded_f, loaded_v, loaded_c = pickle.loads(sys.stdin.buffer.read())
print(
    loaded_f == f and loaded_v == v and loaded_c == c,
    loaded_f in {f} and f in {loaded_f},
    loaded_v in {v} and loaded_f.left.args[0] in {VarRef(v)},
    atomic(loaded_c) == atomic(c),
)
"""
        data = _run(dump, 1)
        for seed in (2, 1):
            assert _run(load, seed, data).split() == [b"True"] * 4, seed


class TestInterning:
    def test_equal_constructions_are_one_object(self):
        r = IntRange(0, 3)
        assert Var("x", IntType()) is x and Var("r", r) is Var("r", IntRange(0, 3))
        assert Var("x", BOOL) is not x and Var("x", r) is not x
        assert VarRef(Var("x", INT)) is VarRef(x) is var("x", INT)
        assert PrimedRef(Var("x", INT)) is PrimedRef(x) and PrimedRef(x) is not VarRef(x)
        assert len({VarRef(x), VarRef(Var("x", INT)), PrimedRef(x)}) == 2
        with pytest.raises(ValueError, match="nonempty"):
            Var("", INT)

    def test_copies_and_replace_give_the_interned_object(self):
        mode = Var("mode", EnumType("mode", ("on", "off")))
        for n in (x, mode, VarRef(x), PrimedRef(mode)):
            for twin in (pickle.loads(pickle.dumps(n)), copy.copy(n), copy.deepcopy(n), replace(n)):
                assert twin is n
        assert replace(x, name="y") is y and replace(VarRef(x), var=y) is VarRef(y)

    def test_threads_racing_on_a_fresh_name_get_one_object(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(60):
                name = f"race{round_}_{id(self)}"
                barrier, made = threading.Barrier(8), []

                def make():
                    barrier.wait()
                    made.append(VarRef(Var(name, INT)))

                workers = [threading.Thread(target=make) for _ in range(8)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=10)
                assert not any(w.is_alive() for w in workers)
                assert len(made) == 8 and all(r is made[0] for r in made), round_
        finally:
            sys.setswitchinterval(interval)


_UNDECLARED = """
from rcrs.components import Stateless, StatelessDet, Sts, sig
from rcrs.errors import TypeMismatch
from rcrs.formulas import TRUEC, And, eq
from rcrs.terms import PrimedRef, add, var
from rcrs.types import INT
a, b, c, y = (var(n, INT) for n in "abcy")
attempts = [
    lambda: Stateless(sig(("x", INT)), sig(("y", INT)), eq(y, add(a, add(b, c)))),
    lambda: StatelessDet(sig(("x", INT)), TRUEC, (add(a, add(b, c)),)),
    lambda: Sts(sig(("x", INT)), sig(("y", INT)), sig(("s", INT)), TRUEC,
                And(eq(PrimedRef(a.var), y), eq(PrimedRef(b.var), PrimedRef(c.var)))),
]
for attempt in attempts:
    try:
        attempt()
    except TypeMismatch as e:
        print(e)
"""


def test_undeclared_variable_is_named_left_to_right():
    want = [
        "contract: variable a is not declared",
        "term variable a is not declared",
        "transition formula: primed reference to non-state variable a",
    ]
    for seed in (0, 1, 3, 7):
        assert _run(_UNDECLARED, seed).decode().splitlines() == want, seed
