"""The simplifier on a seeded corpus: its results are pinned, and a result is
its own fixed point.

`tests/data/simplify_golden.json` pins `formula_text(simplify(f))` for every
formula of the corpus, as computed before simplified nodes kept their
fixed-point mark and an And its conjunct set.  The corpus stresses what
those facts shortcut: conjunction and disjunction chains of every shape,
complementary atoms on one side of an And and across its sides, `!a` beside
`a`, `!!b` beside `!b`, conjuncts shared between disjuncts, subsumed
implications, and nested one-point quantifier chains over primed and plain
variables.  Regenerate the file only for a deliberate change of the rewrite
rules, with `python tests/test_simplify_golden.py --write`.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

from rcrs.formulas import (
    FALSEC,
    TRUEC,
    And,
    Atom,
    Exists,
    FalseC,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    TrueC,
    _simp_and,
    _simp_implies,
    complement_atom,
    conjuncts,
    simplify,
)
from rcrs.syntax import formula_text
from rcrs.terms import Const, PrimedRef, VarRef, add, intc
from rcrs.types import BOOL, INT, Var

GOLDEN = Path(__file__).parent / "data" / "simplify_golden.json"
X, Y, Z, B = Var("x", INT), Var("y", INT), Var("z", INT), Var("b", BOOL)
# q and r are bound by the one-point chains; x is also rebound (shadowed)
Q, R = Var("q", INT), Var("r", INT)
CORPUS_SIZE = 360
PREDS = ("=", "!=", "<", "<=", ">", ">=")


def _term(rng, plain):
    r = rng.random()
    if r < 0.45:
        return VarRef(rng.choice(plain))
    if r < 0.6:
        return PrimedRef(rng.choice((X, Y)))
    if r < 0.8:
        return intc(rng.randint(-1, 2))
    return add(VarRef(rng.choice(plain)), intc(rng.randint(1, 2)))


def _atom(rng, plain=(X, Y, Z)):
    if rng.random() < 0.15:
        return Atom(rng.choice(("=", "!=")), (VarRef(B), Const(rng.random() < 0.5, BOOL)))
    return Atom(rng.choice(PREDS), (_term(rng, plain), _term(rng, plain)))


def _chain(rng, parts, op):
    """parts joined by op, left-deep, right-deep or split at random."""
    if len(parts) == 1:
        return parts[0]
    shape = rng.choice(("left", "right", "split"))
    k = {"left": len(parts) - 1, "right": 1}.get(shape) or rng.randint(1, len(parts) - 1)
    return op(_chain(rng, parts[:k], op), _chain(rng, parts[k:], op))


def _literals(rng, n):
    """n conjuncts drawn from a small pool, so some repeat; with some
    probability one is the complement of another, a negation of another, or
    a double negation beside a single one."""
    pool = [_atom(rng) for _ in range(max(2, n - 1))]
    parts = [rng.choice(pool) for _ in range(n)]
    r = rng.random()
    if r < 0.2:
        parts.insert(rng.randint(0, n), complement_atom(rng.choice(parts)))
    elif r < 0.35:
        parts.insert(rng.randint(0, n), Not(rng.choice(parts)))
    elif r < 0.5:
        a = rng.choice(parts)
        parts[rng.randrange(n)] = Not(a)
        parts.insert(rng.randint(0, n), Not(Not(a)))
    elif r < 0.6:
        parts.insert(rng.randint(0, n), rng.choice((TRUEC, FALSEC)))
    return parts


def _conjunction(rng):
    return _chain(rng, _literals(rng, rng.randint(2, 9)), And)


def _across(rng):
    # an And whose sides clash with each other, and may clash within
    left, right = _literals(rng, rng.randint(1, 5)), _literals(rng, rng.randint(1, 5))
    a = rng.choice(left)
    right.insert(rng.randint(0, len(right)), rng.choice((complement_atom(a), Not(a), Not(Not(a)))))
    if rng.random() < 0.3:
        left.insert(0, Not(a))
    return And(_chain(rng, left, And), _chain(rng, right, And))


def _disjunction(rng):
    # disjuncts that share conjuncts, and literals complementary across them
    shared = [_atom(rng) for _ in range(rng.randint(1, 3))]
    disjuncts = []
    for _ in range(rng.randint(2, 4)):
        own = _literals(rng, rng.randint(1, 3))
        picked = [s for s in shared if rng.random() < 0.7]
        parts = picked + own
        rng.shuffle(parts)
        disjuncts.append(_chain(rng, parts, And))
    if rng.random() < 0.3:
        disjuncts.append(complement_atom(rng.choice(disjuncts)))
    return _chain(rng, disjuncts, Or)


def _implication(rng):
    ante = _literals(rng, rng.randint(1, 6))
    r = rng.random()
    if r < 0.4:
        cons = rng.sample(ante, rng.randint(1, len(ante)))
    elif r < 0.6:
        cons = [rng.choice(ante), _atom(rng)]
    else:
        cons = _literals(rng, rng.randint(1, 3))
    return Implies(_chain(rng, ante, And), _chain(rng, cons, And))


def _one_point(rng, depth=0):
    """Nested exists/forall chains whose bodies define the bound variable by
    an equation over plain and primed variables (or fail to, when the
    defining term mentions it)."""
    v = rng.choice((Q, R, X))
    plain = (X, Y, Z, v) if v != X else (X, Y, Z)
    target = rng.choice((add(PrimedRef(Y), intc(1)), VarRef(Y), PrimedRef(X), add(VarRef(Z), intc(2))))
    if rng.random() < 0.15:
        target = add(VarRef(v), intc(1))  # no one-point: the term mentions v
    defining = Atom("=", (VarRef(v), target) if rng.random() < 0.7 else (target, VarRef(v)))
    rest = [_atom(rng, plain) for _ in range(rng.randint(1, 4))]
    if depth < 2 and rng.random() < 0.6:
        rest.append(_one_point(rng, depth + 1))
    parts = rest + [defining]
    rng.shuffle(parts)
    if rng.random() < 0.5:
        return Exists(v, _chain(rng, parts, And))
    body = _chain(rng, [_atom(rng, plain) for _ in range(rng.randint(1, 2))], Or)
    return Forall(v, Implies(_chain(rng, parts, And), body))


def _mixed(rng, depth=3):
    if depth == 0 or rng.random() < 0.2:
        return _atom(rng)
    kind = rng.choice((And, Or, Implies, Iff, Not, "chain", "quant"))
    if kind == "chain":
        return rng.choice((_conjunction, _across, _disjunction))(rng)
    if kind == "quant":
        return _one_point(rng)
    if kind is Not:
        return Not(_mixed(rng, depth - 1))
    return kind(_mixed(rng, depth - 1), _mixed(rng, depth - 1))


MAKERS = (_conjunction, _across, _disjunction, _implication, _one_point, _mixed)


def corpus(seed: int = 18, size: int = CORPUS_SIZE):
    rng = random.Random(seed)
    return [MAKERS[i % len(MAKERS)](rng) for i in range(size)]


def golden_entries():
    return [[formula_text(f), formula_text(simplify(f))] for f in corpus()]


def dumps(entries) -> str:
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(GOLDEN.read_text())


def test_corpus_is_the_pinned_one(pinned):
    assert len(pinned) == CORPUS_SIZE
    assert [formula_text(f) for f in corpus()] == [text for text, _ in pinned]


def test_results_are_pinned(pinned):
    got = [formula_text(simplify(f)) for f in corpus()]
    assert got == [want for _, want in pinned]


def test_corpus_reaches_each_rule(pinned):
    results = [want for _, want in pinned]
    # chains that clash and chains that do not; one-point chains eliminated
    assert results.count("false") >= 20 and results.count("true") >= 10
    assert sum("exists" in text or "forall" in text for text, _ in pinned) >= 60
    assert sum("exists" in want or "forall" in want for want in results) >= 1


def test_result_is_its_own_fixed_point():
    for f in corpus():
        g = simplify(f)
        assert simplify(g) is g
        assert simplify(f) == g


def test_kept_facts_do_not_change_results():
    # a formula built from simplified parts, which keep their fixed-point
    # marks and conjunct sets, simplifies as its copy without any kept fact
    fs = corpus()
    for f, g in zip(fs, fs[1:] + fs[:1]):
        for op in (And, Or, Implies):
            built = op(simplify(f), And(simplify(g), f))
            assert simplify(built) == simplify(copy.deepcopy(built))


def _listed_and(a, b):
    # the conjunction rule on conjunct lists, rescanned at every call
    if isinstance(a, FalseC) or isinstance(b, FalseC):
        return FALSEC
    if isinstance(a, TrueC):
        return b
    if isinstance(b, TrueC):
        return a
    if a == b or set(conjuncts(b)) <= set(conjuncts(a)):
        return a
    parts = conjuncts(a) + conjuncts(b)
    if any(complement_atom(p) in set(parts) for p in parts):
        return FALSEC
    return And(a, b)


def test_conjunct_sets_decide_as_conjunct_lists():
    # raw operands, not simplifier results: a side may clash within itself
    rng = random.Random(7)
    for _ in range(400):
        a, b = _conjunction(rng), rng.choice((_conjunction, _across, _atom))(rng)
        if rng.random() < 0.3:
            b = And(b, rng.choice(conjuncts(a)))
        assert _simp_and(a, b) == _listed_and(a, b)
        assert _simp_and(b, a) == _listed_and(b, a)
        subsumed = set(conjuncts(b)) <= set(conjuncts(a))
        assert (_simp_implies(a, b) == TRUEC) == (a == b or subsumed or isinstance(b, TrueC)
                                                  or isinstance(a, FalseC))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_simplify_golden.py --write")
    GOLDEN.write_text(dumps(golden_entries()))
