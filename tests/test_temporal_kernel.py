"""The temporal evaluation kernel: labelled subformulas give the plain
evaluation's values and spend its work budget exactly.

`tests/data/temporal_golden.json` pins `eval_qltl` and `eval_prefix3` on a
seeded corpus of nested temporal formulas with quantifiers, as computed
before subformulas were labelled.  Regenerate it only for a deliberate
change of semantics, with `python tests/test_temporal_kernel.py --write`.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

from rcrs.errors import ExplosionGuard
from rcrs.formulas import (
    And,
    Atom,
    Exists,
    Finally,
    Forall,
    Globally,
    Iff,
    Implies,
    Leads,
    Not,
    Or,
    Until,
)
from rcrs.oracle import Expansion, FiniteDomain, LassoWord, eval_prefix3, eval_qltl
from rcrs.syntax import formula_text
from rcrs.terms import Const, NextRef, VarRef
from rcrs.types import BOOL, INT, IntRange, Var

GOLDEN = Path(__file__).parent / "data" / "temporal_golden.json"
BIT = IntRange(0, 1)
X, N = Var("x", BOOL), Var("n", BIT)
# bound variables; x and n rebind (shadow) the free ones
BINDERS = (Var("y", BOOL), Var("m", BIT), Var("y", BOOL), Var("m", BIT), X, N)
EXPAND = (1, 2)
CORPUS_SIZE = 240


def _atom(rng, scope):
    v = rng.choice(scope)
    ref = NextRef(VarRef(v)) if rng.random() < 0.2 else VarRef(v)
    same = [w for w in scope if w.ty == v.ty and w != v]
    if same and rng.random() < 0.4:
        other = VarRef(rng.choice(same))
    else:
        other = Const(rng.choice((False, True)) if v.ty == BOOL else rng.randint(0, 1), v.ty)
    preds = ("=", "!=") if v.ty == BOOL else ("=", "!=", "<=", "<")
    return Atom(rng.choice(preds), (ref, other))


def _formula(rng, scope, depth, quants):
    """A formula over `scope` whose temporal operators nest `depth` deep
    along its first deep branch, with at most `quants` quantifiers."""
    r = rng.random()
    if quants and r < 0.3:
        v = rng.choice(BINDERS)
        inner = [w for w in scope if w.name != v.name] + [v]
        return rng.choice((Forall, Exists))(v, _formula(rng, inner, depth, quants - 1))
    if depth and r < 0.8:
        kind = rng.choice((Globally, Finally, Until, Leads))
        deep = _formula(rng, scope, depth - 1, quants)
        if kind in (Globally, Finally):
            return kind(deep)
        shallow = _formula(rng, scope, rng.randint(0, depth - 1), 0)
        return kind(deep, shallow) if rng.random() < 0.5 else kind(shallow, deep)
    if depth:
        deep, shallow = _formula(rng, scope, depth, quants), _formula(rng, scope, 0, 0)
        kind = rng.choice((And, Or, Implies, Iff))
        return kind(deep, shallow) if rng.random() < 0.5 else kind(shallow, deep)
    if r < 0.6:
        return _atom(rng, scope)
    if r < 0.75:
        return Not(_atom(rng, scope))
    return rng.choice((And, Or))(_atom(rng, scope), _atom(rng, scope))


def _lasso(rng, values):
    stem = tuple(rng.choice(values) for _ in range(rng.randint(0, 2)))
    return LassoWord(stem, tuple(rng.choice(values) for _ in range(rng.randint(1, 2))))


def corpus(seed: int = 16, size: int = CORPUS_SIZE):
    """(formula, lasso assignments, prefix assignments): temporal nesting
    1, 2 and 3 in turn, up to two quantifiers over bool and int[0..1]."""
    rng = random.Random(seed)
    out = []
    for k in range(size):
        phi = _formula(rng, [X, N], k % 3 + 1, rng.choice((0, 1, 1, 2)))
        lassos = [{X: _lasso(rng, (False, True)), N: _lasso(rng, (0, 1))} for _ in range(2)]
        prefixes = []
        for _ in range(2):
            length = rng.randint(1, 3)
            xs = tuple(rng.choice((False, True)) for _ in range(length))
            prefixes.append({X: xs, N: tuple(rng.randint(0, 1) for _ in range(length))})
        out.append((phi, lassos, prefixes))
    return out


def _raised(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


def _lasso_outcome(phi, words, cap):
    try:
        res = eval_qltl(phi, words, Expansion(*EXPAND, cap=cap))
    except ExplosionGuard as e:
        return _raised(e)
    return [res.family, res.definite]


def smallest_cap(phi, words, hi: int = 10**6):
    """The smallest work budget under which the evaluation completes, or
    None when `hi` does not do."""
    if isinstance(_lasso_outcome(phi, words, hi), str):
        return None
    lo = 0  # lo fails (a budget of 0 admits no visit), hi completes
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if isinstance(_lasso_outcome(phi, words, mid), str):
            lo = mid
        else:
            hi = mid
    return hi


def _prefix_outcome(phi, words):
    try:
        return eval_prefix3(phi, words, FiniteDomain())
    except Exception as e:  # every outcome is pinned, a raise included
        return _raised(e)


def golden_entries():
    entries = []
    for phi, lassos, prefixes in corpus():
        lasso = []
        for words in lassos:
            cap = smallest_cap(phi, words)
            lasso.append(
                {
                    "cap": cap,
                    "outcome": _lasso_outcome(phi, words, cap or 10**6),
                    "below": cap and _lasso_outcome(phi, words, cap - 1),
                }
            )
        entries.append(
            {"formula": formula_text(phi), "lasso": lasso, "prefix": [_prefix_outcome(phi, w) for w in prefixes]}
        )
    return entries


def dumps(entries) -> str:
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


class TestGoldenCorpus:
    """Values and exact budgets on the corpus equal those pinned from the
    evaluator before labels.  Each formula is evaluated several times
    through one compiled program, so a label outliving its evaluation
    would show."""

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(GOLDEN.read_text())

    def test_corpus_shape(self, pinned):
        cases = corpus()
        assert len(cases) == len(pinned) >= 200
        assert [formula_text(phi) for phi, _, _ in cases] == [e["formula"] for e in pinned]
        quantified = sum("forall" in e["formula"] or "exists" in e["formula"] for e in pinned)
        assert quantified >= 100

    def test_lasso_values_and_budgets(self, pinned):
        for (phi, lassos, _), entry in zip(corpus(), pinned):
            for words, want in zip(lassos, entry["lasso"]):
                cap = want["cap"]
                assert _lasso_outcome(phi, words, cap or 10**6) == want["outcome"], entry["formula"]
                if cap:
                    assert _lasso_outcome(phi, words, cap - 1) == want["below"], entry["formula"]

    def test_prefix_values(self, pinned):
        for (phi, _, prefixes), entry in zip(corpus(), pinned):
            got = [_prefix_outcome(phi, w) for w in prefixes]
            assert got == entry["prefix"], entry["formula"]


def _gf(depth, body):
    for _ in range(depth):
        body = Globally(Finally(body))
    return body


class TestExactBudget:
    """A label hit spends what its first evaluation spent, so the smallest
    budget that completes is the plain evaluation's node-visit count."""

    x = Var("x", INT)
    nonneg = Atom(">=", (VarRef(x), Const(0, INT)))
    # 41 + 16 positions
    word = {x: LassoWord(tuple(i % 5 for i in range(41)), tuple(3 * i % 7 for i in range(16)))}

    @staticmethod
    def _fits(phi, words, cap):
        try:
            eval_qltl(phi, words, Expansion(cap=cap))
        except ExplosionGuard as e:
            assert "work budget" in str(e)
            return False
        return True

    def test_nested_twice(self):
        phi = _gf(2, self.nonneg)
        assert self._fits(phi, self.word, 23_409)
        assert not self._fits(phi, self.word, 23_408)

    def test_nested_three_times(self):
        # window^3 node visits; the plain evaluation made every one of them
        phi = _gf(3, self.nonneg)
        start = time.perf_counter()
        assert self._fits(phi, self.word, 1_779_313)
        assert not self._fits(phi, self.word, 1_779_312)
        assert time.perf_counter() - start < 3.0

    def test_nested_four_times_finishes(self):
        start = time.perf_counter()
        res = eval_qltl(_gf(4, self.nonneg), self.word, Expansion(cap=10**9))
        assert (res.family, res.definite) == (True, True)
        assert time.perf_counter() - start < 3.0

    def test_quantified_response(self):
        xs, y = Var("x", BIT), Var("y", BIT)
        x_one, y_one = (Atom("=", (VarRef(v), Const(1, BIT))) for v in (xs, y))
        phi = Exists(y, Globally(Implies(x_one, Finally(_gf(1, y_one)))))
        words = {xs: LassoWord((0, 1, 0), (1, 0, 0))}
        assert self._fits(phi, words, 595)
        assert not self._fits(phi, words, 594)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_temporal_kernel.py --write")
    GOLDEN.write_text(dumps(golden_entries()))
