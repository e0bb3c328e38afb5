"""Seeded random component corpora for the property suites and the CLI
self-test: deterministic loop-free composites, finite stateless tables, and
transition-system atoms at desk scale."""

from __future__ import annotations

import random

from .components import (
    Atomic,
    Component,
    Det,
    Fdbk,
    Parallel,
    Serial,
    Signature,
    Stateless,
    StatelessDet,
    Sts,
    sigma_in,
    sigma_out,
    sig,
)
from .compose import determ, loop_free, wf
from .errors import NotDeterministic
from .formulas import And, FALSEC, Formula, Not, Or, TRUEC, atom, conj, disj, eq
from .terms import App, Const, Term, VarRef, intc
from .types import BOOL, INT, IntRange, Var


def _int_term(rng: random.Random, vars_: list[Var], depth: int) -> Term:
    ints = [v for v in vars_ if v.ty == INT]
    if depth <= 0 or rng.random() < 0.35:
        if ints and rng.random() < 0.75:
            return VarRef(rng.choice(ints))
        return intc(rng.randint(-2, 2))
    op = rng.choice(["+", "+", "-", "*"])
    return App(op, (_int_term(rng, vars_, depth - 1), _int_term(rng, vars_, depth - 1)))


def _precondition(rng: random.Random, vars_: list[Var]) -> Formula:
    ints = [v for v in vars_ if v.ty == INT]
    if not ints or rng.random() < 0.7:
        return TRUEC
    v = rng.choice(ints)
    pred = rng.choice(["<=", "<", ">=", ">", "!=", "="])
    return atom(pred, VarRef(v), intc(rng.randint(-1, 2)))


def random_det_atom(rng: random.Random, n_in: int) -> Det | StatelessDet:
    """A deterministic atom over unbounded-int wires: arities kept small,
    update terms of depth at most 3."""
    n_out = rng.randint(1, 2)
    n_states = rng.randint(0, 2)
    xs = [Var(f"x{i}", INT) for i in range(n_in)]
    if n_states == 0:
        out = tuple(_int_term(rng, xs, rng.randint(0, 3)) for _ in range(n_out))
        return StatelessDet(Signature(tuple(xs)), _precondition(rng, xs), out)
    ss = [Var(f"s{i}", INT) for i in range(n_states)]
    scope = xs + ss
    out = tuple(_int_term(rng, scope, rng.randint(0, 3)) for _ in range(n_out))
    nxt = tuple(_int_term(rng, scope, rng.randint(0, 2)) for _ in range(n_states))
    inits = tuple(intc(rng.randint(-1, 1)) for _ in range(n_states))
    return Det(Signature(tuple(xs)), Signature(tuple(ss)), inits, _precondition(rng, scope), nxt, out)


def random_det_composite(rng: random.Random, max_atoms: int = 4, max_inputs: int = 2) -> Component:
    """A well-formed deterministic loop-free composite with at most
    `max_atoms` leaves and a small external input arity."""
    for _ in range(200):
        budget = rng.randint(1, max_atoms)
        term = _grow(rng, budget)
        if term is None:
            continue
        if len(sigma_in(term)) > max_inputs or len(sigma_in(term)) == 0:
            continue
        if not wf(term):
            continue
        if not (determ(term) and loop_free(term)):
            continue
        return term
    raise AssertionError("corpus generation failed to produce a composite")


def _grow(rng: random.Random, budget: int) -> Component | None:
    if budget <= 1:
        return Atomic(random_det_atom(rng, rng.randint(1, 2)))
    choice = rng.random()
    if choice < 0.45:
        left_budget = rng.randint(1, budget - 1)
        left = _grow(rng, left_budget)
        if left is None:
            return None
        right = _grow_with_inputs(rng, budget - left_budget, len(sigma_out(left)))
        if right is None:
            return None
        return Serial(left, right)
    if choice < 0.75:
        left_budget = rng.randint(1, budget - 1)
        left = _grow(rng, left_budget)
        right = _grow(rng, budget - left_budget)
        if left is None or right is None:
            return None
        return Parallel(left, right)
    inner = _grow(rng, budget - 1)
    if inner is None:
        return None
    if len(sigma_in(inner)) < 2 or len(sigma_out(inner)) < 1:
        return None
    looped = Fdbk(inner)
    try:
        if not loop_free(looped):
            return None
    except NotDeterministic:
        return None
    return looped


def _grow_with_inputs(rng: random.Random, budget: int, n_in: int) -> Component | None:
    """A subtree whose external input arity is exactly n_in."""
    if budget <= 1 or n_in > 2:
        if n_in == 0 or n_in > 4:
            return None
        return Atomic(random_det_atom(rng, n_in))
    if rng.random() < 0.5 and n_in >= 2:
        split = rng.randint(1, n_in - 1)
        left = _grow_with_inputs(rng, max(1, budget // 2), split)
        right = _grow_with_inputs(rng, max(1, budget - budget // 2), n_in - split)
        if left is None or right is None:
            return None
        return Parallel(left, right)
    left = _grow_with_inputs(rng, max(1, budget - 1), n_in)
    if left is None:
        return None
    right = _grow_with_inputs(rng, 1, len(sigma_out(left)))
    if right is None:
        return None
    return Serial(left, right)


# --- finite stateless tables ---------------------------------------------------


def _pattern(vars_: list[Var], values: tuple) -> Formula:
    return conj([eq(VarRef(v), _const_of(v, val)) for v, val in zip(vars_, values)])


def _const_of(v: Var, val) -> Const:
    return Const(val, v.ty)


def table_stateless(in_vars, out_vars, table: dict) -> Stateless:
    """Relation table {in-tuple: set of out-tuples} as a stateless component."""
    rows = []
    for inp in sorted(table):
        for outp in sorted(table[inp]):
            rows.append(And(_pattern(list(in_vars), inp), _pattern(list(out_vars), outp)))
    io = disj(rows) if rows else FALSEC
    return Stateless(Signature(tuple(in_vars)), Signature(tuple(out_vars)), io)


def _domain_values(ty) -> tuple:
    if ty == BOOL:
        return (False, True)
    if isinstance(ty, IntRange):
        return tuple(range(ty.lo, ty.hi + 1))
    raise ValueError(f"not a finite corpus type: {ty}")


def random_stateless_table(rng: random.Random, in_vars, out_vars, legal_bias=0.8) -> Stateless:
    import itertools

    in_tuples = list(itertools.product(*[_domain_values(v.ty) for v in in_vars]))
    out_tuples = list(itertools.product(*[_domain_values(v.ty) for v in out_vars]))
    table = {}
    for inp in in_tuples:
        if rng.random() < legal_bias:
            k = rng.randint(1, min(2, len(out_tuples)))
            table[inp] = set(rng.sample(out_tuples, k))
        else:
            table[inp] = set()
    return table_stateless(in_vars, out_vars, table)


def refinement_table_pair(rng: random.Random, in_vars, out_vars):
    """(abstract, concrete) stateless pair where refinement holds by
    construction: the concrete accepts at least the abstract's legal inputs
    and produces a subset of its outputs on them."""
    import itertools

    in_tuples = list(itertools.product(*[_domain_values(v.ty) for v in in_vars]))
    out_tuples = list(itertools.product(*[_domain_values(v.ty) for v in out_vars]))
    abs_table, conc_table = {}, {}
    for inp in in_tuples:
        if rng.random() < 0.75:
            k = rng.randint(1, min(3, len(out_tuples)))
            outs = set(rng.sample(out_tuples, k))
        else:
            outs = set()
        abs_table[inp] = outs
        if outs:
            k = rng.randint(1, len(outs))
            conc_table[inp] = set(rng.sample(sorted(outs), k))
        else:
            if rng.random() < 0.5:
                conc_table[inp] = set(rng.sample(out_tuples, rng.randint(0, 2)))
            else:
                conc_table[inp] = set()
    return (
        table_stateless(in_vars, out_vars, abs_table),
        table_stateless(in_vars, out_vars, conc_table),
    )


# --- transition-system atoms ----------------------------------------------------


def _bool_formula(rng: random.Random, atoms: list[Formula], depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(atoms)
    op = rng.random()
    if op < 0.45:
        return And(_bool_formula(rng, atoms, depth - 1), _bool_formula(rng, atoms, depth - 1))
    if op < 0.9:
        return Or(_bool_formula(rng, atoms, depth - 1), _bool_formula(rng, atoms, depth - 1))
    return Not(_bool_formula(rng, atoms, depth - 1))


def random_sts_atom(rng: random.Random) -> Sts:
    """A small nondeterministic transition system over two-point ranges."""
    ty = IntRange(0, 1)
    x = Var("x", ty)
    y = Var("y", ty)
    s = Var("s", ty)
    from .terms import PrimedRef

    candidates = [
        eq(VarRef(y), VarRef(s)),
        eq(VarRef(y), VarRef(x)),
        eq(PrimedRef(s), VarRef(x)),
        eq(PrimedRef(s), VarRef(y)),
        atom("!=", VarRef(y), VarRef(x)),
        atom("<=", VarRef(s), VarRef(x)),
        eq(VarRef(x), intc(rng.randint(0, 1))),
        eq(PrimedRef(s), intc(rng.randint(0, 1))),
    ]
    trs = _bool_formula(rng, candidates, rng.randint(1, 3))
    init = eq(VarRef(s), intc(rng.randint(0, 1)))
    return Sts(sig(("x", ty)), sig(("y", ty)), sig(("s", ty)), init, trs)
