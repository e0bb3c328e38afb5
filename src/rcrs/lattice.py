"""The five-kind component lattice and the upward conversion maps between
kinds, including the translation of transition-system components into
temporal contracts."""

from __future__ import annotations

from .components import (
    Det,
    Kind,
    NameGen,
    Qltl,
    Signature,
    Stateless,
    StatelessDet,
    Sts,
    AtomicComponent,
)
from .errors import NotAbove
from .formulas import (
    And,
    Formula,
    Globally,
    Leads,
    TRUEC,
    conj,
    eq,
    exists_many,
    forall_many,
    simplify,
    substitute_primed,
    Implies,
)
from .terms import NextRef, PrimedRef, VarRef
from .types import Var


# Covers of the lattice: stateless_det below det and stateless; det and
# stateless below sts; sts below qltl.
def leq_kind(a: Kind, b: Kind) -> bool:
    if a == b:
        return True
    if a == Kind.STATELESS_DET:
        return True
    if b == Kind.QLTL:
        return True
    if b == Kind.STS:
        return a in (Kind.DET, Kind.STATELESS)
    return False


def join_kind(a: Kind, b: Kind) -> Kind:
    """Least upper bound in the kind lattice."""
    if leq_kind(a, b):
        return b
    if leq_kind(b, a):
        return a
    # the only incomparable pair is det / stateless
    return Kind.STS


def quantify_primed(svars, f: Formula, gen: NameGen, extra=(), exists=True) -> Formula:
    """Quantify over the primed occurrences of svars (renamed to fresh plain
    variables) together with the plain variables in extra."""
    fresh = [gen.fresh("q", v.ty) for v in svars]
    body = substitute_primed(f, {v: VarRef(w) for v, w in zip(svars, fresh)})
    binder = exists_many if exists else forall_many
    return binder(list(fresh) + list(extra), body)


def stateless_det2det(c: StatelessDet) -> Det:
    return Det(c.inputs, Signature(()), (), c.inpt, (), c.out)


def stateless_det2stateless(c: StatelessDet, gen: NameGen = None) -> Stateless:
    gen = gen or NameGen(v.name for v in c.all_vars())
    ys = [gen.fresh("y", t) for t in (c.outputs.types())]
    io = conj([c.inpt] + [eq(VarRef(v), t) for v, t in zip(ys, c.out)])
    return Stateless(c.inputs, Signature(tuple(ys)), io)


def stateless2sts(c: Stateless) -> Sts:
    return Sts(c.inputs, c.outputs, Signature(()), TRUEC, c.io)


def det2sts(c: Det, gen: NameGen = None) -> Sts:
    gen = gen or NameGen(v.name for v in c.all_vars())
    ys = [gen.fresh("y", t) for t in c.outputs.types()]
    init = conj([eq(VarRef(v), a) for v, a in zip(c.states.vars(), c.init_vals)])
    trs = conj(
        [c.inpt]
        + [eq_primed(v, t) for v, t in zip(c.states.vars(), c.next)]
        + [eq(VarRef(v), t) for v, t in zip(ys, c.out)]
    )
    return Sts(c.inputs, Signature(tuple(ys)), c.states, init, trs)


def eq_primed(v: Var, t):
    return eq(PrimedRef(v), t)


def sts_legality(c: Sts, gen: NameGen) -> tuple[Formula, Formula]:
    """The step formula trs[s' := @s] and the legality chain of the
    transition system: init implies that the steps lead to a live
    precondition, forall s, y. init -> (step L exists q, y. trs[s' := q])."""
    svars = list(c.states.vars())
    yvars = list(c.outputs.vars())
    step = substitute_primed(c.trs, {v: NextRef(VarRef(v)) for v in svars})
    live = quantify_primed(svars, c.trs, gen, extra=yvars, exists=True)
    return step, forall_many(svars + yvars, Implies(c.init, Leads(step, live)))


def sts2qltl(c: Sts, gen: NameGen = None) -> Qltl:
    """Temporal contract equivalent to the transition system: the legality
    chain and an existentially chosen run."""
    step, legality = sts_legality(c, gen or NameGen(v.name for v in c.all_vars()))
    run = exists_many(list(c.states.vars()), And(c.init, Globally(step)))
    return Qltl(c.inputs, c.outputs, simplify(And(legality, run)))


def stateless2qltl(c: Stateless) -> Qltl:
    return Qltl(c.inputs, c.outputs, simplify(Globally(c.io)))


def lift_to(c: AtomicComponent, k: Kind) -> AtomicComponent:
    """Convert c into an equivalent component of kind k (k above c's kind)."""
    src = c.kind()
    if not leq_kind(src, k):
        raise NotAbove(f"cannot lift a {src.value} component to {k.value}")
    if src == k:
        return c
    if src == Kind.STATELESS_DET:
        if k == Kind.DET:
            return stateless_det2det(c)
        # the stateless route gives the simpler formulas for the other kinds
        return lift_to(stateless_det2stateless(c), k)
    if src == Kind.DET:
        return lift_to(det2sts(c), k)
    if src == Kind.STATELESS:
        if k == Kind.QLTL:
            return stateless2qltl(c)
        return lift_to(stateless2sts(c), k)
    if src == Kind.STS:
        return sts2qltl(c)
    raise NotAbove(f"no lift from {src.value} to {k.value}")
