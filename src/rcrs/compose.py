"""Symbolic composition: serial, parallel, and feedback on atomic components,
the determinism / output-input dependency / loop-freeness analyses, and the
simplification of arbitrary composite terms to a single atomic component."""

from __future__ import annotations

from .components import (
    LAYOUT,
    SIGNATURE_FIELDS,
    Atomic,
    AtomicComponent,
    Component,
    Det,
    Fdbk,
    Kind,
    NameGen,
    Parallel,
    Qltl,
    Serial,
    Signature,
    Stateless,
    StatelessDet,
    Sts,
    as_component,
    binders,
    field_values,
    numbered,
    rename_slots,
    sigma_in,
    sigma_out,
    subterms,
    wf,
)
from .errors import (
    FeedbackOnNonDecomposable,
    KindError,
    NotDecomposable,
    NotDeterministic,
    WfError,
)
from .formulas import (
    And,
    Implies,
    simplify,
    substitute,
    substitution,
    exists_many,
    forall_many,
    free_refs,
)
from .lattice import join_kind, lift_to, quantify_primed
from .terms import VarRef
from .types import Var


def _names_of(c: AtomicComponent) -> set[str]:
    return {v.name for v in c.all_vars()}


def _prepare_serial(l: AtomicComponent, r: AtomicComponent):
    """Rename the two operands apart, unifying l's outputs with r's inputs
    under shared mid names."""
    l2 = rename_slots(l, numbered("x"), numbered("m"), numbered("u"))
    r2 = rename_slots(r, numbered("m"), numbered("z"), numbered("v"))
    mids = r2.inputs.vars()
    return l2, r2, mids


def serial(l: AtomicComponent, r: AtomicComponent) -> AtomicComponent:
    """Symbolic serial composition; mixed kinds are lifted to the join kind
    first, then the same-kind formula applies.  Deterministic operands are
    composed by one substitution into r (see _serial_det); the other kinds
    rename both operands apart first."""
    res = wf(Serial(Atomic(l), Atomic(r)))
    if not res:
        raise WfError(res.reason)
    k = join_kind(l.kind(), r.kind())
    return _SERIAL[k](lift_to(l, k), lift_to(r, k))


def _serial_contract(l: Stateless | Qltl, r: Stateless | Qltl) -> Stateless | Qltl:
    """Serial composition of two stateless or two temporal contracts, whose
    layout is (inputs, outputs, contract)."""
    l, r, mids = _prepare_serial(l, r)
    (lf,), (rf,) = field_values(l, "formula"), field_values(r, "formula")
    receptive = forall_many(mids, Implies(lf, exists_many(r.outputs.vars(), rf)))
    chained = exists_many(mids, And(lf, rf))
    return type(l)(l.inputs, r.outputs, simplify(And(receptive, chained)))


def _serial_sts(l: Sts, r: Sts) -> Sts:
    l, r, mids = _prepare_serial(l, r)
    gen = NameGen(_names_of(l) | _names_of(r))
    some_step = quantify_primed(l.states.vars(), l.trs, gen, extra=mids, exists=True)
    step_feeds = forall_many(
        list(mids),
        Implies(
            l.trs,
            quantify_primed(r.states.vars(), r.trs, gen, extra=r.outputs.vars(), exists=True),
        ),
    )
    step_feeds = quantify_primed(l.states.vars(), step_feeds, gen, exists=False)
    chained = exists_many(mids, And(l.trs, r.trs))
    trs = simplify(And(And(some_step, step_feeds), chained))
    init = simplify(And(l.init, r.init))
    states = Signature(l.states.vars() + r.states.vars())
    return Sts(l.inputs, r.outputs, states, init, trs)


def _serial_det(l: Det | StatelessDet, r: Det | StatelessDet) -> Det | StatelessDet:
    """Serial composition of two deterministic components of one kind: one
    substitution into r replaces its inputs by l's output terms and its
    states by their composite names v0, v1, ....  An r that binds a variable
    is renamed to mid names first, so its bound variables are renamed apart
    exactly as the two steps would."""
    if binders(r):
        l, r, _ = _prepare_serial(l, r)
    else:
        l = rename_slots(l, numbered("x"), (), numbered("u"))
    r_states = r.states.vars() if isinstance(r, Det) else ()
    states = tuple(Var(n, v.ty) for v, n in zip(r_states, numbered("v")))
    sub = dict(zip(r.inputs.vars(), l.out))
    sub.update((v, VarRef(w)) for v, w in zip(r_states, states) if v != w)
    apply = substitution(sub)
    inpt = simplify(And(l.inpt, apply(r.inpt)))
    out = tuple(map(apply, r.out))
    if isinstance(l, StatelessDet):
        return StatelessDet(l.inputs, inpt, out)
    nxt = l.next + tuple(map(apply, r.next))
    return Det(l.inputs, Signature(l.states.vars() + states), l.init_vals + r.init_vals, inpt, nxt, out)


_SERIAL = {
    Kind.QLTL: _serial_contract,
    Kind.STS: _serial_sts,
    Kind.STATELESS: _serial_contract,
    Kind.DET: _serial_det,
    Kind.STATELESS_DET: _serial_det,
}


def _prepare_parallel(l: AtomicComponent, r: AtomicComponent):
    """Rename l's slots to x0.., y0.., s0.. and r's to the numbers after
    l's, so the two share no slot name."""
    n = {name: len(getattr(l, name)) for name in SIGNATURE_FIELDS[type(l)]}
    l2 = rename_slots(l, numbered("x"), numbered("y"), numbered("s"))
    r2 = rename_slots(
        r,
        numbered("x", n["inputs"]),
        numbered("y", n.get("outputs", 0)),
        numbered("s", n.get("states", 0)),
    )
    return l2, r2


def parallel(l: AtomicComponent, r: AtomicComponent) -> AtomicComponent:
    """Symbolic parallel composition, field by field: concatenated signatures
    and tuples, conjoined formulas."""
    k = join_kind(l.kind(), r.kind())
    l, r = _prepare_parallel(lift_to(l, k), lift_to(r, k))

    def join(role, a, b):
        if role == "signature":
            return Signature(a.vars() + b.vars())
        if role == "formula":
            return simplify(And(a, b))
        return a + b

    return type(l)(*(join(role, getattr(l, n), getattr(r, n)) for n, role in LAYOUT[type(l)]))


def decomposable(c: AtomicComponent) -> bool:
    """True when the first output expression does not mention the first input,
    so feedback can be resolved by substitution."""
    if not isinstance(c, (Det, StatelessDet)):
        raise KindError("decomposability is defined for deterministic components only")
    if len(c.inputs) == 0 or len(c.out) == 0:
        return False
    plain, _, _ = free_refs(c.out[0])
    return c.inputs.vars()[0] not in plain


def feedback(c: AtomicComponent) -> AtomicComponent:
    """Close the loop from the first output to the first input of a
    decomposable deterministic component."""
    if not isinstance(c, (Det, StatelessDet)):
        raise KindError("symbolic feedback is defined for deterministic components only")
    if not decomposable(c):
        raise NotDecomposable("first output depends on first input")
    x1 = c.inputs.vars()[0]
    e1 = c.out[0]
    sub = {x1: e1}
    ins = Signature(c.inputs.vars()[1:])
    inpt = simplify(substitute(c.inpt, sub))
    out = tuple(substitute(t, sub) for t in c.out[1:])
    if isinstance(c, Det):
        nxt = tuple(substitute(t, sub) for t in c.next)
        return Det(ins, c.states, c.init_vals, inpt, nxt, out)
    return StatelessDet(ins, inpt, out)


def determ(c) -> bool:
    """True when every atomic leaf is deterministic."""
    return all(
        isinstance(as_component(s).atom, (Det, StatelessDet))
        for _, s in subterms(as_component(c))
        if not isinstance(s, (Serial, Parallel, Fdbk))
    )


OIRelation = frozenset


def oi(c) -> OIRelation:
    """Output-input dependency relation, 1-based positional indices."""
    c = as_component(c)
    if not determ(c):
        raise NotDeterministic("the dependency relation is defined for deterministic components")
    return _oi(c)


def _oi(c) -> frozenset:
    c = as_component(c)
    if isinstance(c, Atomic):
        a = c.atom
        xs = a.inputs.vars()
        pairs = set()
        for i, e in enumerate(a.out, start=1):
            plain, _, _ = free_refs(e)
            for j, x in enumerate(xs, start=1):
                if x in plain:
                    pairs.add((i, j))
        return frozenset(pairs)
    if isinstance(c, Serial):
        left, right = _oi(c.left), _oi(c.right)
        return frozenset(
            (i, j) for (i, k) in right for (k2, j) in left if k == k2
        )
    if isinstance(c, Parallel):
        left, right = _oi(c.left), _oi(c.right)
        n = len(sigma_in(c.left))
        m = len(sigma_out(c.left))
        return frozenset(left | {(i + m, j + n) for (i, j) in right})
    if isinstance(c, Fdbk):
        inner = _oi(c.child)
        m = len(sigma_out(c.child)) - 1
        n = len(sigma_in(c.child)) - 1
        return frozenset(
            (i, j)
            for i in range(1, m + 1)
            for j in range(1, n + 1)
            if (i + 1, j + 1) in inner
            or ((i + 1, 1) in inner and (1, j + 1) in inner)
        )
    raise TypeError(f"not a component: {c!r}")


def loop_free(c) -> bool:
    """True when no feedback loop closes a same-step dependency."""
    c = as_component(c)
    if not determ(c):
        raise NotDeterministic("loop-freeness is defined for deterministic components")
    return _loop_free(c)


def _loop_free(c: Component) -> bool:
    return all((1, 1) not in _oi(s.child) for _, s in subterms(c) if isinstance(s, Fdbk))


def atomic(c) -> AtomicComponent:
    """Collapse a composite component term into an equivalent atomic one.

    Fails (FeedbackOnNonDecomposable) exactly when a feedback is applied over
    a component whose first output still depends on its first input.  The
    component keeps the atomic form once computed, and a composite containing
    it reuses it; a failure raises again on every call.
    """
    c = as_component(c)
    d = c.__dict__
    a = d.get("_atomic")
    if a is None:
        res = wf(c)
        if not res:
            raise WfError(res.reason)
        a = d["_atomic"] = _atomic(c, ())
    return a


def _atomic(c, path: tuple) -> AtomicComponent:
    c = as_component(c)
    if isinstance(c, Atomic):
        return c.atom
    kept = c.__dict__.get("_atomic")
    if kept is not None:
        return kept
    if isinstance(c, Serial):
        return serial(_atomic(c.left, path + ("left",)), _atomic(c.right, path + ("right",)))
    if isinstance(c, Parallel):
        return parallel(_atomic(c.left, path + ("left",)), _atomic(c.right, path + ("right",)))
    if isinstance(c, Fdbk):
        inner = _atomic(c.child, path + ("child",))
        if not isinstance(inner, (Det, StatelessDet)) or not decomposable(inner):
            where = "/".join(path) or "root"
            raise FeedbackOnNonDecomposable(
                f"feedback over a non-decomposable {inner.kind().value} component at {where}",
                path=path,
            )
        return feedback(inner)
    raise TypeError(f"not a component: {c!r}")
