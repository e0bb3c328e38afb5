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
    check_wf,
    field_values,
    numbered,
    rename_slots,
    shape,
)
from .errors import (
    EmptyFeedbackSignature,
    FeedbackOnNonDecomposable,
    KindError,
    NotDecomposable,
    NotDeterministic,
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
    check_wf(Serial(Atomic(l), Atomic(r)))
    return _serial(l, r)


def _serial(l: AtomicComponent, r: AtomicComponent) -> AtomicComponent:
    # `serial` on operands known to fit together
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


def _deps(c):
    """(oi, loop_free) of a term whose atoms are all deterministic, derived
    children first and kept on the node, or None; the message of the
    EmptyFeedbackSignature that `oi` or `loop_free` raises stands in place of
    its value.  Loop-freeness is decided by the first feedback in pre-order
    that fails or closes a same-step dependency."""
    c = as_component(c)
    d = c.__dict__
    if "_deps" in d:
        return d["_deps"]
    deps = None
    if isinstance(c, Atomic):
        if isinstance(c.atom, (Det, StatelessDet)):
            xs = list(enumerate(c.atom.inputs, start=1))
            refs = enumerate((free_refs(e)[0] for e in c.atom.out), start=1)
            deps = frozenset((i, j) for i, plain in refs for j, x in xs if x in plain), True
    elif isinstance(c, Fdbk) and (child := _deps(c.child)):
        rel, free = child
        ins, outs, _ = shape(c.child)
        looped = _failed(rel, outs, ins) or frozenset(
            (i, j)
            for i in range(1, len(outs))
            for j in range(1, len(ins))
            if (i + 1, j + 1) in rel or ((i + 1, 1) in rel and (1, j + 1) in rel)
        )
        # this feedback answers loop-freeness before the ones inside it
        if isinstance(rel, str):
            free = rel
        elif (1, 1) in rel:
            free = False
        deps = looped, free
    elif isinstance(c, (Serial, Parallel)) and (left := _deps(c.left)) and (right := _deps(c.right)):
        (rel, free), (rel2, free2) = left, right
        if isinstance(c, Serial):
            joined = _failed(rel, rel2) or frozenset((i, j) for (i, k) in rel2 for (k2, j) in rel if k == k2)
        else:
            ins, outs, _ = shape(c.left)
            joined = _failed(rel, rel2, ins, outs) or rel | {(i + len(outs), j + len(ins)) for (i, j) in rel2}
        deps = joined, free2 if free is True else free  # the left's feedback nodes come first
    d["_deps"] = deps
    return deps


def _failed(*values):
    return next((v for v in values if isinstance(v, str)), None)


def determ(c) -> bool:
    """True when every atomic leaf is deterministic."""
    return _deps(c) is not None


def _dep(c, i: int, what: str):
    deps = _deps(c)
    if deps is None:
        raise NotDeterministic(f"{what} is defined for deterministic components")
    if isinstance(deps[i], str):
        raise EmptyFeedbackSignature(deps[i])
    return deps[i]


def oi(c) -> frozenset:
    """Output-input dependency relation, 1-based positional indices."""
    return _dep(c, 0, "the dependency relation")


def loop_free(c) -> bool:
    """True when no feedback loop closes a same-step dependency."""
    return _dep(c, 1, "loop-freeness")


def atomic(c) -> AtomicComponent:
    """Collapse a composite component term into an equivalent atomic one.

    Fails (FeedbackOnNonDecomposable) exactly when a feedback is applied over
    a component whose first output still depends on its first input.  The
    component keeps the atomic form once computed, and a composite containing
    it reuses it; a failure raises again on every call.  A term whose leaves
    are deterministic and bind no variable collapses in one walk
    (_collapse_det), any other one operand pair at a time (_atomic).
    """
    c = as_component(c)
    d = c.__dict__
    a = d.get("_atomic")
    if a is None:
        check_wf(c)
        a = d["_atomic"] = _collapse_det(c) or _atomic(c, ())
    return a


def _leaf(c):
    """The atom, or kept atomic form, of a term taken as a leaf, else None."""
    if isinstance(c, AtomicComponent):
        return c
    return c.atom if isinstance(c, Atomic) else c.__dict__.get("_atomic")


def _collapse_det(c: Component):
    """_atomic's result for a term whose leaves are all deterministic and
    bind no variable, in one left-to-right walk on explicit stacks; None for
    any other term, for a leaf under feedbacks, and where a feedback is not
    decomposable (_atomic then raises with the path).  Each leaf is renamed
    once, straight to the names of _atomic's root step: under the root's
    feedbacks, a serial root names its inputs x0.., its left subtree's states
    u0.. and its right's v0..; a parallel root its inputs x0.. and states
    s0...  Inputs that a step substitutes away are named #0, #1, ..., which
    no parsed name can spell; the root's feedbacks consume x0, x1, ....  Each
    node then does _atomic's step on plain fields, as simplification and
    substitution commute with injective renaming where nothing is bound, and
    the result is built, and checked, once."""
    chain, top = [], c  # the root's feedbacks, stacked so that they come last
    while isinstance(top, Fdbk) and _leaf(top) is None:
        chain.append((top, "exit", None))
        top = top.child
    if _leaf(top) is not None:
        return None
    count, looped = dict.fromkeys("#xuvs", 0), 0

    def fresh(prefix: str, v: Var) -> Var:
        count[prefix] += 1
        return Var(f"{prefix}{count[prefix] - 1}", v.ty)

    # pass 1, pre-order: check and name the leaves; each feedback below the
    # root's takes the next input met after it.  The plan lists the leaves
    # and nodes in post-order
    plan, sides = [], ("u", "v") if isinstance(top, Serial) else ("s", "s")
    stack = chain + [(top, None, False)]
    while stack:
        node, prefix, substituted = stack.pop()
        if prefix == "exit":
            plan.append(node)
        elif (atom := _leaf(node)) is not None:
            if not isinstance(atom, (Det, StatelessDet)) or binders(atom):
                return None
            names = {}
            for v in atom.inputs:
                hidden = substituted or looped > 0
                looped -= hidden and not substituted
                names[v] = fresh("#" if hidden else "x", v)
            for v in atom.states if isinstance(atom, Det) else ():
                names[v] = fresh(prefix, v)
            plan.append((atom, names))
        elif isinstance(node, Fdbk):
            looped += not substituted
            stack += [(node, "exit", None), (node.child, prefix, substituted)]
        else:
            left, right = (prefix, prefix) if prefix else sides
            stack += [
                (node, "exit", None),
                (node.right, right, substituted or isinstance(node, Serial)),
                (node.left, left, substituted),
            ]
    # pass 2: (inputs, states, init_vals, inpt, next, out, det) of each
    # subterm on a stack
    vals = []
    for step in plan:
        if isinstance(step, tuple):
            atom, names = step
            apply = substitution({v: VarRef(w) for v, w in names.items()})
            det = isinstance(atom, Det)
            states, init, nxt = (atom.states, atom.init_vals, atom.next) if det else ((), (), ())
            vals.append((
                [names[v] for v in atom.inputs], [names[v] for v in states], list(init),
                apply(atom.inpt), list(map(apply, nxt)), list(map(apply, atom.out)), det,
            ))
            continue
        ins, states, init, inpt, nxt, out, det = vals.pop()
        if isinstance(step, Fdbk):
            if not ins or not out or ins[0] in free_refs(out[0])[0]:
                return None  # not decomposable
            apply = substitution({ins[0]: out[0]})
            vals.append((ins[1:], states, init, simplify(apply(inpt)), list(map(apply, nxt)), list(map(apply, out[1:])), det))
            continue
        lins, lstates, linit, linpt, lnxt, lout, ldet = vals.pop()
        lstates += states
        linit += init
        if isinstance(step, Serial):
            apply = substitution(dict(zip(ins, lout)))
            lnxt += map(apply, nxt)
            vals.append((lins, lstates, linit, simplify(And(linpt, apply(inpt))), lnxt, list(map(apply, out)), ldet or det))
        else:
            lnxt += nxt
            vals.append((lins + ins, lstates, linit, simplify(And(linpt, inpt)), lnxt, lout + out, ldet or det))
    ins, states, init, inpt, nxt, out, det = vals.pop()
    if det:
        return Det(Signature(tuple(ins)), Signature(tuple(states)), tuple(init), inpt, tuple(nxt), tuple(out))
    return StatelessDet(Signature(tuple(ins)), inpt, tuple(out))


def _atomic(c, path: tuple) -> AtomicComponent:
    c = as_component(c)
    if isinstance(c, Atomic):
        return c.atom
    kept = c.__dict__.get("_atomic")
    if kept is not None:
        return kept
    if isinstance(c, Serial):
        return _serial(_atomic(c.left, path + ("left",)), _atomic(c.right, path + ("right",)))
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
