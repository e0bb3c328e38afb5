"""First-order formulas with primed variables and linear-temporal operators,
plus the symbolic manipulations everything else is built from: free-variable
analysis, capture-avoiding substitution, next-shifting, and a terminating
rewrite-based simplifier.

Terms and formulas share one traversal.  `children(node)` lists the fields of
a node that hold subterms or subformulas, in declaration order, with a tuple
field (the arguments of `App` and `Atom`) contributing its elements in order;
variables, constants, symbols and types are not children.  `rebuild(node,
kids)` is the inverse: the same node with its children replaced, in that
order.  `nodes(root)` visits every node in pre-order, left to right, together
with the set of variables bound there; `rewrite(root, fn)` rebuilds a tree
top-down, with `fn(node, bound)` returning a replacement for a whole subtree
or None to descend into it.  `Forall` and `Exists` are the only binders: the
set bound at their body is the set at the binder plus their `var`, and it
covers both plain and primed references to that variable.  Free variables,
substitution, next-shifting, renaming and the collection of constants and
types all go through these functions; the printers, `type_of`, the
simplifier's rewrite pass and the oracle's evaluators keep their own
per-node semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable, Mapping, Optional

from .errors import PrimedInTemporal, TypeMismatch
from .terms import (
    Const,
    NextRef,
    PREDICATES,
    PrimedRef,
    Term,
    VarRef,
    type_of,
)
from .types import Memo, Var, base_type, is_numeric, keep_hash


class Formula(Memo):
    pass


@dataclass(frozen=True)
class TrueC(Formula):
    pass


@dataclass(frozen=True)
class FalseC(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: Var
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: Var
    body: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Leads(Formula):
    """phi L psi: whenever phi holds continuously up to step n-1, psi holds at n."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Globally(Formula):
    arg: Formula


@dataclass(frozen=True)
class Finally(Formula):
    arg: Formula


keep_hash(*Formula.__subclasses__())

TRUEC = TrueC()
FALSEC = FalseC()


def atom(pred: str, *args: Term) -> Atom:
    if pred not in PREDICATES:
        raise TypeMismatch(f"unknown predicate symbol {pred!r}")
    tys = [type_of(a) for a in args]
    if pred in ("=", "!="):
        if base_type(tys[0]) != base_type(tys[1]) and not all(is_numeric(t) for t in tys):
            raise TypeMismatch(f"{pred} on incompatible types {tys[0].short()} / {tys[1].short()}")
    else:
        if not all(is_numeric(t) for t in tys):
            raise TypeMismatch(f"{pred} needs numeric arguments")
    return Atom(pred, tuple(args))


def eq(a: Term, b: Term) -> Atom:
    return atom("=", a, b)


def conj(fs: Iterable[Formula]) -> Formula:
    fs = list(fs)
    if not fs:
        return TRUEC
    out = fs[0]
    for f in fs[1:]:
        out = And(out, f)
    return out


def disj(fs: Iterable[Formula]) -> Formula:
    fs = list(fs)
    if not fs:
        return FALSEC
    out = fs[0]
    for f in fs[1:]:
        out = Or(out, f)
    return out


def conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        return conjuncts(f.left) + conjuncts(f.right)
    return [f]


def forall_many(vs: Iterable[Var], body: Formula) -> Formula:
    for v in reversed(list(vs)):
        body = Forall(v, body)
    return body


def exists_many(vs: Iterable[Var], body: Formula) -> Formula:
    for v in reversed(list(vs)):
        body = Exists(v, body)
    return body


# --- traversal ------------------------------------------------------------

_CHILD_TYPES = ("Term", "Formula", "tuple[Term, ...]")
# node class -> (name, holds a tuple) of each field holding subterms or
# subformulas, in declaration order
_CHILD_FIELDS = {
    cls: tuple(
        (f.name, f.type.startswith("tuple")) for f in fields(cls) if f.type in _CHILD_TYPES
    )
    for cls in (*Term.__subclasses__(), *Formula.__subclasses__())
}


def children(node) -> tuple:
    """The subterms and subformulas of a node, in field order."""
    out = ()
    for name, many in _CHILD_FIELDS[type(node)]:
        value = getattr(node, name)
        out += value if many else (value,)
    return out


def rebuild(node, kids):
    """node with its children replaced by kids, given in children() order."""
    kids = tuple(kids)
    changes, i = {}, 0
    for name, many in _CHILD_FIELDS[type(node)]:
        if many:
            n = len(getattr(node, name))
            changes[name] = kids[i : i + n]
            i += n
        else:
            changes[name] = kids[i]
            i += 1
    return replace(node, **changes)


def nodes(root):
    """Every node of a term or formula in pre-order, left to right, each with
    the variables bound at it."""
    stack = [(root, frozenset())]
    while stack:
        node, bound = stack.pop()
        yield node, bound
        kids = children(node)
        if kids:
            if isinstance(node, (Forall, Exists)):
                bound = bound | {node.var}
            for k in reversed(kids):
                stack.append((k, bound))


def rewrite(root, fn: Callable[..., Optional[object]], bound: frozenset = frozenset(), memo: dict = None):
    """Rebuild a term or formula top-down: fn(node, bound) returns the
    replacement of the whole subtree at node, or None to keep node and
    rewrite its children.  Unchanged subtrees are returned as they are.
    With a memo (id -> (node, result)), a subtree rebuilt outside every
    binder is rebuilt once, so what was shared stays shared."""
    new = fn(root, bound)
    if new is not None:
        return new
    kids = children(root)
    if not kids:
        return root
    keep = memo is not None and not bound
    if keep and (hit := memo.get(id(root))) is not None:
        return hit[1]
    if isinstance(root, (Forall, Exists)):
        bound = bound | {root.var}
    new_kids, changed = [], False
    for k in kids:
        new = rewrite(k, fn, bound, memo)
        changed = changed or new is not k
        new_kids.append(new)
    if not changed:
        return root
    new = rebuild(root, new_kids)
    if keep:
        memo[id(root)] = root, new
    return new


_TEMPORAL = (NextRef, Until, Leads, Globally, Finally)


def free_refs(node) -> tuple[frozenset[Var], frozenset[Var], bool]:
    """Free plain and free primed variables of a term or formula, and whether
    a temporal operator or next occurs in it anywhere.  A node keeps the
    triple once computed."""
    d = node.__dict__
    if "_free" not in d:
        _derive_scope(node)
    return d["_free"]


def bound_vars(node) -> frozenset[Var]:
    """The variables bound by a quantifier anywhere in a term or formula."""
    d = node.__dict__
    if "_binders" not in d:
        _derive_scope(node)
    return d["_binders"]


_NONE: frozenset[Var] = frozenset()


def _derive_scope(root):
    """Keep the free references and the binders on root and on every node
    below it that lacks them, each computed from its children's.  Children
    go first, on an explicit stack: no formula is too deep for it."""
    stack = [root]
    while stack:
        node = stack[-1]
        d = node.__dict__
        if "_free" in d:  # a shared subtree, reached twice
            stack.pop()
            continue
        if isinstance(node, VarRef):
            d["_free"], d["_binders"] = (frozenset((node.var,)), _NONE, False), _NONE
            stack.pop()
            continue
        if isinstance(node, PrimedRef):
            d["_free"], d["_binders"] = (_NONE, frozenset((node.var,)), False), _NONE
            stack.pop()
            continue
        kids = children(node)
        todo = [k for k in kids if "_free" not in k.__dict__]
        if todo:
            stack += todo
            continue
        stack.pop()
        plain = primed = binders = _NONE
        temporal = isinstance(node, _TEMPORAL)
        for k in kids:
            kd = k.__dict__
            p, q, t = kd["_free"]
            b = kd["_binders"]
            if p:
                plain = _union(plain, p)
            if q:
                primed = _union(primed, q)
            if b:
                binders = _union(binders, b)
            temporal = temporal or t
        if isinstance(node, (Forall, Exists)):
            v = node.var
            if v in plain:
                plain = plain - {v}
            if v in primed:
                primed = primed - {v}
            if v not in binders:
                binders = binders | {v}
        d["_free"] = (plain, primed, temporal)
        d["_binders"] = binders


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, reusing a or b when it contains the other."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def first_free(node, among, primed: bool = False) -> Optional[Var]:
    """The variable of the first free plain (or primed) reference to one of
    `among` in a term or formula, in pre-order, left to right; None if there
    is none."""
    ref = PrimedRef if primed else VarRef
    for n, bound in nodes(node):
        if isinstance(n, ref) and n.var in among and n.var not in bound:
            return n.var
    return None


@dataclass(frozen=True)
class FreeVars:
    vars: frozenset[Var]
    uses_primed: bool
    uses_temporal: bool


def free_vars(f: Formula) -> FreeVars:
    """Free variables of a formula; primed occurrences report the underlying
    variable with the uses_primed flag set."""
    plain, primed, temporal = free_refs(f)
    return FreeVars(_union(plain, primed), bool(primed), temporal)


def is_temporal(f: Formula) -> bool:
    return free_vars(f).uses_temporal


def uses_primed(f: Formula) -> bool:
    """True if any primed reference occurs, bound or not."""
    return any(isinstance(n, PrimedRef) for n, _ in nodes(f))


def fresh_var(base: Var, avoid: set[Var]) -> Var:
    """A variable with base's type whose name collides with nothing in avoid."""
    names = {v.name for v in avoid}
    if base.name not in names:
        return base
    stem = base.name.rstrip("0123456789")
    if not stem:
        stem = base.name
    for i in itertools.count():
        cand = f"{stem}{i}"
        if cand not in names:
            return Var(cand, base.ty)
    raise AssertionError


def substitute(f, sigma: Mapping[Var, Term], primed_sigma: Mapping[Var, Term] = None):
    """Capture-avoiding simultaneous substitution of free occurrences in a
    term or formula.

    Plain occurrences are replaced per sigma, primed occurrences per
    primed_sigma; each replacement must have the replaced variable's type.
    Bound variables are renamed when a replacement term would otherwise
    capture them.
    """
    return substitution(sigma, primed_sigma)(f)


def substitution(sigma: Mapping[Var, Term], primed_sigma: Mapping[Var, Term] = None):
    """`substitute(_, sigma, primed_sigma)` as a function, prepared once for
    the many terms and formulas of one component."""
    return _substitution(sigma, primed_sigma or {}, None)


def _substitution(sigma: Mapping, primed_sigma: Mapping, range_vars: Optional[set]):
    def ranges() -> set:  # the variables of the replacements
        nonlocal range_vars
        if range_vars is None:
            range_vars = set()
            for t in (*sigma.values(), *primed_sigma.values()):
                plain, primed, _ = free_refs(t)
                range_vars |= plain | primed
        return range_vars

    # an entry that maps a variable to a reference to itself replaces
    # nothing; it still counts among the ranges, so binders are renamed alike
    keys = {v for v, t in sigma.items() if type(t) is not VarRef or t.var != v}
    primed_keys = {v for v, t in primed_sigma.items() if type(t) is not PrimedRef or t.var != v}

    def step(g, bound):
        plain, primed, _ = free_refs(g)
        if keys.isdisjoint(plain) and primed_keys.isdisjoint(primed):
            # nothing to replace; unchanged unless a binder must be renamed
            binders = bound_vars(g)
            if not binders or binders.isdisjoint(ranges()):
                return g
        if isinstance(g, VarRef):
            if g.var in keys and g.var not in bound:
                return _checked(sigma[g.var], g.var)
            return g
        if isinstance(g, PrimedRef):
            if g.var in primed_keys and g.var not in bound:
                return _checked(primed_sigma[g.var], g.var)
            return g
        if isinstance(g, (Forall, Exists)) and g.var in ranges():
            inner = bound | {g.var}
            live = {v: t for v, t in sigma.items() if v not in inner}
            live_primed = {v: t for v, t in primed_sigma.items() if v not in inner}
            if live or live_primed:
                v2 = fresh_var(g.var, free_vars(g.body).vars | range_vars)
                live[g.var] = VarRef(v2)
                body = _substitution(live, live_primed, range_vars | {v2})(g.body)
                return type(g)(v2, body)
        return None

    memo = {}
    return lambda f: rewrite(f, step, memo=memo)


def _checked(replacement: Term, v: Var) -> Term:
    want = base_type(v.ty)
    got = type_of(replacement)
    if got != want:
        raise TypeMismatch(
            f"cannot substitute {v.name}:{v.ty.short()} by a term of type {got.short()}"
        )
    return replacement


def substitute_primed(f: Formula, sigma: Mapping[Var, Term]) -> Formula:
    """Replace primed occurrences only: f[v' := sigma[v]]."""
    return substitute(f, {}, sigma)


def apply_next(f: Formula) -> Formula:
    """Shift a temporal formula one step: every free variable occurrence x
    becomes next(x), including under existing next operators."""
    if uses_primed(f):
        raise PrimedInTemporal("cannot next-shift a formula with primed references")
    return rewrite(
        f, lambda g, bound: NextRef(g) if isinstance(g, VarRef) and g.var not in bound else None
    )


# --- simplification -------------------------------------------------------

_MAX_PASSES = 200


def simplify(f: Formula) -> Formula:
    """Rewrite to a fixed point with semantics-preserving rules: boolean
    identities, the one-point rule, quantifier miniscoping, and the L/G
    rewrites (side conditions checked syntactically).  Purely syntactic;
    no solver calls."""
    for _ in range(_MAX_PASSES):
        g = _pass(f)
        if g is f or g == f:
            return g
        f = g
    return f


def _pass(f: Formula) -> Formula:
    """One bottom-up rewrite pass.  A node the pass leaves equal is returned
    as itself and keeps the mark `_fixed`, so a later pass returns it at
    once; atoms and constants get no mark."""
    if isinstance(f, (TrueC, FalseC, Atom)):
        return _ground_atom(f) if isinstance(f, Atom) else f
    d = f.__dict__
    if "_fixed" in d:
        return f
    if isinstance(f, Not):
        g = _simp_not(_pass(f.arg))
    elif isinstance(f, And):
        g = _simp_and(_pass(f.left), _pass(f.right))
    elif isinstance(f, Or):
        g = _simp_or(_pass(f.left), _pass(f.right))
    elif isinstance(f, Implies):
        g = _simp_implies(_pass(f.left), _pass(f.right))
    elif isinstance(f, Iff):
        g = _simp_iff(_pass(f.left), _pass(f.right))
    elif isinstance(f, Forall):
        g = _simp_forall(f.var, _pass(f.body))
    elif isinstance(f, Exists):
        g = _simp_exists(f.var, _pass(f.body))
    elif isinstance(f, Until):
        g = _simp_until(_pass(f.left), _pass(f.right))
    elif isinstance(f, Leads):
        g = _simp_leads(_pass(f.left), _pass(f.right))
    elif isinstance(f, Globally):
        g = _simp_globally(_pass(f.arg))
    elif isinstance(f, Finally):
        g = _simp_finally(_pass(f.arg))
    else:
        raise TypeError(f"not a formula: {f!r}")
    if g == f:
        d["_fixed"] = True
        return f
    return g


def _ground_atom(f: Atom) -> Formula:
    """Fold atoms over literal constants or syntactically equal arguments."""
    if f.args[0] == f.args[1]:
        return TRUEC if f.pred in ("=", "<=", ">=") else FALSEC
    vals = []
    for t in f.args:
        if not isinstance(t, Const):
            return f
        vals.append(t.value)
    a, b = vals
    try:
        res = {
            "=": a == b,
            "!=": a != b,
            "<": a < b,
            "<=": a <= b,
            ">": a > b,
            ">=": a >= b,
        }[f.pred]
    except TypeError:
        return f
    return TRUEC if res else FALSEC


def _simp_not(a: Formula) -> Formula:
    if isinstance(a, TrueC):
        return FALSEC
    if isinstance(a, FalseC):
        return TRUEC
    if isinstance(a, Not):
        return a.arg
    return Not(a)


def _simp_and(a: Formula, b: Formula) -> Formula:
    if isinstance(a, FalseC) or isinstance(b, FalseC):
        return FALSEC
    if isinstance(a, TrueC):
        return b
    if isinstance(b, TrueC):
        return a
    if a == b:
        return a
    (ca, free_a), (cb, free_b) = _conjunct_set(a), _conjunct_set(b)
    if cb <= ca:
        return a
    if not (free_a and free_b) or _clash(ca, cb):
        return FALSEC
    out = And(a, b)
    out.__dict__["_conjuncts"] = ca | cb, True
    return out


def _conjunct_set(f: Formula) -> tuple[frozenset, bool]:
    """The set of f's conjuncts, and whether no two of them clash (one is
    the other's `complement_atom`).  An And keeps the pair once computed;
    other formulas are one conjunct and keep nothing."""
    if not isinstance(f, And):
        return frozenset((f,)), True
    d = f.__dict__
    kept = d.get("_conjuncts")
    if kept is None:
        (ca, free_a), (cb, free_b) = _conjunct_set(f.left), _conjunct_set(f.right)
        kept = d["_conjuncts"] = ca | cb, free_a and free_b and not _clash(ca, cb)
    return kept


def _clash(a: frozenset, b: frozenset) -> bool:
    """Whether a conjunct of a clashes with one of b.  complement_atom is not
    an involution (Not(Not(q)) -> Not(q) -> q), so each conjunct q of the
    smaller set is tested both ways: q's complement in the other, or Not(q),
    whose complement is q."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    return any(complement_atom(q) in large or Not(q) in large for q in small)


_COMPLEMENT = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


def complement_atom(f: Formula) -> Formula:
    if isinstance(f, Atom):
        return Atom(_COMPLEMENT[f.pred], f.args)
    if isinstance(f, Not):
        return f.arg
    return Not(f)


def _simp_or(a: Formula, b: Formula) -> Formula:
    if isinstance(a, TrueC) or isinstance(b, TrueC):
        return TRUEC
    if isinstance(a, FalseC):
        return b
    if isinstance(b, FalseC):
        return a
    if a == b:
        return a
    # excluded middle over the total orders of the value types
    parts = _disjuncts(a) + _disjuncts(b)
    seen = set(parts)
    for p in parts:
        if complement_atom(p) in seen:
            return TRUEC
    # factor shared conjuncts out of a pair of disjuncts; the enclosing
    # fixed-point loop re-simplifies the result
    for i in range(len(parts)):
        ci = conjuncts(parts[i])
        for j in range(i + 1, len(parts)):
            cj = conjuncts(parts[j])
            shared = [c for c in ci if c in cj]
            if shared:
                rest_i = conj([c for c in ci if c not in shared])
                rest_j = conj([c for c in cj if c not in shared])
                merged = _simp_and(conj(shared), _simp_or(rest_i, rest_j))
                rest = [p for k, p in enumerate(parts) if k not in (i, j)]
                return disj([merged] + rest)
    return Or(a, b)


def _simp_implies(a: Formula, b: Formula) -> Formula:
    if isinstance(a, FalseC) or isinstance(b, TrueC):
        return TRUEC
    if isinstance(a, TrueC):
        return b
    if isinstance(b, FalseC):
        return _simp_not(a)
    if a == b or _conjunct_set(b)[0] <= _conjunct_set(a)[0]:
        return TRUEC
    return Implies(a, b)


def _simp_iff(a: Formula, b: Formula) -> Formula:
    if isinstance(a, TrueC):
        return b
    if isinstance(b, TrueC):
        return a
    if isinstance(a, FalseC):
        return _simp_not(b)
    if isinstance(b, FalseC):
        return _simp_not(a)
    if a == b:
        return TRUEC
    return Iff(a, b)


def _one_point_target(v: Var, cand: Formula):
    """If cand is an equation defining v by a term not containing v, return it."""
    if not isinstance(cand, Atom) or cand.pred != "=":
        return None
    lhs, rhs = cand.args
    for a, b in ((lhs, rhs), (rhs, lhs)):
        if isinstance(a, VarRef) and a.var == v:
            plain, primed, _ = free_refs(b)
            if v not in plain and v not in primed and base_type(type_of(b)) == base_type(v.ty):
                return b
    return None


def _simp_exists(v: Var, body: Formula) -> Formula:
    if isinstance(body, (TrueC, FalseC)):
        return body
    fv = free_vars(body)
    if v not in fv.vars:
        return body
    # one-point: exists v: v = e /\ rest  ->  rest[v := e]
    if not fv.uses_temporal:
        parts = conjuncts(body)
        for i, part in enumerate(parts):
            e = _one_point_target(v, part)
            if e is not None:
                rest = conj(parts[:i] + parts[i + 1 :])
                return _pass(substitute(rest, {v: e}))
    # pull conjuncts not mentioning v out of the quantifier
    if isinstance(body, And):
        ins, outs = _split_on_var(conjuncts(body), v)
        if outs:
            return _simp_and(conj(outs), _simp_exists(v, conj(ins)))
    # exists v: G phi  ->  G (exists v: phi)   (phi non-temporal)
    if isinstance(body, Globally) and not is_temporal(body.arg):
        return _simp_globally(_simp_exists(v, body.arg))
    if isinstance(body, Or):
        return _simp_or(_simp_exists(v, body.left), _simp_exists(v, body.right))
    return Exists(v, body)


def _simp_forall(v: Var, body: Formula) -> Formula:
    if isinstance(body, (TrueC, FalseC)):
        return body
    fv = free_vars(body)
    if v not in fv.vars:
        return body
    # one-point: forall v: v = e -> rest  becomes  rest[v := e]
    if isinstance(body, Implies) and not fv.uses_temporal:
        parts = conjuncts(body.left)
        for i, part in enumerate(parts):
            e = _one_point_target(v, part)
            if e is not None:
                ante = conj(parts[:i] + parts[i + 1 :])
                rest = _simp_implies(ante, body.right)
                return _pass(substitute(rest, {v: e}))
    # forall v: (exists v': phi) L psi  <- the Lemma pull-out, applied inward:
    # forall v: (phi L psi) -> (exists v: phi) L psi  when phi non-temporal
    # and v not free in psi.
    if (
        isinstance(body, Leads)
        and not is_temporal(body.left)
        and v not in free_vars(body.right).vars
    ):
        return _simp_leads(_simp_exists(v, body.left), body.right)
    if isinstance(body, And):
        return _simp_and(_simp_forall(v, body.left), _simp_forall(v, body.right))
    if isinstance(body, Or):
        ins, outs = _split_on_var(_disjuncts(body), v)
        if outs:
            return _simp_or(disj(outs), _simp_forall(v, disj(ins)))
    if isinstance(body, Implies) and v not in free_vars(body.left).vars:
        return _simp_implies(body.left, _simp_forall(v, body.right))
    return Forall(v, body)


def _disjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, Or):
        return _disjuncts(f.left) + _disjuncts(f.right)
    return [f]


def _split_on_var(parts: list[Formula], v: Var):
    ins = [p for p in parts if v in free_vars(p).vars]
    outs = [p for p in parts if v not in free_vars(p).vars]
    return ins, outs


def _simp_until(a: Formula, b: Formula) -> Formula:
    if isinstance(b, TrueC):
        return TRUEC
    if isinstance(b, FalseC):
        return FALSEC
    if isinstance(a, FalseC):
        return b
    if isinstance(a, TrueC):
        return _simp_finally(b)
    return Until(a, b)


def _simp_leads(a: Formula, b: Formula) -> Formula:
    if isinstance(b, TrueC):
        return TRUEC
    if isinstance(b, FalseC):
        return FALSEC
    if isinstance(a, TrueC):
        return _simp_globally(b)
    if a == b:
        return _simp_globally(b)
    return Leads(a, b)


def _simp_globally(a: Formula) -> Formula:
    if isinstance(a, (TrueC, FalseC)):
        return a
    if isinstance(a, Globally):
        return a
    return Globally(a)


def _simp_finally(a: Formula) -> Formula:
    if isinstance(a, (TrueC, FalseC)):
        return a
    if isinstance(a, Finally):
        return a
    return Finally(a)
