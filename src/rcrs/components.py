"""Atomic components of the five kinds, composite component terms, signatures,
well-formedness, and alpha normalization."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, fields, replace
from typing import ClassVar, Iterable, Iterator, Optional

from .errors import EmptyFeedbackSignature, PrimedInTemporal, TypeMismatch, WfError
from .formulas import (
    Exists,
    Forall,
    Formula,
    bound_vars,
    first_free,
    free_refs,
    rewrite,
    substitute,
    substitution,
    uses_primed,
)
from .terms import Const, PrimedRef, Term, VarRef, type_of
from .types import Memo, SemType, UnitType, Var, base_type


@dataclass(frozen=True)
class Signature:
    """Ordered, flat list of named typed slots with pairwise-distinct names."""

    slots: tuple[Var, ...]

    def __post_init__(self):
        names = [v.name for v in self.slots]
        if len(set(names)) != len(names):
            raise TypeMismatch(f"duplicate slot names in signature: {names}")

    def __len__(self):
        return len(self.slots)

    def __iter__(self):
        return iter(self.slots)

    def __getitem__(self, i):
        return self.slots[i]

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.slots)

    def types(self) -> tuple[SemType, ...]:
        return tuple(v.ty for v in self.slots)

    def vars(self) -> tuple[Var, ...]:
        return self.slots

    def short(self) -> str:
        return "(" + ", ".join(f"{v.name}:{v.ty.short()}" for v in self.slots) + ")"


def sig(*pairs) -> Signature:
    return Signature(tuple(Var(n, t) for n, t in pairs))


class Kind(enum.Enum):
    STATELESS_DET = "stateless_det"
    DET = "det"
    STATELESS = "stateless"
    STS = "sts"
    QLTL = "qltl"


class AtomicComponent(Memo):
    """Base class of the five syntactic component kinds.

    A kind's dataclass fields, in declaration order, are its layout: the
    arguments of its concrete syntax, and what renaming, parallel
    composition and the printer walk (see LAYOUT)."""

    KIND: ClassVar[Kind]
    # formula fields that range over only some of the signature fields; every
    # other formula and term field ranges over all of them
    SCOPES: ClassVar[dict[str, tuple[str, ...]]] = {}
    inputs: Signature

    def kind(self) -> Kind:
        return self.KIND

    def all_vars(self) -> set[Var]:
        """The slots of every signature field; the derived outputs of the
        deterministic kinds are not among them."""
        return {v for name in SIGNATURE_FIELDS[type(self)] for v in getattr(self, name).slots}


def _check_free(f: Formula, allowed_plain, allowed_primed, what: str, temporal_ok=False):
    plain_used, primed_used, temporal = free_refs(f)
    if temporal and not temporal_ok:
        raise TypeMismatch(f"{what} must not contain temporal operators")
    if temporal_ok and uses_primed(f):
        raise PrimedInTemporal(f"{what} must not contain primed references")
    stray = primed_used - set(allowed_primed)
    if stray:
        v = first_free(f, stray, primed=True)
        raise TypeMismatch(f"{what}: primed reference to non-state variable {v.name}")
    stray = plain_used - set(allowed_plain)
    if stray:
        raise TypeMismatch(f"{what}: variable {first_free(f, stray).name} is not declared")


@dataclass(frozen=True)
class Sts(AtomicComponent):
    """General component: init over states, transition formula over
    states + inputs + primed states + outputs."""

    KIND = Kind.STS
    SCOPES = {"init": ("states",)}
    inputs: Signature
    outputs: Signature
    states: Signature
    init: Formula
    trs: Formula

    def __post_init__(self):
        _check_names_disjoint(self.inputs, self.outputs, self.states)
        _check_free(self.init, self.states.vars(), (), "init")
        _check_free(self.trs, self.all_vars(), self.states.vars(), "transition formula")


@dataclass(frozen=True)
class Stateless(AtomicComponent):
    KIND = Kind.STATELESS
    inputs: Signature
    outputs: Signature
    io: Formula

    def __post_init__(self):
        _check_names_disjoint(self.inputs, self.outputs)
        _check_free(self.io, self.all_vars(), (), "contract")


def _derived_outputs(c: Det | StatelessDet) -> Signature:
    """The output signature of a deterministic kind: one slot per output
    term, named y0, y1, ... apart from the component's own slots.  The
    component keeps it once derived."""
    d = c.__dict__
    outputs = d.get("_outputs")
    if outputs is None:
        gen = NameGen(v.name for v in c.all_vars())
        outputs = d["_outputs"] = Signature(tuple(gen.fresh("y", type_of(t)) for t in c.out))
    return outputs


@dataclass(frozen=True)
class Det(AtomicComponent):
    """Deterministic component: a legal-input predicate, a next-state term
    tuple, and an output term tuple; the output signature is derived."""

    KIND = Kind.DET
    inputs: Signature
    states: Signature
    init_vals: tuple[Const, ...]
    inpt: Formula
    next: tuple[Term, ...]
    out: tuple[Term, ...]

    def __post_init__(self):
        _check_names_disjoint(self.inputs, self.states)
        if len(self.init_vals) != len(self.states) or len(self.next) != len(self.states):
            raise TypeMismatch("state arity mismatch between states, initial values, and next")
        for c, v in zip(self.init_vals, self.states.vars()):
            if base_type(c.ty) != base_type(v.ty):
                raise TypeMismatch(f"initial value for {v.name} has type {c.ty.short()}")
        scope = self.all_vars()
        _check_free(self.inpt, scope, (), "legal-input predicate")
        for t in self.next + self.out:
            _check_term_scope(t, scope)

    outputs = property(_derived_outputs)


@dataclass(frozen=True)
class StatelessDet(AtomicComponent):
    KIND = Kind.STATELESS_DET
    inputs: Signature
    inpt: Formula
    out: tuple[Term, ...]

    def __post_init__(self):
        scope = self.all_vars()
        _check_free(self.inpt, scope, (), "legal-input predicate")
        for t in self.out:
            _check_term_scope(t, scope)

    outputs = property(_derived_outputs)


@dataclass(frozen=True)
class Qltl(AtomicComponent):
    KIND = Kind.QLTL
    inputs: Signature
    outputs: Signature
    phi: Formula

    def __post_init__(self):
        _check_names_disjoint(self.inputs, self.outputs)
        _check_free(self.phi, self.all_vars(), (), "temporal contract", temporal_ok=True)


_ROLES = {
    "Signature": "signature",
    "Formula": "formula",
    "tuple[Const, ...]": "values",
    "tuple[Term, ...]": "terms",
}
# atomic kind class -> (name, role) of each field, in declaration order; a
# role is "signature", "formula", "values" (initial values) or "terms"
LAYOUT = {
    cls: tuple((f.name, _ROLES[f.type]) for f in fields(cls))
    for cls in AtomicComponent.__subclasses__()
}
KIND_CLASS = {cls.KIND: cls for cls in LAYOUT}
SIGNATURE_FIELDS = {
    cls: tuple(name for name, role in layout if role == "signature")
    for cls, layout in LAYOUT.items()
}


def field_values(c: AtomicComponent, role: str) -> list:
    """The values of c's fields with the given role, in field order."""
    return [getattr(c, name) for name, r in LAYOUT[type(c)] if r == role]


def _check_names_disjoint(*sigs: Signature):
    seen: dict[str, SemType] = {}
    for s in sigs:
        for v in s:
            if v.name in seen:
                raise TypeMismatch(f"variable name {v.name} declared twice")
            seen[v.name] = v.ty


def _check_term_scope(t: Term, scope: set[Var]):
    plain, primed, temporal = free_refs(t)
    if temporal:
        raise PrimedInTemporal("next operators are not allowed in deterministic payload terms")
    if primed:
        raise TypeMismatch("primed references are not allowed in deterministic payload terms")
    stray = plain - scope
    if stray:
        raise TypeMismatch(f"term variable {first_free(t, stray).name} is not declared")
    type_of(t)


# --- composite terms ------------------------------------------------------


class Component(Memo):
    pass


@dataclass(frozen=True)
class Atomic(Component):
    atom: AtomicComponent


@dataclass(frozen=True)
class Serial(Component):
    left: Component
    right: Component


@dataclass(frozen=True)
class Parallel(Component):
    left: Component
    right: Component


@dataclass(frozen=True)
class Fdbk(Component):
    child: Component


def as_component(c) -> Component:
    if isinstance(c, AtomicComponent):
        return Atomic(c)
    if isinstance(c, Component):
        return c
    raise TypeError(f"not a component: {c!r}")


def subterms(c: Component, path=()) -> Iterable[tuple[tuple, Component]]:
    yield path, c
    if isinstance(c, (Serial, Parallel)):
        yield from subterms(c.left, path + ("left",))
        yield from subterms(c.right, path + ("right",))
    elif isinstance(c, Fdbk):
        yield from subterms(c.child, path + ("child",))


def shape(c) -> tuple:
    """(inputs, outputs, failure) of a component term, derived children first
    and kept on composite nodes.  A side is an atom's own signature where the
    recursion passes one through, else the generated slot types, which
    sigma_in and sigma_out name x0.. and y0..; or, for a feedback over a
    child with no slot on that side, the message of EmptyFeedbackSignature.
    The failure is the first reason, children first, why the term is not
    well-formed (serial stages agree positionally on types, feedback loops a
    slot of matching non-unit type), or None."""
    c = as_component(c)
    if isinstance(c, Atomic):
        return c.atom.inputs, c.atom.outputs, None
    kept = c.__dict__.get("_shape")
    if kept is None:
        # the composite nodes without a shape, in pre-order on an explicit
        # stack; shaped in reverse, each after its children
        order, stack = [], [c]
        while stack:
            node = stack.pop()
            order.append(node)
            for k in (node.child,) if isinstance(node, Fdbk) else (node.left, node.right):
                if isinstance(k, (Serial, Parallel, Fdbk)) and "_shape" not in k.__dict__:
                    stack.append(k)
        for node in reversed(order):
            node.__dict__["_shape"] = _shape(node)
        kept = c.__dict__["_shape"]
    return kept


def _shape(c: Component) -> tuple:
    if isinstance(c, Fdbk):
        ins, outs, bad = shape(c.child)
        if bad is None and not (ins and outs):
            bad = "feedback child lacks an input or output slot"
        elif bad is None:
            a, b = _types(ins)[0], _types(outs)[0]
            if a != b:
                bad = f"feedback type mismatch: first input {a.short()} vs first output {b.short()}"
            elif isinstance(a, UnitType):
                bad = "feedback over a unit-typed slot is rejected"
        return _generated(ins, looped="input"), _generated(outs, looped="output"), bad
    (ins, mid, bad), (mid2, outs, bad2) = shape(c.left), shape(c.right)
    bad = bad or bad2
    if isinstance(c, Parallel):
        return _generated(ins, mid2), _generated(mid, outs), bad
    if bad is None and len(mid) != len(mid2):
        bad = f"serial arity mismatch: {len(mid)} outputs vs {len(mid2)} inputs"
    elif bad is None:
        slots = enumerate(zip(_types(mid), _types(mid2)), start=1)
        bad = next(
            (f"serial type mismatch at slot {i}: {a.short()} vs {b.short()}" for i, (a, b) in slots if a != b), None
        )
    return ins, outs, bad


def _types(side: Signature | tuple) -> tuple:
    return side.types() if isinstance(side, Signature) else side


def _generated(*sides, looped: str = "") -> tuple | str:
    """The slot types of the sides, less the first when it is looped back;
    or the first side that is a message, or one for a looped empty side."""
    for side in sides:
        if isinstance(side, str):
            return side
    tys = tuple(t for side in sides for t in _types(side))
    if looped and not tys:
        return f"feedback child has no {looped} slot"
    return tys[1:] if looped else tys


def _side(side: Signature | tuple | str, prefix: str) -> Signature:
    if isinstance(side, str):
        raise EmptyFeedbackSignature(side)
    if isinstance(side, Signature):
        return side
    return Signature(tuple(Var(f"{prefix}{i}", t) for i, t in enumerate(side)))


def sigma_in(c) -> Signature:
    """Input signature, computed per the structural recursion (see shape)."""
    return _side(shape(c)[0], "x")


def sigma_out(c) -> Signature:
    return _side(shape(c)[1], "y")


@dataclass(frozen=True)
class WfResult:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self):
        return self.ok


def wf(c) -> WfResult:
    """Well-formedness (see shape)."""
    reason = shape(c)[2]
    return WfResult(reason is None, reason)


def check_wf(c) -> None:
    """Raise WfError with the reason why c is not well-formed, if it is not."""
    if (reason := shape(c)[2]) is not None:
        raise WfError(reason)


# --- alpha normalization ----------------------------------------------------


class NameGen:
    """Deterministic fresh-name source; one instance per renaming scope."""

    def __init__(self, avoid: Iterable[str] = ()):
        self._avoid = set(avoid)
        self._counters: dict[str, int] = {}

    def fresh(self, prefix: str, ty: SemType) -> Var:
        i = self._counters.get(prefix, 0)
        while (name := f"{prefix}{i}") in self._avoid:
            i += 1
        self._counters[prefix] = i + 1
        self._avoid.add(name)
        return Var(name, ty)


def rename_atomic(c: AtomicComponent, mapping: dict[Var, Var]) -> AtomicComponent:
    """Rename slots and free plain and primed occurrences per the variable
    mapping."""
    apply = substitution(
        {v: VarRef(w) for v, w in mapping.items()}, {v: PrimedRef(w) for v, w in mapping.items()}
    )

    def rename(value, role):
        if role == "signature":
            return Signature(tuple(mapping.get(v, v) for v in value))
        if role == "formula":
            return apply(value)
        return tuple(map(apply, value))

    return type(c)(*(rename(getattr(c, name), role) for name, role in LAYOUT[type(c)]))


def binders(c: AtomicComponent) -> frozenset[Var]:
    """The variables bound by a quantifier in any formula or term of c."""
    out = frozenset()
    for name, role in LAYOUT[type(c)]:
        value = getattr(c, name)
        if role == "formula":
            out |= bound_vars(value)
        elif role == "terms":
            for t in value:
                out |= bound_vars(t)
    return out


def numbered(prefix: str, start: int = 0) -> Iterator[str]:
    """The generated slot names prefix<start>, prefix<start + 1>, ..."""
    return (f"{prefix}{i}" for i in itertools.count(start))


def rename_slots(
    c: AtomicComponent,
    inputs: Iterable[str],
    outputs: Iterable[str] = (),
    states: Iterable[str] = (),
) -> AtomicComponent:
    """Rename the input, output and state slots of c, in order, to the given
    names; slots beyond the end of a name sequence keep their names, and so
    do the derived outputs of the deterministic kinds."""
    new_names = {"inputs": inputs, "outputs": outputs, "states": states}
    mapping = {
        v: Var(n, v.ty)
        for name in SIGNATURE_FIELDS[type(c)]
        for v, n in zip(getattr(c, name), new_names[name])
    }
    return rename_atomic(c, mapping)


def canonical_atomic(c: AtomicComponent) -> AtomicComponent:
    """Rename local variables to the canonical x0.., y0.., s0.. scheme and
    quantifier-bound names to b0.., numbered in pre-order."""
    c = rename_slots(c, numbered("x"), numbered("y"), numbered("s"))
    counter = itertools.count()

    def bound_names(g, bound):
        if isinstance(g, (Forall, Exists)):
            nv = Var(f"b{next(counter)}", g.var.ty)
            return type(g)(nv, rewrite(substitute(g.body, {g.var: VarRef(nv)}), bound_names))
        return None

    formulas = {name: getattr(c, name) for name, role in LAYOUT[type(c)] if role == "formula"}
    return replace(c, **{name: rewrite(f, bound_names) for name, f in formulas.items()})


def alpha_normalize(c) -> Component:
    """Canonical renaming of all local variables; alpha-equivalent components
    become structurally equal."""
    c = as_component(c)
    if isinstance(c, Atomic):
        return Atomic(canonical_atomic(c.atom))
    if isinstance(c, (Serial, Parallel)):
        return type(c)(alpha_normalize(c.left), alpha_normalize(c.right))
    if isinstance(c, Fdbk):
        return Fdbk(alpha_normalize(c.child))
    raise TypeError(f"not a component: {c!r}")


def alpha_equivalent(a, b) -> bool:
    return alpha_normalize(as_component(a)) == alpha_normalize(as_component(b))
