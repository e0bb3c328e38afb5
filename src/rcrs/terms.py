"""Terms: variable references (plain, primed, next-shifted), constants, and
applications of the fixed function-symbol table."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import TypeMismatch
from .types import BOOL, INT, REAL, Memo, SemType, Var, base_type, intern, is_numeric, keep_hash

Value = Union[bool, int, Fraction, float, str, tuple]


class Term(Memo):
    pass


def _ref(cls, var: Var):
    # one reference of each class per variable (see types.Var), so its kept
    # facts are computed once per variable
    return cls._table.get(var) or intern(cls, var, var=var)


def _reduce_ref(ref):
    return type(ref), (ref.var,)


@dataclass(frozen=True, eq=False, init=False)
class VarRef(Term):
    var: Var
    _table = {}
    __new__, __reduce__ = _ref, _reduce_ref


@dataclass(frozen=True, eq=False, init=False)
class PrimedRef(Term):
    """Next-state occurrence of a state variable inside a transition formula."""

    var: Var
    _table = {}
    __new__, __reduce__ = _ref, _reduce_ref


@dataclass(frozen=True)
class NextRef(Term):
    """Next-step value of a term inside a temporal formula."""

    arg: Term


@dataclass(frozen=True)
class Const(Term):
    value: Value
    ty: SemType


@dataclass(frozen=True)
class App(Term):
    symbol: str
    args: tuple[Term, ...]


keep_hash(NextRef, Const, App)

TRUE = Const(True, BOOL)
FALSE = Const(False, BOOL)

# symbol -> arity; result typing is handled in type_of
FUNCTIONS = {
    "+": 2,
    "-": 2,
    "*": 2,
    "/": 2,
    "neg": 1,
    "ite": 3,
}

PREDICATES = {"=", "!=", "<", "<=", ">", ">="}


def var(name: str, ty: SemType) -> VarRef:
    return VarRef(Var(name, ty))


def intc(value: int) -> Const:
    return Const(value, INT)


def app(symbol: str, *args: Term) -> App:
    if symbol not in FUNCTIONS:
        raise TypeMismatch(f"unknown function symbol {symbol!r}")
    if len(args) != FUNCTIONS[symbol]:
        raise TypeMismatch(f"{symbol} expects {FUNCTIONS[symbol]} arguments")
    return App(symbol, tuple(args))


def add(a: Term, b: Term) -> App:
    return app("+", a, b)


def sub(a: Term, b: Term) -> App:
    return app("-", a, b)


def mul(a: Term, b: Term) -> App:
    return app("*", a, b)


def div(a: Term, b: Term) -> App:
    return app("/", a, b)


def ite(c, a: Term, b: Term) -> App:
    return App("ite", (c, a, b))


def type_of(t: Term) -> SemType:
    """Result type of a term; raises TypeMismatch on ill-typed applications.

    Arithmetic over range-refined integers widens to unbounded int: ranges
    constrain storage slots, not expression results.  A term keeps its type
    once computed; an ill-typed term raises on every call.
    """
    if not isinstance(t, Term):
        raise TypeMismatch(f"not a term: {t!r}")
    d = t.__dict__
    ty = d.get("_type")
    if ty is not None:
        return ty
    if isinstance(t, VarRef) or isinstance(t, PrimedRef):
        ty = base_type(t.var.ty)
    elif isinstance(t, NextRef):
        ty = type_of(t.arg)
    elif isinstance(t, Const):
        ty = base_type(t.ty)
    elif t.symbol == "ite":
        cty = type_of(t.args[0])
        if cty != BOOL:
            raise TypeMismatch("ite condition must be boolean")
        ty = _join_numeric(type_of(t.args[1]), type_of(t.args[2]), "ite")
    elif t.symbol == "neg":
        ty = type_of(t.args[0])
        if not is_numeric(ty):
            raise TypeMismatch("negation needs a numeric argument")
    elif t.symbol in ("+", "-", "*", "/"):
        a, b = map(type_of, t.args)
        if not (is_numeric(a) and is_numeric(b)):
            raise TypeMismatch(f"{t.symbol} needs numeric arguments")
        ty = _join_numeric(a, b, t.symbol)
    else:
        raise TypeMismatch(f"unknown function symbol {t.symbol!r}")
    d["_type"] = ty
    return ty


def _join_numeric(a: SemType, b: SemType, context: str) -> SemType:
    if a == b:
        return a
    if {a, b} == {INT, REAL}:
        return REAL
    raise TypeMismatch(f"{context}: incompatible argument types {a.short()} / {b.short()}")
