"""Concrete syntax: a lexer/recursive-descent parser for component definition
files and a precedence-aware printer.  Round trip: parse(print(c)) equals c
up to whitespace; print(parse(s)) equals s up to alpha renaming."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .components import (
    KIND_CLASS,
    LAYOUT,
    Atomic,
    AtomicComponent,
    Component,
    Fdbk,
    Kind,
    Parallel,
    Serial,
    Signature,
    as_component,
)
from .errors import ComponentSyntaxError, TypeMismatch, UnboundVariable, UnknownType
from .formulas import (
    And,
    Atom,
    Exists,
    FalseC,
    Finally,
    Forall,
    Formula,
    Globally,
    Iff,
    Implies,
    Leads,
    Not,
    Or,
    TrueC,
    Until,
    atom as mk_atom,
)
from .terms import App, Const, NextRef, PrimedRef, Term, VarRef, type_of
from .types import (
    BOOL,
    EnumType,
    INT,
    IntRange,
    IntType,
    REAL,
    RealType,
    SemType,
    UNIT,
    Var,
)

_PUNCT = [
    "<->",
    "->",
    "&&",
    "||",
    "!=",
    "<=",
    ">=",
    "..",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    ";",
    "=",
    "<",
    ">",
    "!",
    "+",
    "-",
    "*",
    "/",
    "@",
    "'",
    ".",
]

_KIND_KEYWORDS = {k.value for k in Kind}
_KEYWORDS = {
    "component",
    *_KIND_KEYWORDS,
    "fdbk",
    "forall",
    "exists",
    "true",
    "false",
    "bool",
    "int",
    "real",
    "unit",
    "G",
    "F",
    "U",
    "L",
}


@dataclass(frozen=True)
class Token:
    kind: str  # 'name', 'int', 'real', 'punct', 'kw', 'eof'
    text: str
    line: int
    col: int


def _lex(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                toks.append(Token("real", text[i:k], line, col))
                col += k - i
                i = k
                continue
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in _KEYWORDS else "name"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ComponentSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0
        self.bindings: dict[str, Component] = {}
        self.order: list[str] = []

    # --- token utilities ---

    def peek(self, offset=0) -> Token:
        return self.toks[min(self.pos + offset, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("punct", "kw")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if not self.at(text):
            raise ComponentSyntaxError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def fail(self, msg: str, cls=ComponentSyntaxError):
        t = self.peek()
        raise cls(msg, t.line, t.col)

    # --- file level ---

    def parse_file(self):
        while self.peek().kind != "eof":
            self.expect("component")
            name = self._name("component name")
            self.expect("=")
            expr = self.component_expr()
            self.bindings[name] = expr
            self.order.append(name)
        if not self.order:
            self.fail("no component bindings found")
        return self.bindings, self.order

    def _name(self, what: str) -> str:
        t = self.peek()
        if t.kind != "name":
            self.fail(f"expected {what}, found {t.text!r}")
        return self.next().text

    # --- components ---

    def component_expr(self) -> Component:
        left = self.component_term()
        while self.accept(";"):
            left = Serial(left, self.component_term())
        return left

    def component_term(self) -> Component:
        left = self.component_factor()
        while self.accept("||"):
            left = Parallel(left, self.component_factor())
        return left

    def component_factor(self) -> Component:
        t = self.peek()
        if self.accept("fdbk"):
            self.expect("(")
            inner = self.component_expr()
            self.expect(")")
            return Fdbk(inner)
        if t.text in _KIND_KEYWORDS:
            return Atomic(self.atomic_def())
        if self.accept("("):
            inner = self.component_expr()
            self.expect(")")
            return inner
        if t.kind == "name":
            name = self.next().text
            if name not in self.bindings:
                raise UnboundVariable(f"unknown component {name!r}", t.line, t.col)
            return self.bindings[name]
        self.fail(f"expected a component, found {t.text!r}")

    def atomic_def(self) -> AtomicComponent:
        """An atomic component: the kind's keyword, then its fields in order,
        each formula and term tuple scoped over the signatures before it, or
        over those of them that the kind's SCOPES names."""
        cls = KIND_CLASS[Kind(self.next().text)]
        self.expect("(")
        values, sigs = [], {}
        for i, (name, role) in enumerate(LAYOUT[cls]):
            if i:
                self.expect(",")
            if role == "signature":
                sigs[name] = self.signature()
                values.append(sigs[name])
                continue
            if role == "values":
                values.append(self.literal_tuple(sigs["states"]))
                continue
            scope = _Scope(*(sigs[n] for n in cls.SCOPES.get(name, sigs)))
            if role == "formula":
                values.append(self.formula(scope))
            else:  # a next-state tuple has one term per state
                arity = len(sigs["states"]) if name == "next" else None
                values.append(self.term_tuple(scope, arity))
        self.expect(")")
        return cls(*values)

    # --- signatures and types ---

    def signature(self) -> Signature:
        self.expect("(")
        slots = []
        if not self.at(")"):
            slots.append(self.decl())
            while self.accept(","):
                slots.append(self.decl())
        self.expect(")")
        return Signature(tuple(slots))

    def decl(self) -> Var:
        name = self._name("variable name")
        self.expect(":")
        return Var(name, self.semtype())

    def semtype(self) -> SemType:
        t = self.peek()
        if self.accept("bool"):
            return BOOL
        if self.accept("real"):
            return REAL
        if self.accept("unit"):
            return UNIT
        if self.accept("int"):
            if self.accept("["):
                lo = self._int_literal()
                self.expect("..")
                hi = self._int_literal()
                self.expect("]")
                return IntRange(lo, hi)
            return INT
        if t.kind == "name" and self.peek(1).text == "{":
            name = self.next().text
            self.expect("{")
            values = [self._name("enum value")]
            while self.accept(","):
                values.append(self._name("enum value"))
            self.expect("}")
            return EnumType(name, tuple(values))
        raise UnknownType(f"expected a type, found {t.text!r}", t.line, t.col)

    def _int_literal(self) -> int:
        neg = self.accept("-")
        t = self.peek()
        if t.kind != "int":
            self.fail("expected an integer literal")
        v = int(self.next().text)
        return -v if neg else v

    def literal_tuple(self, states: Signature) -> tuple[Const, ...]:
        def ty_at(i: int):
            return states[i].ty if i < len(states) else INT

        if self.accept("("):
            vals = []
            if not self.at(")"):
                vals.append(self.literal(ty_at(0)))
                while self.accept(","):
                    vals.append(self.literal(ty_at(len(vals))))
            self.expect(")")
            return tuple(vals)
        if len(states) != 1:
            self.fail(f"expected {len(states)} initial values")
        return (self.literal(states[0].ty),)

    def literal(self, ty: SemType) -> Const:
        t = self.peek()
        if self.accept("true"):
            return Const(True, BOOL)
        if self.accept("false"):
            return Const(False, BOOL)
        neg = self.accept("-")
        t = self.peek()
        if t.kind == "int":
            v = int(self.next().text)
            v = -v if neg else v
            if isinstance(ty, RealType):
                return Const(Fraction(v), REAL)
            return Const(v, ty if isinstance(ty, (IntType, IntRange)) else INT)
        if t.kind == "real":
            v = Fraction(self.next().text)
            return Const(-v if neg else v, REAL)
        if t.kind == "name" and isinstance(ty, EnumType) and t.text in ty.values:
            return Const(self.next().text, ty)
        self.fail(f"expected a literal of type {ty.short()}")

    # --- formulas ---

    def formula(self, env: "_Scope") -> Formula:
        return self._iff(env)

    def _iff(self, env) -> Formula:
        left = self._implies(env)
        if self.accept("<->"):
            return Iff(left, self._iff(env))
        return left

    def _implies(self, env) -> Formula:
        left = self._or(env)
        if self.accept("->"):
            return Implies(left, self._implies(env))
        return left

    def _or(self, env) -> Formula:
        left = self._and(env)
        while self.accept("||"):
            left = Or(left, self._and(env))
        return left

    def _and(self, env) -> Formula:
        left = self._until(env)
        while self.accept("&&"):
            left = And(left, self._until(env))
        return left

    def _until(self, env) -> Formula:
        left = self._unary(env)
        if self.accept("U"):
            return Until(left, self._until(env))
        if self.accept("L"):
            return Leads(left, self._until(env))
        return left

    def _unary(self, env) -> Formula:
        if self.accept("!"):
            return Not(self._unary(env))
        if self.accept("G"):
            return Globally(self._unary(env))
        if self.accept("F"):
            return Finally(self._unary(env))
        if self.at("forall") or self.at("exists"):
            kw = self.next().text
            v = self.decl()
            self.expect(".")
            body = self._iff(env.extend(v))
            return Forall(v, body) if kw == "forall" else Exists(v, body)
        return self._atom_formula(env)

    def _atom_formula(self, env) -> Formula:
        if self.at("true") and not self._starts_term_after_bool():
            self.next()
            return TrueC()
        if self.at("false") and not self._starts_term_after_bool():
            self.next()
            return FalseC()
        if self.at("("):
            save = self.pos
            self.next()
            try:
                inner = self._iff(env)
                self.expect(")")
                if not self._peek_term_operator():
                    return inner
            except (ComponentSyntaxError, TypeMismatch):
                pass
            self.pos = save
        left = self.term(env)
        for op in ("=", "!=", "<=", ">=", "<", ">"):
            if self.accept(op):
                right = self.term(env)
                return mk_atom(op, left, right)
        if type_of(left) != BOOL:
            self.fail("expected a comparison or a boolean term")
        return Atom("=", (left, Const(True, BOOL)))

    def _starts_term_after_bool(self) -> bool:
        return self.peek(1).text in ("=", "!=")

    def _peek_term_operator(self) -> bool:
        return self.peek().text in ("+", "-", "*", "/", "=", "!=", "<=", ">=", "<", ">")

    # --- terms ---

    def term(self, env) -> Term:
        left = self._muldiv(env)
        while True:
            if self.accept("+"):
                left = App("+", (left, self._muldiv(env)))
            elif self.accept("-"):
                left = App("-", (left, self._muldiv(env)))
            else:
                return left

    def _muldiv(self, env) -> Term:
        left = self._unary_term(env)
        while True:
            if self.accept("*"):
                left = App("*", (left, self._unary_term(env)))
            elif self.accept("/"):
                left = App("/", (left, self._unary_term(env)))
            else:
                return left

    def _unary_term(self, env) -> Term:
        if self.accept("-"):
            arg = self._unary_term(env)
            if isinstance(arg, Const) and not isinstance(arg.value, bool):
                return Const(-arg.value, arg.ty)
            return App("neg", (arg,))
        if self.accept("@"):
            return NextRef(self._unary_term(env))
        return self._primary_term(env)

    def _primary_term(self, env) -> Term:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Const(int(t.text), INT)
        if t.kind == "real":
            self.next()
            return Const(Fraction(t.text), REAL)
        if self.accept("true"):
            return Const(True, BOOL)
        if self.accept("false"):
            return Const(False, BOOL)
        if self.accept("("):
            inner = self.term(env)
            self.expect(")")
            return inner
        if t.kind == "name":
            name = self.next().text
            v = env.lookup(name)
            if v is not None:
                if self.accept("'"):
                    return PrimedRef(v)
                return VarRef(v)
            ty = env.enum_of(name)
            if ty is not None:
                return Const(name, ty)
            raise UnboundVariable(f"unknown variable {name!r}", t.line, t.col)
        self.fail(f"expected a term, found {t.text!r}")

    def term_tuple(self, env, expected: Optional[int]) -> tuple[Term, ...]:
        if self.accept("("):
            if self.accept(")"):
                return ()
            items = [self.term(env)]
            while self.accept(","):
                items.append(self.term(env))
            self.expect(")")
            return tuple(items)
        if expected == 0:
            self.fail("expected an empty tuple '()'")
        return (self.term(env),)


class _Scope:
    def __init__(self, *sigs: Signature, parent: "_Scope" = None, extra: Var = None):
        self.vars: dict[str, Var] = {}
        self.enums: dict[str, EnumType] = {}
        if parent is not None:
            self.vars.update(parent.vars)
            self.enums.update(parent.enums)
        for s in sigs:
            for v in s:
                self.vars[v.name] = v
                self._note_enum(v.ty)
        if extra is not None:
            self.vars[extra.name] = extra
            self._note_enum(extra.ty)

    def _note_enum(self, ty: SemType):
        if isinstance(ty, EnumType):
            for val in ty.values:
                self.enums[val] = ty

    def extend(self, v: Var) -> "_Scope":
        return _Scope(parent=self, extra=v)

    def lookup(self, name: str) -> Optional[Var]:
        return self.vars.get(name)

    def enum_of(self, value: str) -> Optional[EnumType]:
        return self.enums.get(value)


def parse_component(text: str) -> Component:
    """Parse a single component expression (no bindings)."""
    p = _Parser(text)
    c = p.component_expr()
    t = p.peek()
    if t.kind != "eof":
        raise ComponentSyntaxError(f"trailing input {t.text!r}", t.line, t.col)
    return c


def parse_rcrs(text: str):
    """Parse a definition file: named bindings, references inlined; the last
    binding is the default analysis target.  Returns (bindings, order)."""
    return _Parser(text).parse_file()


def parse_formula(text: str, scope_sigs: list[Signature]) -> Formula:
    p = _Parser(text)
    env = _Scope(*scope_sigs)
    f = p.formula(env)
    t = p.peek()
    if t.kind != "eof":
        raise ComponentSyntaxError(f"trailing input {t.text!r}", t.line, t.col)
    return f


# --- printing ----------------------------------------------------------------


def _const_text(c: Const) -> str:
    v = c.value
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return f"{v.numerator}.0"
        num, den = v.numerator, v.denominator
        # exact decimal when the denominator divides a power of ten
        d, twos, fives = den, 0, 0
        while d % 2 == 0:
            d //= 2
            twos += 1
        while d % 5 == 0:
            d //= 5
            fives += 1
        if d == 1:
            k = max(twos, fives)
            scaled = num * 10**k // den
            text = f"{abs(scaled):0{k + 1}d}"
            out = f"{text[:-k]}.{text[-k:]}" if k else f"{text}.0"
            return ("-" if scaled < 0 else "") + out
        return f"({num}.0/{den}.0)"
    if isinstance(v, str):
        return v
    raise UnknownType(f"unprintable constant {v!r}")


_TERM_ADD, _TERM_MUL, _TERM_UNARY, _TERM_PRIM = 1, 2, 3, 4


def term_text(t: Term, prec: int = 0) -> str:
    if isinstance(t, VarRef):
        return t.var.name
    if isinstance(t, PrimedRef):
        return t.var.name + "'"
    if isinstance(t, NextRef):
        return "@" + term_text(t.arg, _TERM_UNARY)
    if isinstance(t, Const):
        text = _const_text(t)
        if text.startswith("-") and prec > _TERM_ADD:
            return f"({text})"
        return text
    if isinstance(t, App):
        if t.symbol in ("+", "-"):
            inner = f"{term_text(t.args[0], _TERM_ADD)} {t.symbol} {term_text(t.args[1], _TERM_MUL)}"
            return f"({inner})" if prec > _TERM_ADD else inner
        if t.symbol in ("*", "/"):
            inner = f"{term_text(t.args[0], _TERM_MUL)} {t.symbol} {term_text(t.args[1], _TERM_UNARY)}"
            return f"({inner})" if prec > _TERM_MUL else inner
        if t.symbol == "neg":
            return f"-{term_text(t.args[0], _TERM_UNARY)}"
        if t.symbol == "ite":
            raise UnknownType("if-then-else terms have no concrete syntax yet")
    raise UnknownType(f"unprintable term {t!r}")


_F_QUANT, _F_IFF, _F_IMPLIES, _F_OR, _F_AND, _F_UNTIL, _F_UNARY, _F_ATOM = range(8)


def formula_text(f: Formula, prec: int = 0) -> str:
    def wrap(s: str, level: int) -> str:
        return f"({s})" if prec > level else s

    if isinstance(f, TrueC):
        return "true"
    if isinstance(f, FalseC):
        return "false"
    if isinstance(f, Atom):
        if (
            f.pred == "="
            and f.args[1] == Const(True, BOOL)
            and not isinstance(f.args[0], Const)
        ):
            return term_text(f.args[0], _TERM_PRIM)
        return f"{term_text(f.args[0], _TERM_ADD)} {f.pred} {term_text(f.args[1], _TERM_ADD)}"
    if isinstance(f, (Forall, Exists)):
        kw = "forall" if isinstance(f, Forall) else "exists"
        body = formula_text(f.body, _F_QUANT)
        return wrap(f"{kw} {f.var.name}:{f.var.ty.short()} . {body}", _F_QUANT)
    if isinstance(f, Iff):
        s = f"{formula_text(f.left, _F_IMPLIES)} <-> {formula_text(f.right, _F_IFF)}"
        return wrap(s, _F_IFF)
    if isinstance(f, Implies):
        s = f"{formula_text(f.left, _F_OR)} -> {formula_text(f.right, _F_IMPLIES)}"
        return wrap(s, _F_IMPLIES)
    if isinstance(f, Or):
        s = f"{formula_text(f.left, _F_OR)} || {formula_text(f.right, _F_AND)}"
        return wrap(s, _F_OR)
    if isinstance(f, And):
        s = f"{formula_text(f.left, _F_AND)} && {formula_text(f.right, _F_UNTIL)}"
        return wrap(s, _F_AND)
    if isinstance(f, Until):
        s = f"{formula_text(f.left, _F_UNARY)} U {formula_text(f.right, _F_UNTIL)}"
        return wrap(s, _F_UNTIL)
    if isinstance(f, Leads):
        s = f"{formula_text(f.left, _F_UNARY)} L {formula_text(f.right, _F_UNTIL)}"
        return wrap(s, _F_UNTIL)
    if isinstance(f, Not):
        return f"!{formula_text(f.arg, _F_UNARY)}"
    if isinstance(f, Globally):
        return f"G {formula_text(f.arg, _F_UNARY)}"
    if isinstance(f, Finally):
        return f"F {formula_text(f.arg, _F_UNARY)}"
    raise UnknownType(f"unprintable formula {f!r}")


def _field_text(value, role: str) -> str:
    if role == "signature":
        return value.short()
    if role == "formula":
        return formula_text(value)
    if role == "values":
        return "(" + ", ".join(_const_text(c) for c in value) + ")"
    return "(" + ", ".join(term_text(t) for t in value) + ")"


def atomic_text(a: AtomicComponent) -> str:
    if type(a) not in LAYOUT:
        raise UnknownType(f"unprintable atomic component {a!r}")
    fields = ", ".join(_field_text(getattr(a, name), role) for name, role in LAYOUT[type(a)])
    return f"{a.kind().value}({fields})"


def print_component(c) -> str:
    c = as_component(c)
    if isinstance(c, Atomic):
        return atomic_text(c.atom)
    if isinstance(c, Serial):
        left = print_component(c.left)
        right = print_component(c.right)
        if isinstance(c.right, Serial):
            right = f"({right})"
        return f"{left} ; {right}"
    if isinstance(c, Parallel):
        left = print_component(c.left)
        right = print_component(c.right)
        if isinstance(c.left, Serial):
            left = f"({left})"
        if isinstance(c.right, (Serial, Parallel)):
            right = f"({right})"
        return f"{left} || {right}"
    if isinstance(c, Fdbk):
        return f"fdbk({print_component(c.child)})"
    raise UnknownType(f"unprintable component {c!r}")
