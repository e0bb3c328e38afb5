"""Concrete syntax: a lexer, a parser for component definition files and a
printer, all driven by one operator table.

`OPERATORS` gives each operator's token, node, binding power and
associativity: the component operators `;` and `||`, then the formula
connectives, quantifiers and temporal operators, the comparisons and the
arithmetic.  One precedence-climbing routine (`_Parser.climb`, after Pratt's
top down operator precedence) reads components, formulas and terms from it,
and the printer places brackets from it, so the two cannot disagree.
Formulas and terms share one expression grammar: a bracket is read once, and
an operand is a formula or a term by what it turned out to be; a boolean
term standing for a formula becomes the atom `t = true`.  Brackets are
always allowed.

Round trip: parse(print(c)) equals c, and print(parse(print(c))) equals
print(c)."""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Optional

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
from .errors import ComponentSyntaxError, UnboundVariable, UnknownType
from .formulas import (
    And,
    Atom,
    Exists,
    FALSEC,
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
    TRUEC,
    TrueC,
    Until,
    atom as mk_atom,
    children,
)
from .terms import FALSE, PREDICATES, REAL, TRUE, App, Const, NextRef, PrimedRef, Term, VarRef, type_of
from .types import (
    BOOL,
    EnumType,
    INT,
    IntRange,
    IntType,
    RealType,
    SemType,
    UNIT,
    Var,
)


class Op(NamedTuple):
    token: str
    node: object  # the node class, or the App symbol or Atom predicate
    power: int  # binding power: the higher, the tighter
    assoc: str  # "left", "right" or "none" for an infix operator, else "prefix"


# From the loosest to the tightest.  The comparisons and everything tighter
# take term operands; every other expression operator takes formulas.
_COMPARE = 7
OPERATORS = (
    Op(";", Serial, 1, "left"),
    Op("||", Parallel, 2, "left"),
    Op("forall", Forall, 0, "prefix"),
    Op("exists", Exists, 0, "prefix"),
    Op("<->", Iff, 1, "right"),
    Op("->", Implies, 2, "right"),
    Op("||", Or, 3, "left"),
    Op("&&", And, 4, "left"),
    Op("U", Until, 5, "right"),
    Op("L", Leads, 5, "right"),
    Op("!", Not, 6, "prefix"),
    Op("G", Globally, 6, "prefix"),
    Op("F", Finally, 6, "prefix"),
    *(Op(p, p, _COMPARE, "none") for p in ("=", "!=", "<=", ">=", "<", ">")),
    Op("+", "+", 8, "left"),
    Op("-", "-", 8, "left"),
    Op("*", "*", 9, "left"),
    Op("/", "/", 9, "left"),
    Op("-", "neg", 10, "prefix"),
    Op("@", NextRef, 10, "prefix"),
)
_COMPONENT_INFIX = {op.token: op for op in OPERATORS if op.node in (Serial, Parallel)}
_INFIX = {
    op.token: op for op in OPERATORS if op.assoc != "prefix" and op.node not in (Serial, Parallel)
}
_PREFIX = {op.token: op for op in OPERATORS if op.assoc == "prefix"}
_BY_NODE = {op.node: op for op in OPERATORS}

_KIND_KEYWORDS = {k.value for k in Kind}
_KEYWORDS = {
    "component",
    *_KIND_KEYWORDS,
    "fdbk",
    "true",
    "false",
    "bool",
    "int",
    "real",
    "unit",
    *(op.token for op in OPERATORS if op.token.isalpha()),
}

# one lexeme: the gap of blanks and comments before a token, then the token
# (the longest punctuation first; empty at the end of the text), or else one
# unexpected character
_LEXEME = re.compile(
    r"((?:[ \t\r\n]+|#[^\n]*)*)"
    r"(?:(\d+\.\d+|\d+|[^\W\d]\w*|<->|->|&&|\|\||!=|<=|>=|\.\.|[][(){},:;=<>!+*/@'.-]|\Z)|(.))"
)
_PUNCT_START = frozenset("<->&|!=.[](){},:;+*/@'")


def _lex(text: str) -> list[tuple[str, str, str]]:
    """The (gap, token, unexpected character) lexemes of the text, from one
    `findall`; the first lexeme whose token is empty is the end of input."""
    lexemes = _LEXEME.findall(text)
    if any(map(itemgetter(2), lexemes)):
        i = next(i for i, lexeme in enumerate(lexemes) if lexeme[2])
        raise ComponentSyntaxError(f"unexpected character {lexemes[i][2]!r}", *_position(lexemes, i))
    return lexemes


def _position(lexemes, i: int) -> tuple[int, int]:
    """(line, column) of lexeme i's token, computed only for an error.  The
    end of input is placed before a comment that ends the text."""
    gap, token, _ = lexemes[i]
    before = "".join(map("".join, lexemes[:i])) + gap
    if not token and (at := gap.find("#", gap.rfind("\n") + 1)) >= 0:
        before = before[: len(before) - len(gap) + at]
    return before.count("\n") + 1, len(before) - before.rfind("\n")


def _is_name(t: str) -> bool:
    # a token's kind is told by its first character; names are the words
    # that are no keyword
    return t != "" and not t[0].isdecimal() and t[0] not in _PUNCT_START and t not in _KEYWORDS


# An atom's meaning rests on its own tokens alone: its scope is its own
# signatures and its enums are declared inline.  So the parser keeps the node
# of each successfully parsed token sequence, keyed by the tokens joined with
# blanks (no token holds one), and shares it; the first
# _ATOMS_KEPT distinct ones are kept and none is evicted, since churn would
# scatter the kept nodes across the allocator's arenas.
_ATOMS_KEPT = 128
_atoms: dict[str, Atomic] = {}


class _Parser:
    def __init__(self, text: str):
        self.lexemes = _lex(text)
        self.toks = list(map(itemgetter(1), self.lexemes))
        self.pos = 0
        self.tok = self.toks[0]
        self.bindings: dict[str, Component] = {}
        self.order: list[str] = []

    # --- token utilities ---
    # a keyword or punctuation token is told by its text alone: no name or
    # literal is spelled like one; the end of input is the empty token

    def next(self) -> str:
        t = self.tok
        if t:
            self.pos += 1
            self.tok = self.toks[self.pos]
        return t

    def accept(self, text: str) -> bool:
        if self.tok == text:
            self.next()
            return True
        return False

    def expect(self, text: str) -> str:
        if self.tok != text:
            self.fail(f"expected {text!r}, found {self.tok!r}")
        return self.next()

    def fail(self, msg: str, at: Optional[int] = None, error=ComponentSyntaxError):
        """Raise `error` at token `at`, by default the current one."""
        raise error(msg, *_position(self.lexemes, self.pos if at is None else at))

    # --- file level ---

    def parse_file(self):
        while self.tok:
            self.expect("component")
            name = self._name("component name")
            self.expect("=")
            self.bindings[name] = self.climb(None)
            self.order.append(name)
        if not self.order:
            self.fail("no component bindings found")
        return self.bindings, self.order

    def _name(self, what: str) -> str:
        if not _is_name(self.tok):
            self.fail(f"expected {what}, found {self.tok!r}")
        return self.next()

    # --- operators ---

    def climb(self, env: Optional["_Scope"], power: int = 0):
        """The longest expression here whose infix operators bind at least
        `power`: a component when `env` is None, else a formula or a term
        over `env`."""
        if env is None:
            left, infix = self.component_factor(), _COMPONENT_INFIX
        else:
            left, infix = self.prefix(env), _INFIX
        while (op := infix.get(self.tok)) is not None and op.power >= power:
            if op.power < _COMPARE:
                left = self.as_formula(left)
            elif isinstance(left, Formula):
                break  # comparisons do not chain, and a formula is no term
            self.next()
            start = self.pos
            right = self.climb(env, op.power + (op.assoc != "right"))
            left = _build(op, left, self.operand(op, right, start))
        return left

    def prefix(self, env: "_Scope"):
        op = _PREFIX.get(self.tok)
        if op is None:
            return self.primary(env)
        self.next()
        if op.node in (Forall, Exists):
            v = self.decl()
            self.expect(".")
            return op.node(v, self.formula(env.extend(v)))
        start = self.pos
        return _build(op, self.operand(op, self.climb(env, op.power), start))

    def operand(self, op: Op, value, start: int):
        """`value`, read from token `start` on, as an operand of `op`: a term
        from the comparisons up, else a formula; a component stays as it is."""
        return self.as_term(value, start) if op.power >= _COMPARE else self.as_formula(value)

    def as_term(self, value, start: int) -> Term:
        if isinstance(value, Formula):
            self.fail(f"expected a term, found {self.toks[start]!r}", start)
        return value

    def as_formula(self, value):
        """A term standing for a formula: `true`, `false`, or a boolean term
        t as the atom `t = true`; anything else stays as it is."""
        if not isinstance(value, Term):
            return value
        if value == TRUE:
            return TRUEC
        if value == FALSE:
            return FALSEC
        if type_of(value) != BOOL:
            self.fail("expected a comparison or a boolean term")
        return Atom("=", (value, TRUE))

    def primary(self, env: "_Scope"):
        at = self.pos
        t = self.next()
        if t[:1].isdecimal():
            return Const(Fraction(t), REAL) if "." in t else Const(int(t), INT)
        if t == "true":
            return TRUE
        if t == "false":
            return FALSE
        if t == "(":
            inner = self.climb(env)
            self.expect(")")
            return inner
        if _is_name(t):
            v = env.lookup(t)
            if v is not None:
                return PrimedRef(v) if self.accept("'") else VarRef(v)
            ty = env.enum_of(t)
            if ty is not None:
                return Const(t, ty)
            self.fail(f"unknown variable {t!r}", at, UnboundVariable)
        self.fail(f"expected a term, found {t!r}", at)

    def formula(self, env: "_Scope") -> Formula:
        return self.as_formula(self.climb(env))

    def term(self, env: "_Scope") -> Term:
        start = self.pos
        return self.as_term(self.climb(env, _COMPARE + 1), start)

    # --- components ---

    def component_factor(self) -> Component:
        t = self.tok
        if self.accept("fdbk"):
            self.expect("(")
            inner = self.climb(None)
            self.expect(")")
            return Fdbk(inner)
        if t in _KIND_KEYWORDS:
            return self.atom()
        if self.accept("("):
            inner = self.climb(None)
            self.expect(")")
            return inner
        if _is_name(t):
            if t not in self.bindings:
                self.fail(f"unknown component {t!r}", error=UnboundVariable)
            return self.bindings[self.next()]
        self.fail(f"expected a component, found {t!r}")

    def atom(self) -> Atomic:
        """The atomic component node here, parsed once per distinct token
        sequence from the kind keyword to the matching ')' (see _atoms)."""
        start, end = self.pos, self._closing(self.pos + 1)
        key = " ".join(self.toks[start : end + 1]) if end else None
        node = _atoms.get(key)
        if node is not None:
            self.pos = end + 1
            self.tok = self.toks[self.pos]
            return node
        node = Atomic(self.atomic_def())
        if end and self.pos == end + 1 and len(_atoms) < _ATOMS_KEPT:
            _atoms.setdefault(key, node)
        return node

    def _closing(self, i: int) -> int:
        """The index of the ')' that closes a '(' at token i, else 0."""
        if self.toks[i] != "(":
            return 0
        depth = 0
        for j in range(i, len(self.toks)):
            t = self.toks[j]
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if not depth:
                    return j
        return 0

    def atomic_def(self) -> AtomicComponent:
        """An atomic component: the kind's keyword, then its fields in order,
        each formula and term tuple scoped over the signatures before it, or
        over those of them that the kind's SCOPES names."""
        cls = KIND_CLASS[Kind(self.next())]
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
        if self.tok != ")":
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
        t = self.tok
        if self.accept("bool"):
            return BOOL
        if self.accept("real"):
            return REAL
        if self.accept("unit"):
            return UNIT
        if self.accept("int"):
            if self.accept("["):
                at = self.pos
                lo = self._int_literal()
                self.expect("..")
                hi = self._int_literal()
                self.expect("]")
                if lo > hi:
                    self.fail(f"empty integer range [{lo}, {hi}]", at)
                return IntRange(lo, hi)
            return INT
        if _is_name(t) and self.toks[self.pos + 1] == "{":
            name = self.next()
            self.expect("{")
            values = [self._name("enum value")]
            while self.accept(","):
                values.append(self._name("enum value"))
            self.expect("}")
            return EnumType(name, tuple(values))
        self.fail(f"expected a type, found {t!r}", error=UnknownType)

    def _int_literal(self) -> int:
        neg = self.accept("-")
        if not self.tok[:1].isdecimal() or "." in self.tok:
            self.fail("expected an integer literal")
        v = int(self.next())
        return -v if neg else v

    def literal_tuple(self, states: Signature) -> tuple[Const, ...]:
        def ty_at(i: int):
            return states[i].ty if i < len(states) else INT

        if self.accept("("):
            vals = []
            if self.tok != ")":
                vals.append(self.literal(ty_at(0)))
                while self.accept(","):
                    vals.append(self.literal(ty_at(len(vals))))
            self.expect(")")
            return tuple(vals)
        if len(states) != 1:
            self.fail(f"expected {len(states)} initial values")
        return (self.literal(states[0].ty),)

    def literal(self, ty: SemType) -> Const:
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        start = self.pos
        if isinstance(ty, RealType) and self.tok == "(":
            # a real with no decimal form prints as a bracketed quotient
            c = self.term(_Scope())
            if isinstance(c, Const) and c.ty == REAL:
                return c
            self.fail(f"expected a literal of type {ty.short()}", start)
        neg = self.accept("-")
        t = self.tok
        if t[:1].isdecimal() and "." not in t:
            v = int(self.next())
            v = -v if neg else v
            if isinstance(ty, RealType):
                return Const(Fraction(v), REAL)
            return Const(v, ty if isinstance(ty, (IntType, IntRange)) else INT)
        if t[:1].isdecimal():
            v = Fraction(self.next())
            return Const(-v if neg else v, REAL)
        if _is_name(t) and isinstance(ty, EnumType) and t in ty.values:
            return Const(self.next(), ty)
        self.fail(f"expected a literal of type {ty.short()}")

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


def _build(op: Op, *args):
    """The node of `op` over its operands.  A negated number and a quotient
    of two real numbers with a nonzero divisor fold into one constant, so
    that every constant a term prints reads back as itself."""
    node = op.node
    if not isinstance(node, str):
        return node(*args)
    if node in PREDICATES:
        return mk_atom(node, *args)
    a = args[0]
    if node == "neg" and isinstance(a, Const) and type(a.value) in (int, Fraction):
        return Const(-a.value, a.ty)
    if node == "/" and all(isinstance(x, Const) and x.ty == REAL for x in args) and args[1].value:
        return Const(a.value / args[1].value, REAL)
    return App(node, args)


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


def _parse(text: str, read):
    p = _Parser(text)
    result = read(p)
    if p.tok:
        p.fail(f"trailing input {p.tok!r}")
    return result


def parse_component(text: str) -> Component:
    """Parse a single component expression (no bindings)."""
    return _parse(text, lambda p: p.climb(None))


def parse_rcrs(text: str):
    """Parse a definition file: named bindings, references inlined; the last
    binding is the default analysis target.  Returns (bindings, order)."""
    return _Parser(text).parse_file()


def parse_formula(text: str, scope_sigs: list[Signature]) -> Formula:
    return _parse(text, lambda p: p.formula(_Scope(*scope_sigs)))


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


def _op_text(op: Op, operands, text, prec: int, head: str = "") -> str:
    """An operator node with its operands, each printed by `text` at the
    power the parser reads it at, in brackets when `prec` binds tighter."""
    if op.assoc == "prefix":
        head = head or op.token
        s = head + " " * op.token.isalpha() + text(operands[0], op.power)
    else:
        left, right = operands
        lp, rp = op.power + (op.assoc != "left"), op.power + (op.assoc != "right")
        s = f"{text(left, lp)} {op.token} {text(right, rp)}"
    return f"({s})" if prec > op.power else s


def _op_of(node) -> Op:
    op = _BY_NODE.get(node.symbol if isinstance(node, App) else type(node))
    if op is None:
        what = "component" if isinstance(node, Component) else "term" if isinstance(node, Term) else "formula"
        raise UnknownType(f"unprintable {what} {node!r}")
    return op


def term_text(t: Term, prec: int = 0) -> str:
    if isinstance(t, VarRef):
        return t.var.name
    if isinstance(t, PrimedRef):
        return t.var.name + "'"
    if isinstance(t, Const):
        text = _const_text(t)
        # a negative literal is bracketed where a difference would be
        return f"({text})" if text.startswith("-") and prec > _BY_NODE["-"].power else text
    if isinstance(t, App) and t.symbol == "ite":
        raise UnknownType("if-then-else terms have no concrete syntax yet")
    return _op_text(_op_of(t), children(t), term_text, prec)


def formula_text(f: Formula, prec: int = 0) -> str:
    if isinstance(f, TrueC):
        return "true"
    if isinstance(f, FalseC):
        return "false"
    if isinstance(f, Atom):
        if f.pred == "=" and f.args[1] == TRUE and not isinstance(f.args[0], Const):
            return term_text(f.args[0], prec)
        return _op_text(_BY_NODE[f.pred], f.args, term_text, prec)
    op = _op_of(f)
    if isinstance(f, (Forall, Exists)):
        head = f"{op.token} {f.var.name}:{f.var.ty.short()} ."
        return _op_text(op, (f.body,), formula_text, prec, head)
    return _op_text(op, children(f), formula_text, prec)


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
    text = a.__dict__.get("_text")
    if text is None:
        fields = ", ".join(_field_text(getattr(a, name), role) for name, role in LAYOUT[type(a)])
        text = a.__dict__["_text"] = f"{a.kind().value}({fields})"
    return text


def print_component(c) -> str:
    return _component_text(c, 0)


def _component_text(c, prec: int) -> str:
    c = as_component(c)
    if isinstance(c, Atomic):
        return atomic_text(c.atom)
    if isinstance(c, Fdbk):
        return f"fdbk({_component_text(c.child, 0)})"
    return _op_text(_op_of(c), (c.left, c.right), _component_text, prec)
