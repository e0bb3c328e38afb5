"""Bounded operational semantics over finite domains: exhaustive enumeration
of transition-system behaviors, stepwise execution of deterministic
composites, lasso-word evaluation of temporal formulas, and the brute-force
cross-checks (equivalence, refinement refutation, Hoare triples) used to
validate every symbolic operation independently."""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .components import (
    Atomic,
    AtomicComponent,
    Component,
    Det,
    Fdbk,
    Parallel,
    Qltl,
    Serial,
    Signature,
    Stateless,
    StatelessDet,
    Sts,
    as_component,
    check_wf,
    sigma_in,
    sigma_out,
)
from .compose import determ, loop_free
from .errors import (
    DomainNotFinite,
    ExplosionGuard,
    KindError,
    NonTemporalMisuse,
    NotDeterministic,
    NotLoopFree,
    SignatureMismatch,
    SoundnessError,
)
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
    TRUEC,
    TrueC,
    Until,
    first_free,
    free_refs,
    free_vars,
)
from .lattice import stateless2sts
from .terms import App, Const, NextRef, PrimedRef, Term, VarRef
from .types import (
    INT,
    REAL,
    BoolType,
    EnumType,
    IntRange,
    IntType,
    RealType,
    SemType,
    UnitType,
    Var,
    is_value,
)
from .verdicts import CheckResult, Refuted, TraceWitness, Unknown

Trace = tuple  # steps x slots


class FiniteDomain:
    """Explicit finite value lists per type.  Bool, ranges, and enums
    enumerate themselves; unbounded ints and reals need an override entry
    (keyed 'int' / 'real' or by the exact type)."""

    def __init__(self, overrides: dict = None, cap: int = 10**7):
        self.overrides = dict(overrides or {})
        self.cap = cap
        # (values, max stem, max loop) -> lasso family, built by _Lasso
        self.families: dict = {}

    def values(self, ty: SemType) -> tuple:
        if ty in self.overrides:
            return tuple(self.overrides[ty])
        if isinstance(ty, BoolType):
            return (False, True)
        if isinstance(ty, IntRange):
            return tuple(range(ty.lo, ty.hi + 1))
        if isinstance(ty, EnumType):
            return ty.values
        if isinstance(ty, UnitType):
            return ((),)
        if isinstance(ty, IntType):
            if "int" in self.overrides:
                return tuple(self.overrides["int"])
            raise DomainNotFinite("unbounded int needs a domain override")
        if isinstance(ty, RealType):
            if "real" in self.overrides:
                return tuple(self.overrides["real"])
            raise DomainNotFinite("real needs a domain override")
        raise DomainNotFinite(f"no finite domain for {ty.short()}")

    def tuples(self, sig: Signature) -> list[tuple]:
        pools = [self.values(v.ty) for v in sig]
        size = math.prod(len(p) for p in pools) if pools else 1
        if size > self.cap:
            raise ExplosionGuard(f"enumeration of {size} tuples exceeds the cap")
        return list(itertools.product(*pools))

    def traces(self, sig: Signature, horizon: int) -> Iterable[Trace]:
        steps = self.tuples(sig)
        size = len(steps) ** horizon
        if size > self.cap:
            raise ExplosionGuard(f"enumeration of {size} traces exceeds the cap")
        return itertools.product(steps, repeat=horizon)


_DOMAIN_TYPES = {"int": INT, "real": REAL}


def parse_domain_file(text: str) -> FiniteDomain:
    """Override file: lines of the form `domain <typename> = {v1, v2, ...}`,
    where the type is `int` or `real` and every value is one of it.  A real
    domain keeps its values as Fractions, so `1` divides as a real."""
    overrides = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("domain "):
            raise DomainNotFinite(f"cannot parse domain line: {raw!r}")
        name, _, rest = line[len("domain ") :].partition("=")
        name = name.strip()
        rest = rest.strip()
        if name not in _DOMAIN_TYPES:
            raise DomainNotFinite(f"no domain override for type {name!r}: use int or real")
        if not (rest.startswith("{") and rest.endswith("}")):
            raise DomainNotFinite(f"cannot parse domain values in: {raw!r}")
        pieces = [p for p in rest[1:-1].split(",") if p.strip()]
        values = tuple(parse_literal(p) for p in pieces)
        for p, v in zip(pieces, values):
            if not is_value(v, _DOMAIN_TYPES[name]):
                raise DomainNotFinite(f"domain {name}: {p.strip()!r} is not a value of {name}")
        overrides[name] = tuple(map(Fraction, values)) if name == "real" else values
    return FiniteDomain(overrides)


def parse_literal(text: str):
    """A value written in a domain file or a trace: a boolean (`true`, or
    `True` as reports print it), an integer, a rational such as `1.5` or
    `3/2`, or else the stripped text itself (an enum value)."""
    text = text.strip()
    if text in ("true", "false", "True", "False"):
        return text in ("true", "True")
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return Fraction(text)
    except ValueError:
        return text


# --- evaluation: terms and formulas compiled onto slot layouts --------------


class _Poison:
    """Absorbing placeholder used during the first feedback pass; its value
    never reaches a committed output on loop-free components."""

    def __repr__(self):
        return "<poison>"


POISON = _Poison()


def _divide(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        raise NonTemporalMisuse("division on booleans")
    if isinstance(a, int) and isinstance(b, int):
        # Euclidean division, and x / 0 = 0 as the SMT-LIB guard makes it
        return 0 if b == 0 else (a // b if b > 0 else -(a // -b))
    return Fraction(0) if b == 0 else Fraction(a) / Fraction(b)


_FUNCTIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "neg": operator.neg}
_PREDICATES = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _raiser(error: type, *args):
    # a node compiled to this fails only when an evaluation reaches it
    def fail(*_):
        raise error(*args)

    return fail


_LABELLED = (Until, Finally, Globally, Leads, Forall, Exists)


def _compile(node, sem, plain: tuple = (), primed: tuple = ()):
    """A term or formula as a closure `(env, i) -> value` over a slot layout:
    `env` is a tuple holding the evaluation's semantics object, the values
    of `plain` and of `primed`, then one slot per enclosing quantifier,
    innermost last; `i` is the position a temporal evaluation reads at.

    `sem` is a semantics class (`_Step`, `_Prefix` or `_Lasso`).  Its truth
    values, connectives, atom mapping, `unsettled` and variable `read` (None
    at one step, where a slot holds the value) are bound here; the instance in
    slot 0 gives the positions an `until` scans (`window`), the `candidates`
    of a quantified variable, and `visit`, called on every formula node when
    the class defines it.  A left operand equal to `true` or `false` decides
    And, Or and Implies, and the right one is then not evaluated.  A POISON
    operand makes a term or an atom POISON, except for the branches of an
    `ite` whose condition is known.  A node the semantics refuses, or a
    variable with no slot, raises only when the evaluation reaches it.

    Where the class says which slots a node's value depends on
    (`label_slots`: _Prefix and _Lasso), a temporal operator or quantifier
    is labelled when its evaluation is certain to repeat: it lies under two
    or more scans, or some enclosing quantifier's slot is not among its own,
    so each candidate of that quantifier evaluates it alike.  A label keeps
    the node's value per position and slot values in `labels` of the
    instance in slot 0, so it lives for one evaluation, as in Markey and
    Schnoebelen's path checking ("Model Checking a Path", CONCUR 2003).  It
    also keeps the visits the first evaluation made, and a hit spends them
    again: the budget counts every visit the plain evaluation makes."""
    T, F = sem.true, sem.false
    NOT, AND, OR, read = sem.not_, sem.and_, sem.or_, sem.read
    primes = {v: k for k, v in enumerate(primed, 1 + len(plain))}
    quantified = 1 + len(plain) + len(primed)  # the outermost quantifier's slot
    slots_of, tags = getattr(sem, "label_slots", None), itertools.count()

    def term(t, scope):
        if isinstance(t, (VarRef, PrimedRef)):
            k = (scope if isinstance(t, VarRef) else primes).get(t.var)
            if isinstance(t, PrimedRef) and read is not None:
                return _raiser(NonTemporalMisuse, sem.primed_refusal)
            if k is None:
                return _raiser(KeyError, t.var)
            return (lambda env, i: env[k]) if read is None else (lambda env, i: read(env[k], i))
        if isinstance(t, Const):
            v = t.value
            v = Fraction(v) if isinstance(t.ty, RealType) and not isinstance(v, Fraction) else v
            return lambda env, i: v
        if isinstance(t, NextRef):
            if read is None:
                return _raiser(NonTemporalMisuse, "next operator outside temporal evaluation")
            arg = term(t.arg, scope)
            return lambda env, i: arg(env, i + 1)
        if not isinstance(t, App):
            return _raiser(KindError, f"not a term: {t!r}")
        args = [term(a, scope) for a in t.args]
        if t.symbol == "ite":
            c, a, b = args

            def ite(env, i):
                cv, av, bv = c(env, i), a(env, i), b(env, i)
                return POISON if cv is POISON else (av if cv else bv)

            return ite
        op = _FUNCTIONS.get(t.symbol) or _raiser(KindError, f"unknown function symbol {t.symbol}")
        if len(args) == 1:
            (a,) = args
            return lambda env, i: POISON if (v := a(env, i)) is POISON else op(v)
        return strict(op, *args)

    def strict(op, a, b):
        def apply(env, i):
            av, bv = a(env, i), b(env, i)
            return POISON if av is POISON or bv is POISON else op(av, bv)

        return apply

    def formula(f, scope, depth, scans):
        node = connective(f, scope, depth, scans)
        if sem.visit is not None:
            node = visited(node)
        if slots_of is not None and isinstance(f, _LABELLED):
            slots = slots_of(f, scope)
            if scans >= 2 or not set(range(quantified, depth)) <= set(slots):
                node = labelled(node, slots)
        return node

    def visited(node):
        def visit(env, i):
            env[0].visit()
            return node(env, i)

        return visit

    def labelled(node, slots):
        tag, get = next(tags), operator.itemgetter(*slots) if slots else (lambda env: None)

        def label(env, i):
            s, key = env[0], (tag, i, get(env))
            hit = s.labels.get(key)
            if hit is None:
                ops = s.ops
                value = node(env, i)
                s.labels[key] = value, s.ops - ops
                return value
            value, visits = hit
            if visits:  # none where there is no budget
                s.visit(visits)
            return value

        return label

    def connective(f, scope, depth, scans):
        if isinstance(f, Atom):
            op = _PREDICATES.get(f.pred) or _raiser(KindError, f"unknown predicate {f.pred}")
            compare, atom = strict(op, *(term(t, scope) for t in f.args)), sem.atom
            return lambda env, i: atom(compare(env, i))
        if isinstance(f, (And, Or, Implies)):
            # true is the unit of And and false absorbs it; Or is the dual, and
            # a -> b is (not a) or b
            a, b = formula(f.left, scope, depth, scans), formula(f.right, scope, depth, scans)
            stop, pass_, join = (F, T, AND) if isinstance(f, And) else (T, F, OR)
            negate = isinstance(f, Implies)

            def binary(env, i):
                av = NOT(a(env, i)) if negate else a(env, i)
                if av == stop:
                    return av
                bv = b(env, i)
                return bv if av == pass_ else join(av, bv)

            return binary
        if isinstance(f, Not):
            arg = formula(f.arg, scope, depth, scans)
            return lambda env, i: NOT(arg(env, i))
        if isinstance(f, (TrueC, FalseC)):
            v = T if isinstance(f, TrueC) else F
            return lambda env, i: v
        if isinstance(f, Iff):
            a, b, iff = formula(f.left, scope, depth, scans), formula(f.right, scope, depth, scans), sem.iff
            return lambda env, i: iff(a(env, i), b(env, i))
        # F a = true U a;  G a = not (true U not a);  a W b = not (a U not b)
        if isinstance(f, Until):
            return until(f.left, f.right, False, scope, depth, scans + 1)
        if isinstance(f, Finally):
            return until(TRUEC, f.arg, False, scope, depth, scans + 1)
        if isinstance(f, Globally):
            return until(TRUEC, Not(f.arg), True, scope, depth, scans + 1)
        if isinstance(f, Leads):
            return until(f.left, Not(f.right), True, scope, depth, scans + 1)
        if not isinstance(f, (Forall, Exists)):
            return _raiser(KindError, f"not a formula: {f!r}")
        # an instance that is definitely false (Forall) or true (Exists)
        # settles the quantifier; `sem.unsettled` combines the other ones
        universal, ty, unsettled = isinstance(f, Forall), f.var.ty, sem.unsettled
        decisive = F if universal else T
        body = formula(f.body, {**scope, f.var: depth}, depth + 1, scans)

        def quantifier(env, i):
            results = []
            for v in env[0].candidates(ty):
                r = body(env + (v,), i)
                if r == decisive:
                    return r
                results.append(r)
            return unsettled(universal, results)

        return quantifier

    def until(left, right, negate, scope, depth, scans):
        # left U right at i (negated for G and W), scanned over the window of
        # the words in scope; a scan ending with left holding all along and
        # right never is open on a prefix, and definite past a lasso window
        a, b, visible = formula(left, scope, depth, scans), formula(right, scope, depth, scans), tuple(scope.values())
        open_ended = sem.open_ended

        def scan(env, i):
            acc, pref = F, T
            for k in env[0].window(env, visible, i):
                acc = OR(acc, AND(pref, b(env, k)))
                if acc == T:
                    return acc
                pref = AND(pref, a(env, k))
                if pref == F:
                    # no candidate position can lie beyond a broken chain
                    return acc
            return None if open_ended else acc

        return (lambda env, i: NOT(scan(env, i))) if negate else scan

    scope = {v: k for k, v in enumerate(plain, 1)}
    root = term(node, scope) if isinstance(node, Term) else formula(node, scope, quantified, 0)
    # the helpers reach each other through closure cells, which the returned
    # closures do not read; emptying them leaves no cycle for the collector
    del term, strict, formula, visited, labelled, connective, until
    return root


@functools.lru_cache(maxsize=64)
def _program(f: Formula, sem, plain: tuple, primed: tuple = ()):
    """`_compile`, kept for the nodes compiled last: a caller evaluating one
    formula on many words or assignments compiles it once, and so does a
    deterministic atom stepped by several walks (see _DetAtom)."""
    return _compile(f, sem, plain, primed)


def _and3(a, b):
    return False if a is False or b is False else (True if a is True and b is True else None)


def _or3(a, b):
    return True if a is True or b is True else (False if a is False and b is False else None)


def _not3(a):
    return None if a is None else (not a)


def _iff3(a, b):
    return None if (a is None or b is None) else (a == b)


# (family, definite) pairs of _Lasso: the family value is two-valued, the
# definite one Kleene's


def _not2(a):
    return not a[0], _not3(a[1])


def _and2(a, b):
    return a[0] and b[0], _and3(a[1], b[1])


def _or2(a, b):
    return a[0] or b[0], _or3(a[1], b[1])


def _iff2(a, b):
    return a[0] == b[0], _iff3(a[1], b[1])


class _Step:
    """Truth at one step.  Its connectives are Kleene's, which _Prefix
    shares; at one step no value is unknown, so they act as two-valued ones.
    Quantifiers range over the finite domain of the bound variable's type;
    temporal operators are refused."""

    true, false = True, False
    visit = read = None
    open_ended = False
    not_ = staticmethod(_not3)
    and_ = staticmethod(_and3)
    or_ = staticmethod(_or3)
    iff = staticmethod(_iff3)

    def __init__(self, dom: FiniteDomain = None):
        self.dom = dom

    @staticmethod
    def atom(v):
        return None if v is POISON else v

    def window(self, env, visible, i):
        raise NonTemporalMisuse("temporal operator in step evaluation")

    def candidates(self, ty):
        if self.dom is None:
            raise DomainNotFinite("quantifier evaluation needs a finite domain")
        return self.dom.values(ty)

    @staticmethod
    def unsettled(universal: bool, results: list):
        return None if None in results else universal


def eval_formula_step(f: Formula, plain: dict, primed: dict = None, dom: FiniteDomain = None) -> bool:
    """Evaluate a non-temporal formula at one step; quantifiers range over the
    finite domain of the bound variable's type."""
    primed = primed or {}
    env = (_Step(dom),) + tuple(plain.values()) + tuple(primed.values())
    return _program(f, _Step, tuple(plain), tuple(primed))(env, 0)


def compile_step(f: Formula, plain: tuple, primed: tuple = (), dom: FiniteDomain = None):
    """`eval_formula_step` of `f`, compiled once: a function of one tuple,
    the values of the variables `plain` then those of `primed`."""
    fn, head = _compile(f, _Step, plain, primed), (_Step(dom),)
    return lambda values: fn(head + values, 0)


# --- one stepper per component ------------------------------------------------


class _Stepper:
    """One step of a component: `init` lists its initial configurations and
    `successors(config, x)` the pairs (config', y) that one step on input x
    reaches from config.  An empty list means some run from config has no
    continuation on x: x is illegal there.  A probe step (`commit` false)
    checks no legality and keeps the state; only the deterministic steppers
    under a feedback take one."""


class _DetAtom(_Stepper):
    """A deterministic atom: one successor, none on an illegal input.  Its
    terms and formula are compiled onto its states then its inputs, through
    `_program`, so the steppers that one query builds for it (an equivalence
    check's side, each `exec_det` run) share one compilation."""

    def __init__(self, a: AtomicComponent, dom: FiniteDomain = None):
        self.head, det = (_Step(dom),), isinstance(a, Det)
        slots = (a.states.vars() if det else ()) + a.inputs.vars()
        self.init = [tuple(_program(t, _Step, ())(self.head, 0) for t in a.init_vals)] if det else [()]
        self.next = [_program(t, _Step, slots) for t in a.next] if det else None
        self.inpt = _program(a.inpt, _Step, slots)
        self.out = [_program(t, _Step, slots) for t in a.out]

    def successors(self, s, x, commit: bool = True):
        env = self.head + s + x
        if commit and not self.inpt(env, 0):
            return []
        y = tuple([t(env, 0) for t in self.out])
        if commit and self.next is not None:
            s = tuple([t(env, 0) for t in self.next])
        return [(s, y)]


class _StsAtom(_Stepper):
    """A transition system: the successors of a (state, input) pair range
    over the domain's states and outputs.  The relation is compiled once,
    onto the states, inputs and outputs, then the primed states."""

    def __init__(self, c: Sts, dom: FiniteDomain):
        svars = c.states.vars()
        self.head = (_Step(dom),)
        self.states = dom.tuples(c.states)
        inputs = dom.tuples(c.inputs)
        self.outputs = dom.tuples(c.outputs)
        if len(self.states) * max(len(inputs), 1) * max(len(self.outputs), 1) > dom.cap:
            raise ExplosionGuard("state/input/output product exceeds the cap")
        init = _compile(c.init, _Step, svars)
        self.init = [s for s in self.states if init(self.head + s, 0)]
        self.trs = _compile(c.trs, _Step, svars + c.inputs.vars() + c.outputs.vars(), svars)

    def successors(self, s, x, commit: bool = True):
        env, trs = self.head + s + x, self.trs
        return [(s2, y) for s2 in self.states for y in self.outputs if trs(env + y + s2, 0)]


class _Serial(_Stepper):
    """Each output the left side produces is the right side's input; a
    configuration pairs the two sides' configurations."""

    def __init__(self, left: _Stepper, right: _Stepper):
        self.left, self.right = left, right
        self.init = [(a, b) for a in left.init for b in right.init]

    def successors(self, config, x, commit: bool = True):
        a, b = config
        succ = []
        for a2, mid in self.left.successors(a, x, commit):
            right = self.right.successors(b, mid, commit)
            if not right:
                return []
            succ.extend(((a2, b2), y) for b2, y in right)
        return succ


class _Parallel(_Stepper):
    def __init__(self, left: _Stepper, right: _Stepper, n_left: int):
        self.left, self.right, self.n = left, right, n_left
        self.init = [(a, b) for a in left.init for b in right.init]

    def successors(self, config, x, commit: bool = True):
        a, b = config
        left = self.left.successors(a, x[: self.n], commit)
        right = self.right.successors(b, x[self.n :], commit) if left else []
        return [((a2, b2), ya + yb) for a2, ya in left for b2, yb in right]


class _FdbkEval(_Stepper):
    """A chain of `loops` nested feedbacks: the child's first `loops` outputs
    feed its first `loops` inputs.  Probe passes poison each looped input
    still unknown and keep the looped outputs that come out definite (sound
    as the loops are dependency-free), until none is unknown or, under an
    unresolved outer loop, a pass settles nothing new.  One committing pass
    follows, the only one that checks legality and advances state."""

    def __init__(self, child, loops: int = 1):
        self.child, self.loops = child, loops

    @property
    def init(self):
        return self.child.init

    def successors(self, config, x, commit: bool = True):
        k = self.loops
        looped = (POISON,) * k
        while POISON in looped:
            ((_, probe),) = self.child.successors(config, looped + x, False)
            settled = tuple([p if v is POISON else v for v, p in zip(looped, probe)])
            if settled == looped:
                break
            looped = settled
        # an unresolved outer loop may legitimately leave poison here during
        # a probe pass, but never on the committing pass
        if commit and POISON in looped:
            raise SoundnessError("feedback loop produced a value-dependent looped output")
        succ = self.child.successors(config, looped + x, commit)
        if not succ:
            return []
        ((config2, outs),) = succ
        if commit and outs[:k] != looped:
            raise SoundnessError("feedback passes disagree on a looped output")
        return [(config2, outs[k:])]


def _stepper(c: Component, dom: FiniteDomain) -> _Stepper:
    if isinstance(c, Atomic):
        a = c.atom
        if isinstance(a, (Det, StatelessDet)):
            return _DetAtom(a, dom)
        if isinstance(a, Stateless):
            a = stateless2sts(a)
        if isinstance(a, Sts):
            return _StsAtom(a, dom)
        raise KindError("temporal components have no stepwise bounded behavior")
    if isinstance(c, Serial):
        return _Serial(_stepper(c.left, dom), _stepper(c.right, dom))
    if isinstance(c, Parallel):
        return _Parallel(_stepper(c.left, dom), _stepper(c.right, dom), len(sigma_in(c.left)))
    if isinstance(c, Fdbk):
        if not determ(c):
            raise NotDeterministic("feedback behavior needs a deterministic subtree")
        if not loop_free(c):
            raise NotLoopFree("feedback behavior needs a loop-free subtree")
        # the checks above cover the feedbacks nested directly inside
        loops = 1
        while isinstance(c.child, Fdbk):
            c, loops = c.child, loops + 1
        return _FdbkEval(_stepper(c.child, dom), loops)
    raise KindError(f"not a component: {c!r}")


def explore(c, dom: FiniteDomain, horizon: int):
    """The configuration graph of a component over the input traces of the
    horizon: (initial configurations, input tuples, graph), where the graph
    maps each (configuration, input) pair that `behavior` steps to its
    successors (see _Stepper).  Those are the configurations reached in
    fewer than `horizon` steps (the initial ones at any horizon), on every
    input.  Each pair is stepped once, in `behavior`'s order and after the
    cap on the number of traces, so the first error is the one `behavior`
    would raise; a (configuration set, steps left) pair is walked once, as
    below it nothing is new.  An ill-formed c raises WfError first."""
    c = as_component(c)
    check_wf(c)
    node = _stepper(c, dom)
    in_sig = sigma_in(c)
    inputs = dom.tuples(in_sig)
    dom.traces(in_sig, horizon)
    graph: dict = {}
    done: set = set()
    stack = [(tuple(dict.fromkeys(node.init)), max(horizon, 1))]
    while stack:
        configs, left = stack.pop()
        if (key := (frozenset(configs), left)) in done:
            continue
        done.add(key)
        for x in inputs:
            reached: dict = {}
            for config in configs:
                succ = graph.get((config, x))
                if succ is None:
                    succ = graph[config, x] = node.successors(config, x)
                reached.update((c2, None) for c2, _ in succ)
            if left > 1 and reached:
                stack.append((tuple(reached), left - 1))
    return node.init, inputs, graph


# --- bounded behaviors and runs -----------------------------------------------


@dataclass
class Behavior:
    """Bounded behavior: per input prefix, the set of reachable output
    prefixes via legal partial runs, and the prefixes on which some run has
    no continuation (an illegal input point)."""

    horizon: int
    in_sig: Signature
    out_sig: Signature
    pouts: dict  # input prefix -> frozenset of output prefixes
    dead: set  # input prefixes whose last step kills some run
    first: dict  # walked input prefix -> its first illegal step, or None

    def first_illegal(self, trace: Trace) -> Optional[int]:
        # the steps past the horizon or outside the domain were never walked,
        # so none of them is dead: the longest walked prefix answers
        while trace not in self.first:
            trace = trace[:-1]
        return self.first[trace]

    def outputs(self, trace: Trace) -> frozenset:
        return self.pouts.get(trace, frozenset())


def behavior(c, dom: FiniteDomain, horizon: int) -> Behavior:
    """Bounded behavior of a component tree, computed without symbolic
    composition: one walk over the input prefixes of the domain reads the
    component's configuration graph (see explore), so a shared prefix runs
    once, and so does a configuration reached on many prefixes.  A serial
    stage sees the values the stage before it computed, inside the domain
    or not."""
    c = as_component(c)
    init, inputs, graph = explore(c, dom, horizon)
    pouts: dict = {}
    dead: set = set()
    first: dict = {(): None}
    # (prefix, configs): each configuration reachable on the prefix -> the
    # output prefixes of the runs that reach it; a configuration steps once
    # for them all.  An explicit stack, not a recursive closure: that would
    # be a reference cycle keeping pouts alive until the next full collection.
    stack = [((), {s: {()} for s in init})]
    while stack:
        px, configs = stack.pop()
        for x in inputs:
            px2 = px + (x,)
            nxt: dict = {}
            for config, pys in configs.items():
                succ = graph[config, x]
                if not succ:
                    dead.add(px2)
                for c2, y in succ:
                    nxt.setdefault(c2, set()).update(py + (y,) for py in pys)
            pouts[px2] = frozenset().union(*nxt.values())
            k = first[px]
            first[px2] = len(px) if k is None and px2 in dead else k
            if len(px2) < horizon:
                stack.append((px2, nxt))
    return Behavior(horizon, sigma_in(c), sigma_out(c), pouts, dead, first)


def legal_lasso(c, dom: FiniteDomain, horizon: int):
    """A legal input lasso, searched over the input prefixes of the domain up
    to the horizon.  Each prefix carries the sequence of configuration sets
    it reaches (see explore) and ends at its first illegal input.  When a
    set repeats along a prefix, repeating the inputs between its two visits
    keeps every run live forever: that lasso is returned as (stem, loop), two
    tuples of input tuples.  Returns False when every input trace of the
    horizon is illegal, None when neither holds."""
    init, inputs, graph = explore(c, dom, horizon)
    stack, live = [((), (frozenset(init),))], False
    while stack:
        px, sets = stack.pop()
        for x in inputs:
            succ = [graph[config, x] for config in sets[-1]]
            if not all(succ):
                continue  # some run is stuck: x is illegal after px
            px2, reached = px + (x,), frozenset(c2 for s in succ for c2, _ in s)
            if reached in sets:
                i = sets.index(reached)
                return px2[:i], px2[i:]
            if len(px2) < horizon:
                stack.append((px2, sets + (reached,)))
            else:
                live = True
    return None if live else False


def bounded_rel(c, dom: FiniteDomain, horizon: int):
    """Exhaustive relation of a component term whose atoms are of the
    transition-system family: the full-run input/output pairs and the illegal
    input prefixes."""
    c = as_component(c)
    if isinstance(c, Atomic) and isinstance(c.atom, Qltl):
        raise KindError("temporal components have no stepwise bounded relation")
    if horizon < 1:
        raise DomainNotFinite("horizon must be at least 1")
    beh = behavior(c, dom, horizon)
    pairs = set()
    for trace in dom.traces(beh.in_sig, horizon):
        if beh.first_illegal(trace) is None:
            for out in beh.outputs(trace):
                pairs.add((trace, out))
    return pairs, set(beh.dead)


@dataclass(frozen=True)
class IllegalAt:
    step: int


def exec_det(c, input_trace: Trace, dom: FiniteDomain = None):
    """Run a deterministic loop-free composite on a finite input trace.

    Returns the output trace (steps x slots) or IllegalAt(step).  An
    ill-formed c raises WfError first.
    """
    c = as_component(c)
    check_wf(c)
    if not determ(c):
        raise NotDeterministic("execution needs deterministic atoms")
    if not loop_free(c):
        raise NotLoopFree("execution needs a loop-free component")
    node = _stepper(c, dom)
    (config,) = node.init
    outs = []
    for i, x in enumerate(input_trace):
        succ = node.successors(config, tuple(x))
        if not succ:
            return IllegalAt(i)
        ((config, y),) = succ
        outs.append(y)
    return tuple(outs)


# --- bounded equivalence and refinement -------------------------------------


@dataclass(frozen=True)
class EquivResult:
    equivalent: bool
    counterexample: Optional[Trace] = None
    detail: str = ""

    def __bool__(self):
        return self.equivalent


def _run(side, trace: Trace):
    """The first illegal step and the output traces of one input trace, as
    `behavior` gives them, read from a side's graph (see explore)."""
    init, _, graph = side
    runs, first = {(config, ()) for config in init}, None
    for i, x in enumerate(trace):
        reached = set()
        for config, ys in runs:
            succ = graph[config, x]
            first = i if first is None and not succ else first
            reached.update((c2, ys + (y,)) for c2, y in succ)
        runs = reached
    return first, frozenset(ys for _, ys in runs)


_EVERY = object()  # every trace through the input fails


def _first_failing(a, b, horizon: int, refining: bool) -> Optional[Trace]:
    """The first input trace of length `horizon`, in the order of
    `dom.traces`, that separates two sides (as `explore` gives them), or
    None.  Equivalence asks for the same first illegal step on every trace
    and the same outputs on a legal one; `refining` asks, on a trace legal
    for a, for no illegal step of b and no output of b that a lacks.

    One depth-first walk runs both sides.  Its state is a set of pairs
    (configurations of a, configurations of b), one per output trace so far;
    the output traces are dropped, so input prefixes that reach one state
    share every verdict below it, and a (state, steps left) pair with no
    failing trace below it is walked once.  A side dies on an input when a
    configuration it holds has no successor.  When b dies first, refinement
    goes on with a alone (b None): a trace that a survives fails.  A
    `behavior` walk gives the empty trace no outputs, so at horizon 0
    nothing fails.  The stack is explicit: a unit-input component has one
    trace at every horizon, however long."""
    (init_a, inputs, graph_a), (init_b, _, graph_b) = a, b

    def after(state, x):
        # the state after x; None when no trace through x fails, _EVERY
        # when each one does
        reached: dict = {}
        dead, alone = [False, False], False
        for i, pair in enumerate(state):
            for side, graph in ((0, graph_a), (1, graph_b)):
                configs = pair[side]
                alone = alone or configs is None
                if configs is None:
                    continue
                for config in configs:
                    succ = graph[config, x]
                    dead[side] = dead[side] or not succ
                    for c2, y in succ:
                        reached.setdefault((i, y), (set(), set()))[side].add(c2)
        dead_a, dead_b = dead
        if dead_a and (dead_b or refining):
            return None
        if dead_a or (dead_b and not refining):
            return _EVERY
        if dead_b or alone:
            return frozenset({(frozenset(c for ca, _ in reached.values() for c in ca), None)})
        return frozenset((frozenset(ca), frozenset(cb)) for ca, cb in reached.values())

    def fails(state):
        # a complete trace: an output trace of one side only (of b, refining)
        if refining:
            return any(cb is None or (cb and not ca) for ca, cb in state)
        return any((not ca) != (not cb) for ca, cb in state)

    if horizon == 0:
        return None
    clean: set = set()
    path, stack = [], [(frozenset({(frozenset(init_a), frozenset(init_b))}), horizon, iter(inputs))]
    while stack:
        state, left, xs = stack[-1]
        x = next(xs, None)
        if x is None:
            clean.add((state, left))
            stack.pop()
            if path:
                path.pop()
            continue
        nxt = after(state, x)
        if nxt is None or (nxt, left - 1) in clean:
            continue
        if nxt is _EVERY or (left == 1 and fails(nxt)):
            return tuple(path) + (x,) + (inputs[0],) * (left - 1)
        if left > 1:
            path.append(x)
            stack.append((nxt, left - 1, iter(inputs)))
    return None


def bounded_equiv(c1, c2, dom: FiniteDomain, horizon: int) -> EquivResult:
    """Exhaustively compare two components on every input trace of the given
    horizon: same first illegal step, same full-run output sets.  The
    counterexample is the first failing trace in the order of `dom.traces`.
    Each side's graph (see explore) is built whole, side 1 first, so a
    component that raises in `behavior` raises here, even when a difference
    shows early.  An ill-formed side raises WfError first."""
    c1, c2 = as_component(c1), as_component(c2)
    check_wf(c1)
    check_wf(c2)
    in1, in2 = sigma_in(c1), sigma_in(c2)
    if in1.types() != in2.types() or sigma_out(c1).types() != sigma_out(c2).types():
        return EquivResult(False, None, "signature mismatch")
    side1, side2 = explore(c1, dom, horizon), explore(c2, dom, horizon)
    trace = _first_failing(side1, side2, horizon, refining=False)
    if trace is None:
        return EquivResult(True)
    (k1, _), (k2, _) = _run(side1, trace), _run(side2, trace)
    return EquivResult(False, trace, f"illegal at {k1} vs {k2}" if k1 != k2 else "output sets differ")


def bounded_refute_refinement(abstract, concrete, dom: FiniteDomain, horizon: int) -> CheckResult:
    """Search for a bounded refutation of `abstract refined-by concrete`:
    an input legal for the abstract side but illegal for the concrete one, or
    a concrete output outside the abstract relation.  The two sides' input
    and output types must agree (SignatureMismatch otherwise, as for
    `refine_vc`).  The witness is the first failing trace in the order of
    `dom.traces`.  Each side's graph (see explore) is built whole, the
    abstract side first, even when a refutation shows early.  The bounded
    method can only refute, never prove.  An ill-formed side raises WfError
    first."""
    abstract, concrete = as_component(abstract), as_component(concrete)
    check_wf(abstract)
    check_wf(concrete)
    in_sig = sigma_in(abstract)
    if in_sig.types() != sigma_in(concrete).types():
        raise SignatureMismatch("input signatures differ")
    if sigma_out(abstract).types() != sigma_out(concrete).types():
        raise SignatureMismatch("output signatures differ")
    names = in_sig.names()
    sa, sc = explore(abstract, dom, horizon), explore(concrete, dom, horizon)
    trace = _first_failing(sa, sc, horizon, refining=True)
    if trace is None:
        return Unknown("no bounded counterexample up to the horizon")
    (_, outs_a), (kc, outs_c) = _run(sa, trace), _run(sc, trace)
    if kc is not None:
        witness = TraceWitness(names, trace, step=kc, note="legal input rejected by the concrete component")
    else:
        witness = TraceWitness(
            names, trace, outputs=min(outs_c - outs_a), note="concrete output outside the abstract relation"
        )
    return Refuted(witness, horizon=horizon)


def bounded_hoare(
    pre: Callable[[Trace], bool],
    c,
    post: Callable[[Trace], bool],
    dom: FiniteDomain,
    horizon: int,
) -> CheckResult:
    """Refute a Hoare triple on bounded traces: an input satisfying the
    precondition that is illegal or can produce an output violating the
    postcondition.  An ill-formed c raises WfError first."""
    c = as_component(c)
    check_wf(c)
    in_sig = sigma_in(c)
    names = in_sig.names()
    beh = behavior(c, dom, horizon)
    for trace in dom.traces(in_sig, horizon):
        if not pre(trace):
            continue
        k = beh.first_illegal(trace)
        if k is not None:
            return Refuted(TraceWitness(names, trace, step=k, note="precondition admits an illegal input"))
        for out in sorted(beh.outputs(trace)):
            if not post(out):
                return Refuted(TraceWitness(names, trace, outputs=out, note="postcondition violated"))
    return Unknown("no bounded counterexample")


# --- lasso evaluation of temporal formulas ----------------------------------


@dataclass(frozen=True)
class LassoWord:
    stem: tuple
    loop: tuple

    def __post_init__(self):
        if not self.loop:
            raise NonTemporalMisuse("lasso loops must be nonempty")

    def at(self, i: int):
        if i < len(self.stem):
            return self.stem[i]
        return self.loop[(i - len(self.stem)) % len(self.loop)]


@dataclass(frozen=True)
class Expansion:
    stem: int = 2
    loop: int = 2
    cap: int = 100000


def _primitive(loop: tuple) -> bool:
    n = len(loop)
    return all(n % d or loop != loop[:d] * (n // d) for d in range(1, n))


def all_lassos(values: tuple, max_stem: int, max_loop: int) -> list[LassoWord]:
    """All distinct ultimately periodic words within the bounds, each once, in
    its normal form: a primitive loop and a minimal stem, which holds exactly
    when the loop is no power of a shorter word and the stem is empty or ends
    in a letter other than the loop's last.

    The words come in the order stem length, loop length, stem, loop.  In that
    order a word's normal form is its first representation: any other one has
    a longer stem (the normal stem is the shortest), or the same stem and a
    loop that repeats the primitive one, hence a longer loop.  So keeping the
    normal forms keeps the first representation of every word.  Equal pool
    entries are merged first, keeping the first occurrence."""
    values = tuple(dict.fromkeys(values))
    primitive = [
        [l for l in itertools.product(values, repeat=ll) if _primitive(l)]
        for ll in range(1, max_loop + 1)
    ]
    out = []
    for ls in range(0, max_stem + 1):
        for loops in primitive:
            for stem in itertools.product(values, repeat=ls):
                out.extend(
                    LassoWord(stem, loop) for loop in loops if not stem or stem[-1] != loop[-1]
                )
    return out


def lasso_count(n: int, max_stem: int, max_loop: int) -> int:
    """len(all_lassos(values, max_stem, max_loop)) for n distinct values,
    without building the words.  Each primitive loop goes with n**max_stem
    stems: the empty one, and n**(k-1) * (n-1) of each length k that end in
    another letter than the loop.  The primitive loops of length d number
    P(d) = n**d minus P(k) over the proper divisors k of d."""
    prim: dict[int, int] = {}
    for d in range(1, max_loop + 1):
        prim[d] = n**d - sum(prim[k] for k in range(1, d) if d % k == 0)
    return n**max_stem * sum(prim.values())


@dataclass(frozen=True)
class QltlVerdict:
    """family: plain evaluation with quantifiers ranging over the finite
    lasso family.  definite: sound three-valued verdict (None when the family
    approximation cannot decide)."""

    family: bool
    definite: Optional[bool]


class _Lasso:
    """(family, definite) pairs on lasso words, as in QltlVerdict.  The cap
    of `expand` bounds each quantifier's lasso family (distinct words) and
    the number of formula nodes one evaluation visits; `visit` spends
    visits of it.  The families are built once per domain
    (`FiniteDomain.families`), the labels (see _compile) once per
    evaluation."""

    true, false = (True, True), (False, False)
    read = staticmethod(LassoWord.at)
    primed_refusal = "primed reference in temporal evaluation"
    open_ended = False
    not_, and_, or_, iff = map(staticmethod, (_not2, _and2, _or2, _iff2))

    def __init__(self, expand: Expansion, dom: FiniteDomain):
        self.expand, self.dom, self.ops, self.labels = expand, dom, 0, {}

    def visit(self, visits: int = 1):
        self.ops += visits
        if self.ops > self.expand.cap:
            raise ExplosionGuard("temporal evaluation exceeds the work budget")

    @staticmethod
    def label_slots(f, scope) -> tuple:
        # a window spans the stems and periods of every word in scope
        return tuple(sorted(scope.values()))

    @staticmethod
    def atom(v):
        return v, v

    def window(self, env, visible, i: int):
        # past the longest stem plus two common periods every position
        # repeats one already scanned, so the scan's value is definite
        s, p = 0, 1
        for k in visible:
            w = env[k]
            s, p = max(s, len(w.stem)), math.lcm(p, len(w.loop))
        return range(i, i + s + 2 * p + 3)

    def candidates(self, ty):
        values, e = self.dom.values(ty), self.expand
        key = (values, e.stem, e.loop)
        family = self.dom.families.get(key)
        size = lasso_count(len(dict.fromkeys(values)), e.stem, e.loop) if family is None else len(family)
        if size > e.cap:
            raise ExplosionGuard(f"quantifier lasso family of {size} words exceeds the cap {e.cap}")
        if family is None:
            family = self.dom.families[key] = all_lassos(values, e.stem, e.loop)
        return family

    @staticmethod
    def unsettled(universal: bool, results: list):
        # the family is a finite sample of the words: only its own verdict
        families = [fam for fam, _ in results]
        return (all(families) if universal else any(families)), None


def eval_qltl(
    phi: Formula,
    words: dict[Var, LassoWord],
    expand: Expansion = Expansion(),
    dom: FiniteDomain = None,
) -> QltlVerdict:
    """Evaluate a temporal formula on ultimately periodic words.

    Quantified sequence variables range over all lasso words within the
    expansion bounds: existential hits and universal misses are definite;
    the rest is reported as an approximation (family verdict).
    """
    unbound = {v for v in free_vars(phi).vars if v not in words}
    if unbound:
        v = first_free(phi, unbound) or first_free(phi, unbound, primed=True)
        raise NonTemporalMisuse(f"free variable {v.name} has no lasso word")
    env = (_Lasso(expand, dom or FiniteDomain()),) + tuple(words.values())
    fam, snd = _program(phi, _Lasso, tuple(words))(env, 0)
    return QltlVerdict(bool(fam), snd)


# --- bounded prefix (three-valued) evaluation --------------------------------


class _Prefix(_Step):
    """Kleene logic on finite prefixes: None where the infinite extensions
    disagree.  No work budget; labels (see _compile) live for one
    evaluation."""

    open_ended = True
    read = staticmethod(lambda w, i: w[i] if i < len(w) else POISON)
    primed_refusal = "prefix evaluation does not handle primed terms"
    ops = 0

    def __init__(self, dom: FiniteDomain, length: int):
        super().__init__(dom)
        self.length, self.labels = length, {}

    @staticmethod
    def label_slots(f, scope) -> tuple:
        # a window is the rest of the prefix, whatever the words
        return tuple(sorted({scope[v] for v in free_refs(f)[0] if v in scope}))

    def window(self, env, visible, i: int):
        return range(i, self.length)

    def candidates(self, ty):
        values = self.dom.values(ty)
        if len(values) ** self.length > self.dom.cap:
            raise ExplosionGuard("prefix quantifier expansion exceeds the cap")
        return itertools.product(values, repeat=self.length)


def eval_prefix3(phi: Formula, words: dict[Var, tuple], dom: FiniteDomain) -> Optional[bool]:
    """Three-valued truth of a temporal formula on finite trace prefixes:
    True / False only when every infinite extension agrees; None otherwise.
    Quantified sequence variables range over value tuples of the prefix
    length, the shortest word's.

    A term that reads a position past its word's prefix is unknown, and so
    is an atom over it.  An unknown value decides nothing, with one
    exception: an `ite` whose condition is known takes its branch, whatever
    the other branch reads.  A left operand that decides And, Or or Implies
    decides it whatever the right operand is, even one that would raise."""
    if not words:
        raise NonTemporalMisuse("prefix evaluation needs at least one bound variable")
    length = min(len(w) for w in words.values())
    if length == 0:
        return None
    env = (_Prefix(dom, length),) + tuple(words.values())
    return _program(phi, _Prefix, tuple(words))(env, 0)
