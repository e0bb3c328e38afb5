"""Bounded operational semantics over finite domains: exhaustive enumeration
of transition-system behaviors, stepwise execution of deterministic
composites, lasso-word evaluation of temporal formulas, and the brute-force
cross-checks (equivalence, refinement refutation, Hoare triples) used to
validate every symbolic operation independently."""

from __future__ import annotations

import itertools
import math
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
    free_vars,
)
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


@dataclass(frozen=True)
class TraceAssignment:
    names: tuple[str, ...]
    steps: tuple[tuple, ...]

    @property
    def horizon(self) -> int:
        return len(self.steps)

    def slot(self, name: str) -> tuple:
        i = self.names.index(name)
        return tuple(s[i] for s in self.steps)


class FiniteDomain:
    """Explicit finite value lists per type.  Bool, ranges, and enums
    enumerate themselves; unbounded ints and reals need an override entry
    (keyed 'int' / 'real' or by the exact type)."""

    def __init__(self, overrides: dict = None, cap: int = 10**7):
        self.overrides = dict(overrides or {})
        self.cap = cap

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
    where the type is `int` or `real` and every value is one of it."""
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
        overrides[name] = values
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


# --- step-level evaluation --------------------------------------------------


class _Poison:
    """Absorbing placeholder used during the first feedback pass; its value
    never reaches a committed output on loop-free components."""

    def __repr__(self):
        return "<poison>"


POISON = _Poison()


def euclid_div(a: int, b: int) -> int:
    if b == 0:
        return 0
    q = a // b if b > 0 else -(a // -b)
    return q


def _apply_fn(symbol: str, args: list):
    if any(a is POISON for a in args):
        if symbol == "ite" and args[0] is not POISON:
            return args[1] if args[0] else args[2]
        return POISON
    if symbol == "+":
        return args[0] + args[1]
    if symbol == "-":
        return args[0] - args[1]
    if symbol == "*":
        return args[0] * args[1]
    if symbol == "/":
        a, b = args
        if isinstance(a, bool) or isinstance(b, bool):
            raise NonTemporalMisuse("division on booleans")
        if isinstance(a, int) and isinstance(b, int):
            return euclid_div(a, b)
        if b == 0:
            return Fraction(0)
        return Fraction(a) / Fraction(b)
    if symbol == "neg":
        return -args[0]
    if symbol == "ite":
        return args[1] if args[0] else args[2]
    raise KindError(f"unknown function symbol {symbol}")


def _apply_pred(pred: str, a, b) -> bool:
    if a is POISON or b is POISON:
        return POISON
    if pred == "=":
        return a == b
    if pred == "!=":
        return a != b
    if pred == "<":
        return a < b
    if pred == "<=":
        return a <= b
    if pred == ">":
        return a > b
    if pred == ">=":
        return a >= b
    raise KindError(f"unknown predicate {pred}")


def _eval_term(t: Term, env: dict, i: Optional[int] = None, primed: dict = None):
    """Value of a term.  At one step (`i` is None) a variable reads its value
    in `env` and a primed one its value in `primed`.  At position `i` of a
    temporal evaluation `env` maps each variable to a lasso word or to a
    finite prefix, and a position past the prefix reads POISON."""
    if isinstance(t, VarRef):
        if i is None:
            return env[t.var]
        w = env[t.var]
        if isinstance(w, LassoWord):
            return w.at(i)
        return w[i] if i < len(w) else POISON
    if isinstance(t, Const):
        v = t.value
        return Fraction(v) if isinstance(t.ty, RealType) and not isinstance(v, Fraction) else v
    if isinstance(t, App):
        return _apply_fn(t.symbol, [_eval_term(a, env, i, primed) for a in t.args])
    if isinstance(t, NextRef):
        if i is None:
            raise NonTemporalMisuse("next operator outside temporal evaluation")
        return _eval_term(t.arg, env, i + 1, primed)
    if isinstance(t, PrimedRef):
        if i is None:
            return (primed or {})[t.var]
        if all(isinstance(w, LassoWord) for w in env.values()):
            raise NonTemporalMisuse("primed reference in temporal evaluation")
        raise NonTemporalMisuse("prefix evaluation does not handle primed terms")
    raise KindError(f"not a term: {t!r}")


def _evaluate(f: Formula, env: dict, i: Optional[int], sem):
    """Truth of a formula at step or position `i` under the semantics `sem`
    (`_Step`, `_Prefix` or `_Lasso`).  `sem` gives the truth values `true`
    and `false`, the connectives on the values between them, the mapping of
    an atom's value, the positions an `until` scans (see `_until`), the
    `candidates` a quantified variable ranges over and the value of a
    quantifier no instance settles; `visit`, when set, is called on every
    node.  A left operand equal to `true` or `false` decides And, Or and
    Implies, and the right one is then not evaluated."""
    if sem.visit:
        sem.visit()
    if isinstance(f, Atom):
        a, b = f.args
        return sem.atom(
            _apply_pred(f.pred, _eval_term(a, env, i, sem.primed), _eval_term(b, env, i, sem.primed))
        )
    if isinstance(f, (And, Or, Implies)):
        # true is the unit of And and false absorbs it; Or is the dual, and
        # a -> b is (not a) or b
        conj = isinstance(f, And)
        a = _evaluate(f.left, env, i, sem)
        if isinstance(f, Implies):
            a = sem.not_(a)
        if a == (sem.false if conj else sem.true):
            return a
        b = _evaluate(f.right, env, i, sem)
        if a == (sem.true if conj else sem.false):
            return b
        return sem.and_(a, b) if conj else sem.or_(a, b)
    if isinstance(f, Not):
        return sem.not_(_evaluate(f.arg, env, i, sem))
    if isinstance(f, TrueC):
        return sem.true
    if isinstance(f, FalseC):
        return sem.false
    if isinstance(f, Iff):
        return sem.iff(_evaluate(f.left, env, i, sem), _evaluate(f.right, env, i, sem))
    # F a = true U a;  G a = not (true U not a);  a W b = not (a U not b)
    if isinstance(f, Until):
        return _until(f.left, f.right, env, i, sem)
    if isinstance(f, Finally):
        return _until(TRUEC, f.arg, env, i, sem)
    if isinstance(f, Globally):
        return sem.not_(_until(TRUEC, Not(f.arg), env, i, sem))
    if isinstance(f, Leads):
        return sem.not_(_until(f.left, Not(f.right), env, i, sem))
    if isinstance(f, (Forall, Exists)):
        # an instance that is definitely false (Forall) or true (Exists)
        # settles the quantifier; the semantics combines the other ones
        universal = isinstance(f, Forall)
        decisive = sem.false if universal else sem.true
        results = []
        for v in sem.candidates(f.var.ty):
            r = _evaluate(f.body, {**env, f.var: v}, i, sem)
            if r == decisive:
                return r
            results.append(r)
        return sem.unsettled(universal, results)
    raise KindError(f"not a formula: {f!r}")


def _until(left, right, env, i: int, sem):
    """left U right at position i, scanned over the positions of
    `sem.window(env, i)`.  A scan that ends with left holding all along and
    right never is open on a finite prefix (`sem.open_ended`), and definite
    past a lasso window."""
    acc, pref = sem.false, sem.true
    for k in sem.window(env, i):
        acc = sem.or_(acc, sem.and_(pref, _evaluate(right, env, k, sem)))
        if acc == sem.true:
            return acc
        pref = sem.and_(pref, _evaluate(left, env, k, sem))
        if pref == sem.false:
            # no candidate position can lie beyond a broken chain
            return acc
    return None if sem.open_ended else acc


def _and3(a, b):
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    return None


def _or3(a, b):
    if a is True or b is True:
        return True
    if a is False and b is False:
        return False
    return None


def _not3(a):
    return None if a is None else (not a)


def _iff3(a, b):
    return None if (a is None or b is None) else (a == b)


def _pairwise(op):
    return staticmethod(lambda *values: tuple(map(op, *values)))


class _Step:
    """Truth at one step.  Its connectives are Kleene's, which _Prefix
    shares; at one step no value is unknown, so they act as two-valued ones.
    Quantifiers range over the finite domain of the bound variable's type;
    temporal operators are refused."""

    true, false = True, False
    visit = None
    not_ = staticmethod(_not3)
    and_ = staticmethod(_and3)
    or_ = staticmethod(_or3)
    iff = staticmethod(_iff3)

    def __init__(self, dom: FiniteDomain = None, primed: dict = None):
        self.dom = dom
        self.primed = primed

    @staticmethod
    def atom(v):
        return None if v is POISON else v

    def window(self, env, i):
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
    return _evaluate(f, plain, None, _Step(dom, primed))


# --- one stepper per component ------------------------------------------------


class _StepIllegal(Exception):
    pass


class _Stepper:
    """One step of a component: `init` lists its initial configurations and
    `successors(config, x)` the pairs (config', y) that one step on input x
    reaches from config.  An empty list means some run from config has no
    continuation on x: x is illegal there.  A probe step (`commit` false)
    checks no legality and keeps the state; only the deterministic steppers
    under a feedback take one.

    `step` is the stateful view of a deterministic stepper that a feedback's
    two passes use: one step from `state`, which a committing step advances;
    an illegal input raises _StepIllegal."""

    state = None

    def get_state(self):
        return self.state

    def set_state(self, s):
        self.state = s

    def step(self, inputs, commit: bool):
        succ = self.successors(self.state, tuple(inputs), commit)
        if not succ:
            raise _StepIllegal()
        ((state, y),) = succ
        if commit:
            self.state = state
        return y


class _DetAtom(_Stepper):
    """A deterministic atom: one successor, none on an illegal input."""

    def __init__(self, a: AtomicComponent, dom: FiniteDomain = None):
        self.atom = a
        self.sem = _Step(dom)
        self.xvars = a.inputs.vars()
        if isinstance(a, Det):
            self.init = [tuple(_eval_term(cst, {}) for cst in a.init_vals)]
            self.svars = a.states.vars()
        else:
            self.init = [()]
            self.svars = ()

    def successors(self, s, x, commit: bool = True):
        env = dict(zip(self.svars, s))
        env.update(zip(self.xvars, x))
        if commit and not _evaluate(self.atom.inpt, env, None, self.sem):
            return []
        y = tuple(_eval_term(t, env) for t in self.atom.out)
        if commit and isinstance(self.atom, Det):
            s = tuple(_eval_term(t, env) for t in self.atom.next)
        return [(s, y)]


class _StsAtom(_Stepper):
    """A transition system: the successors of a (state, input) pair range
    over the domain's states and outputs, and are computed once."""

    def __init__(self, c: Sts, dom: FiniteDomain):
        self.c, self.dom = c, dom
        self.svars, self.xvars, self.yvars = c.states.vars(), c.inputs.vars(), c.outputs.vars()
        self.states = dom.tuples(c.states)
        inputs = dom.tuples(c.inputs)
        self.outputs = dom.tuples(c.outputs)
        if len(self.states) * max(len(inputs), 1) * max(len(self.outputs), 1) > dom.cap:
            raise ExplosionGuard("state/input/output product exceeds the cap")
        self.init = [
            s for s in self.states if eval_formula_step(c.init, dict(zip(self.svars, s)), None, dom)
        ]
        self.memo: dict = {}

    def successors(self, s, x, commit: bool = True):
        key = (s, x)
        if key not in self.memo:
            env = dict(zip(self.svars, s))
            env.update(zip(self.xvars, x))
            succ = []
            for s2 in self.states:
                primed = dict(zip(self.svars, s2))
                for y in self.outputs:
                    env2 = dict(env)
                    env2.update(zip(self.yvars, y))
                    if eval_formula_step(self.c.trs, env2, primed, self.dom):
                        succ.append((s2, y))
            self.memo[key] = succ
        return self.memo[key]


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
    """Two-pass evaluation: pass 1 computes the looped-back first output with
    a poison placeholder on the first input (sound because the loop is
    dependency-free), pass 2 re-evaluates with the actual value and is the
    only pass that checks legality and advances state."""

    def __init__(self, child):
        self.child = child

    @property
    def init(self):
        return self.child.init

    def successors(self, config, x, commit: bool = True):
        self.child.set_state(config)
        first = self.child.step((POISON,) + x, commit=False)[0]
        if commit:
            # an unresolved outer loop may legitimately leave poison here
            # during a probe pass, but never on the committing pass
            if first is POISON:
                raise SoundnessError("feedback loop produced a value-dependent first output")
        try:
            outs = self.child.step((first,) + x, commit=commit)
        except _StepIllegal:
            return []
        if commit:
            if outs[0] != first:
                raise SoundnessError("feedback passes disagree on the first output")
        return [(self.child.get_state(), tuple(outs[1:]))]


def _stepper(c: Component, dom: FiniteDomain) -> _Stepper:
    if isinstance(c, Atomic):
        a = c.atom
        if isinstance(a, (Det, StatelessDet)):
            return _DetAtom(a, dom)
        if isinstance(a, Stateless):
            a = Sts(a.inputs, a.outputs, Signature(()), TrueC(), a.io)
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
        return _FdbkEval(_stepper(c.child, dom))
    raise KindError(f"not a component: {c!r}")


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

    def first_illegal(self, trace: Trace) -> Optional[int]:
        for k in range(len(trace)):
            if trace[: k + 1] in self.dead:
                return k
        return None

    def outputs(self, trace: Trace) -> frozenset:
        return self.pouts.get(trace, frozenset())


def behavior(c, dom: FiniteDomain, horizon: int) -> Behavior:
    """Bounded behavior of a component tree, computed without symbolic
    composition: one walk over the input prefixes of the domain steps the
    component's configurations (see _Stepper), so a shared prefix runs once.
    A serial stage sees the values the stage before it computed, inside the
    domain or not."""
    c = as_component(c)
    node = _stepper(c, dom)
    in_sig = sigma_in(c)
    inputs = dom.tuples(in_sig)
    dom.traces(in_sig, horizon)  # the walk visits every trace: the same cap holds
    pouts: dict = {}
    dead: set = set()
    # (prefix, configs): each configuration reachable on the prefix -> the
    # output prefixes of the runs that reach it; a configuration steps once
    # for them all.  An explicit stack, not a recursive closure: that would
    # be a reference cycle keeping pouts alive until the next full collection.
    stack = [((), {s: {()} for s in node.init})]
    while stack:
        px, configs = stack.pop()
        for x in inputs:
            px2 = px + (x,)
            nxt: dict = {}
            for config, pys in configs.items():
                succ = node.successors(config, x)
                if not succ:
                    dead.add(px2)
                for c2, y in succ:
                    nxt.setdefault(c2, set()).update(py + (y,) for py in pys)
            pouts[px2] = frozenset().union(*nxt.values())
            if len(px2) < horizon:
                stack.append((px2, nxt))
    return Behavior(horizon, in_sig, sigma_out(c), pouts, dead)


def bounded_rel(c, dom: FiniteDomain, horizon: int):
    """Exhaustive relation of a transition-system-family atomic component:
    the full-run input/output pairs and the illegal input prefixes."""
    if isinstance(c, Atomic):
        c = c.atom
    if isinstance(c, Qltl):
        raise KindError("temporal components have no stepwise bounded relation")
    if horizon < 1:
        raise DomainNotFinite("horizon must be at least 1")
    beh = behavior(Atomic(c), dom, horizon)
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

    Returns the output trace (steps x slots) or IllegalAt(step).
    """
    c = as_component(c)
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


def bounded_equiv(c1, c2, dom: FiniteDomain, horizon: int) -> EquivResult:
    """Exhaustively compare two components on every input trace of the given
    horizon: same first illegal step, same full-run output sets."""
    c1, c2 = as_component(c1), as_component(c2)
    in1, in2 = sigma_in(c1), sigma_in(c2)
    if in1.types() != in2.types() or sigma_out(c1).types() != sigma_out(c2).types():
        return EquivResult(False, None, "signature mismatch")
    b1 = behavior(c1, dom, horizon)
    b2 = behavior(c2, dom, horizon)
    for trace in dom.traces(in1, horizon):
        k1, k2 = b1.first_illegal(trace), b2.first_illegal(trace)
        if k1 != k2:
            return EquivResult(False, trace, f"illegal at {k1} vs {k2}")
        if k1 is None and b1.outputs(trace) != b2.outputs(trace):
            return EquivResult(False, trace, "output sets differ")
    return EquivResult(True)


def bounded_refute_refinement(abstract, concrete, dom: FiniteDomain, horizon: int) -> CheckResult:
    """Search for a bounded refutation of `abstract refined-by concrete`:
    an input legal for the abstract side but illegal for the concrete one, or
    a concrete output outside the abstract relation.  The bounded method can
    only refute, never prove."""
    abstract, concrete = as_component(abstract), as_component(concrete)
    in_sig = sigma_in(abstract)
    ba = behavior(abstract, dom, horizon)
    bc = behavior(concrete, dom, horizon)
    names = in_sig.names()
    for trace in dom.traces(in_sig, horizon):
        ka = ba.first_illegal(trace)
        if ka is not None:
            continue
        kc = bc.first_illegal(trace)
        if kc is not None:
            return Refuted(
                TraceWitness(names, trace, step=kc, note="legal input rejected by the concrete component"),
                horizon=horizon,
            )
        extra = bc.outputs(trace) - ba.outputs(trace)
        if extra:
            out = min(extra)
            return Refuted(
                TraceWitness(names, trace, outputs=out, note="concrete output outside the abstract relation"),
                horizon=horizon,
            )
    return Unknown("no bounded counterexample up to the horizon")


def bounded_hoare(
    pre: Callable[[Trace], bool],
    c,
    post: Callable[[Trace], bool],
    dom: FiniteDomain,
    horizon: int,
) -> CheckResult:
    """Refute a Hoare triple on bounded traces: an input satisfying the
    precondition that is illegal or can produce an output violating the
    postcondition."""
    c = as_component(c)
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
    the number of formula nodes one evaluation visits."""

    true, false = (True, True), (False, False)
    primed = None
    open_ended = False
    # the family value is two-valued, the definite one Kleene: the Kleene
    # connectives serve both
    not_ = _pairwise(_not3)
    and_ = _pairwise(_and3)
    or_ = _pairwise(_or3)
    iff = _pairwise(_iff3)

    def __init__(self, expand: Expansion, dom: FiniteDomain):
        self.expand = expand
        self.dom = dom
        self.ops = 0
        self.families: dict = {}

    def visit(self):
        self.ops += 1
        if self.ops > self.expand.cap:
            raise ExplosionGuard("temporal evaluation exceeds the work budget")

    @staticmethod
    def atom(v):
        return v, v

    def window(self, env, i: int):
        # past the longest stem plus two common periods every position
        # repeats one already scanned, so the scan's value is definite
        s = max([len(w.stem) for w in env.values()] or [0])
        p = math.lcm(*(len(w.loop) for w in env.values()))
        return range(i, i + s + 2 * p + 3)

    def candidates(self, ty):
        values = self.dom.values(ty)
        if values not in self.families:
            size = lasso_count(len(dict.fromkeys(values)), self.expand.stem, self.expand.loop)
            if size > self.expand.cap:
                raise ExplosionGuard(
                    f"quantifier lasso family of {size} words exceeds the cap {self.expand.cap}"
                )
            self.families[values] = all_lassos(values, self.expand.stem, self.expand.loop)
        return self.families[values]

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
    for v in free_vars(phi).vars:
        if v not in words:
            raise NonTemporalMisuse(f"free variable {v.name} has no lasso word")
    fam, snd = _evaluate(phi, dict(words), 0, _Lasso(expand, dom or FiniteDomain()))
    return QltlVerdict(bool(fam), snd)


# --- bounded prefix (three-valued) evaluation --------------------------------


class _Prefix(_Step):
    """Kleene logic on finite prefixes: None where the infinite extensions
    disagree."""

    open_ended = True

    def __init__(self, dom: FiniteDomain, length: int):
        super().__init__(dom)
        self.length = length

    def window(self, env, i: int):
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
    return _evaluate(phi, dict(words), 0, _Prefix(dom, length))
