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
    TrueC,
    Until,
)
from .terms import App, Const, NextRef, PrimedRef, Term, VarRef
from .types import (
    BoolType,
    EnumType,
    IntRange,
    IntType,
    RealType,
    SemType,
    UnitType,
    Var,
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


def parse_domain_file(text: str) -> FiniteDomain:
    """Override file: lines of the form `domain <typename> = {v1, v2, ...}`."""
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
        if not (rest.startswith("{") and rest.endswith("}")):
            raise DomainNotFinite(f"cannot parse domain values in: {raw!r}")
        pieces = [p for p in rest[1:-1].split(",") if p.strip()]
        overrides[name] = tuple(parse_literal(p) for p in pieces)
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


def eval_term_step(t: Term, plain: dict, primed: dict = None):
    if isinstance(t, VarRef):
        return plain[t.var]
    if isinstance(t, PrimedRef):
        return (primed or {})[t.var]
    if isinstance(t, Const):
        v = t.value
        return Fraction(v) if isinstance(t.ty, RealType) and not isinstance(v, Fraction) else v
    if isinstance(t, App):
        return _apply_fn(t.symbol, [eval_term_step(a, plain, primed) for a in t.args])
    if isinstance(t, NextRef):
        raise NonTemporalMisuse("next operator outside temporal evaluation")
    raise KindError(f"not a term: {t!r}")


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


def eval_formula_step(f: Formula, plain: dict, primed: dict = None, dom: FiniteDomain = None) -> bool:
    """Evaluate a non-temporal formula at one step; quantifiers range over the
    finite domain of the bound variable's type."""
    if isinstance(f, TrueC):
        return True
    if isinstance(f, FalseC):
        return False
    if isinstance(f, Atom):
        a = eval_term_step(f.args[0], plain, primed)
        b = eval_term_step(f.args[1], plain, primed)
        return _apply_pred(f.pred, a, b)
    if isinstance(f, Not):
        return not eval_formula_step(f.arg, plain, primed, dom)
    if isinstance(f, And):
        return eval_formula_step(f.left, plain, primed, dom) and eval_formula_step(
            f.right, plain, primed, dom
        )
    if isinstance(f, Or):
        return eval_formula_step(f.left, plain, primed, dom) or eval_formula_step(
            f.right, plain, primed, dom
        )
    if isinstance(f, Implies):
        return (not eval_formula_step(f.left, plain, primed, dom)) or eval_formula_step(
            f.right, plain, primed, dom
        )
    if isinstance(f, Iff):
        return eval_formula_step(f.left, plain, primed, dom) == eval_formula_step(
            f.right, plain, primed, dom
        )
    if isinstance(f, (Forall, Exists)):
        if dom is None:
            raise DomainNotFinite("quantifier evaluation needs a finite domain")
        vals = dom.values(f.var.ty)
        results = (
            eval_formula_step(f.body, {**plain, f.var: v}, primed, dom) for v in vals
        )
        return all(results) if isinstance(f, Forall) else any(results)
    if isinstance(f, (Until, Leads, Globally, Finally)):
        raise NonTemporalMisuse("temporal operator in step evaluation")
    raise KindError(f"not a formula: {f!r}")


# --- behaviors of atomic components ----------------------------------------


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


def _sts_behavior(c: Sts, dom: FiniteDomain, horizon: int) -> Behavior:
    svars = c.states.vars()
    xvars = c.inputs.vars()
    yvars = c.outputs.vars()
    states = dom.tuples(c.states)
    inputs = dom.tuples(c.inputs)
    outputs = dom.tuples(c.outputs)
    if len(states) * max(len(inputs), 1) * max(len(outputs), 1) > dom.cap:
        raise ExplosionGuard("state/input/output product exceeds the cap")

    init_states = [
        s for s in states if eval_formula_step(c.init, dict(zip(svars, s)), None, dom)
    ]

    succ_cache: dict = {}

    def successors(s, x):
        key = (s, x)
        if key in succ_cache:
            return succ_cache[key]
        env = dict(zip(svars, s))
        env.update(zip(xvars, x))
        succ = []
        for s2 in states:
            primed = dict(zip(svars, s2))
            for y in outputs:
                env2 = dict(env)
                env2.update(zip(yvars, y))
                if eval_formula_step(c.trs, env2, primed, dom):
                    succ.append((s2, y))
        succ_cache[key] = succ
        return succ

    pouts: dict = {}
    dead: set = set()

    def walk(px: Trace, configs):
        # configs: set of (state, output prefix) pairs reachable on px
        for x in inputs:
            nxt = set()
            died = False
            for (s, py) in configs:
                succ = successors(s, x)
                if not succ:
                    died = True
                else:
                    for (s2, y) in succ:
                        nxt.add((s2, py + (y,)))
            px2 = px + (x,)
            if died:
                dead.add(px2)
            pouts[px2] = frozenset(py for (_, py) in nxt)
            if len(px2) < horizon and nxt:
                walk(px2, nxt)
            elif len(px2) < horizon:
                _mark_empty(px2, inputs, horizon, pouts)

    start = {(s, ()) for s in init_states}
    walk((), start)
    return Behavior(horizon, c.inputs, c.outputs, pouts, dead)


def _mark_empty(px: Trace, inputs, horizon: int, pouts: dict):
    for x in inputs:
        px2 = px + (x,)
        pouts[px2] = frozenset()
        if len(px2) < horizon:
            _mark_empty(px2, inputs, horizon, pouts)


def _det_behavior(c: AtomicComponent, dom: FiniteDomain, horizon: int) -> Behavior:
    """Deterministic atoms run a single configuration per prefix."""
    ev = _AtomEval(c, dom)
    inputs = dom.tuples(c.inputs)
    pouts: dict = {}
    dead: set = set()

    def walk(px: Trace, state, py: Trace):
        for x in inputs:
            px2 = px + (x,)
            ev.set_state(state)
            if not ev.check(x):
                dead.add(px2)
                pouts[px2] = frozenset()
                if len(px2) < horizon:
                    _mark_empty(px2, inputs, horizon, pouts)
                continue
            y = tuple(ev.step(x, commit=True))
            py2 = py + (y,)
            pouts[px2] = frozenset({py2})
            if len(px2) < horizon:
                walk(px2, ev.get_state(), py2)

    walk((), ev.get_state(), ())
    return Behavior(horizon, c.inputs, c.outputs, pouts, dead)


def behavior(c, dom: FiniteDomain, horizon: int) -> Behavior:
    """Bounded behavior of a component tree, computed without symbolic
    composition: serial/parallel behaviors compose the children's behaviors,
    feedback runs the two-pass executor over a deterministic subtree."""
    c = as_component(c)
    if isinstance(c, Atomic):
        a = c.atom
        if isinstance(a, (Det, StatelessDet)):
            return _det_behavior(a, dom, horizon)
        if isinstance(a, Stateless):
            a = Sts(a.inputs, a.outputs, Signature(()), TrueC(), a.io)
            return _sts_behavior(a, dom, horizon)
        if isinstance(a, Sts):
            return _sts_behavior(a, dom, horizon)
        raise KindError("temporal components have no stepwise bounded behavior")
    if isinstance(c, Serial):
        return _serial_behavior(
            behavior(c.left, dom, horizon), behavior(c.right, dom, horizon), dom, horizon
        )
    if isinstance(c, Parallel):
        return _parallel_behavior(
            behavior(c.left, dom, horizon),
            behavior(c.right, dom, horizon),
            sigma_in(c),
            sigma_out(c),
            dom,
            horizon,
        )
    if isinstance(c, Fdbk):
        from .compose import determ, loop_free

        if not determ(c):
            raise NotDeterministic("feedback behavior needs a deterministic subtree")
        if not loop_free(c):
            raise NotLoopFree("feedback behavior needs a loop-free subtree")
        return _exec_behavior(c, dom, horizon)
    raise KindError(f"not a component: {c!r}")


def _serial_behavior(a: Behavior, b: Behavior, dom, horizon: int) -> Behavior:
    pouts: dict = {}
    dead: set = set()

    def walk(px: Trace):
        for x in dom.tuples(a.in_sig):
            px2 = px + (x,)
            mids = a.pouts.get(px2, frozenset())
            if px2 in a.dead:
                dead.add(px2)
            if any(py in b.dead for py in mids):
                dead.add(px2)
            outs = set()
            for py in mids:
                outs |= b.pouts.get(py, frozenset())
            pouts[px2] = frozenset(outs)
            if len(px2) < horizon:
                walk(px2)

    walk(())
    return Behavior(horizon, a.in_sig, b.out_sig, pouts, dead)


def _parallel_behavior(a: Behavior, b: Behavior, in_sig, out_sig, dom, horizon: int) -> Behavior:
    na = len(a.in_sig)
    pouts: dict = {}
    dead: set = set()

    def split(px: Trace):
        return tuple(s[:na] for s in px), tuple(s[na:] for s in px)

    def walk(px: Trace):
        for x in dom.tuples(in_sig):
            px2 = px + (x,)
            pa, pb = split(px2)
            if pa in a.dead or pb in b.dead:
                dead.add(px2)
            outs = set()
            for ya in a.pouts.get(pa, frozenset()):
                for yb in b.pouts.get(pb, frozenset()):
                    outs.add(tuple(sa + sb for sa, sb in zip(ya, yb)))
            pouts[px2] = frozenset(outs)
            if len(px2) < horizon:
                walk(px2)

    walk(())
    return Behavior(horizon, in_sig, out_sig, pouts, dead)


def _exec_behavior(c: Component, dom, horizon: int) -> Behavior:
    ev = _make_evaluator(c)
    in_sig = sigma_in(c)
    out_sig = sigma_out(c)
    inputs = dom.tuples(in_sig)
    pouts: dict = {}
    dead: set = set()

    def walk(px: Trace, state, alive: bool):
        for x in inputs:
            px2 = px + (x,)
            if not alive:
                pouts[px2] = frozenset()
                if len(px2) < horizon:
                    walk(px2, state, False)
                continue
            ev.set_state(state)
            try:
                y = ev.step(x, commit=True)
                ok = True
            except _StepIllegal:
                ok = False
            if not ok:
                dead.add(px2)
                pouts[px2] = frozenset()
                if len(px2) < horizon:
                    walk(px2, state, False)
            else:
                base = pouts.get(px, frozenset({()})) or frozenset({()})
                pouts[px2] = frozenset(py + (tuple(y),) for py in base)
                if len(px2) < horizon:
                    walk(px2, ev.get_state(), True)

    walk((), ev.get_state(), True)
    return Behavior(horizon, in_sig, out_sig, pouts, dead)


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


# --- stepwise execution of deterministic composites -------------------------


class _StepIllegal(Exception):
    pass


class _AtomEval:
    def __init__(self, a: AtomicComponent, dom: FiniteDomain = None):
        self.atom = a
        self.dom = dom
        self.xvars = a.inputs.vars()
        if isinstance(a, Det):
            self.state = tuple(eval_term_step(cst, {}) for cst in a.init_vals)
            self.svars = a.states.vars()
        else:
            self.state = ()
            self.svars = ()

    def get_state(self):
        return self.state

    def set_state(self, s):
        self.state = s

    def check(self, inputs) -> bool:
        env = dict(zip(self.svars, self.state))
        env.update(zip(self.xvars, inputs))
        return eval_formula_step(self.atom.inpt, env, None, self.dom)

    def step(self, inputs, commit: bool):
        env = dict(zip(self.svars, self.state))
        env.update(zip(self.xvars, inputs))
        if commit:
            if not eval_formula_step(self.atom.inpt, env, None, self.dom):
                raise _StepIllegal()
        outs = [eval_term_step(t, env) for t in self.atom.out]
        if commit and isinstance(self.atom, Det):
            self.state = tuple(eval_term_step(t, env) for t in self.atom.next)
        return outs


class _SerialEval:
    def __init__(self, left, right):
        self.left, self.right = left, right

    def get_state(self):
        return (self.left.get_state(), self.right.get_state())

    def set_state(self, s):
        self.left.set_state(s[0])
        self.right.set_state(s[1])

    def step(self, inputs, commit: bool):
        mid = self.left.step(inputs, commit)
        return self.right.step(tuple(mid), commit)


class _ParallelEval:
    def __init__(self, left, right, n_left: int):
        self.left, self.right, self.n = left, right, n_left

    def get_state(self):
        return (self.left.get_state(), self.right.get_state())

    def set_state(self, s):
        self.left.set_state(s[0])
        self.right.set_state(s[1])

    def step(self, inputs, commit: bool):
        a = self.left.step(tuple(inputs[: self.n]), commit)
        b = self.right.step(tuple(inputs[self.n :]), commit)
        return list(a) + list(b)


class _FdbkEval:
    """Two-pass evaluation: pass 1 computes the looped-back first output with
    a poison placeholder on the first input (sound because the loop is
    dependency-free), pass 2 re-evaluates with the actual value and is the
    only pass that checks legality and advances state."""

    def __init__(self, child):
        self.child = child

    def get_state(self):
        return self.child.get_state()

    def set_state(self, s):
        self.child.set_state(s)

    def step(self, inputs, commit: bool):
        snapshot = self.child.get_state()
        first = self.child.step((POISON,) + tuple(inputs), commit=False)[0]
        if commit:
            # an unresolved outer loop may legitimately leave poison here
            # during a probe pass, but never on the committing pass
            if first is POISON:
                raise SoundnessError("feedback loop produced a value-dependent first output")
        self.child.set_state(snapshot)
        outs = self.child.step((first,) + tuple(inputs), commit=commit)
        if commit:
            if outs[0] != first:
                raise SoundnessError("feedback passes disagree on the first output")
        return outs[1:]


def _make_evaluator(c: Component, dom: FiniteDomain = None):
    c = as_component(c)
    if isinstance(c, Atomic):
        if not isinstance(c.atom, (Det, StatelessDet)):
            raise NotDeterministic("stepwise execution needs deterministic atoms")
        return _AtomEval(c.atom, dom)
    if isinstance(c, Serial):
        return _SerialEval(_make_evaluator(c.left, dom), _make_evaluator(c.right, dom))
    if isinstance(c, Parallel):
        return _ParallelEval(
            _make_evaluator(c.left, dom),
            _make_evaluator(c.right, dom),
            len(sigma_in(c.left)),
        )
    if isinstance(c, Fdbk):
        return _FdbkEval(_make_evaluator(c.child, dom))
    raise KindError(f"not a component: {c!r}")


@dataclass(frozen=True)
class IllegalAt:
    step: int


def exec_det(c, input_trace: Trace, dom: FiniteDomain = None):
    """Run a deterministic loop-free composite on a finite input trace.

    Returns the output trace (steps x slots) or IllegalAt(step).
    """
    from .compose import determ, loop_free

    c = as_component(c)
    if not determ(c):
        raise NotDeterministic("execution needs deterministic atoms")
    if not loop_free(c):
        raise NotLoopFree("execution needs a loop-free component")
    ev = _make_evaluator(c, dom)
    outs = []
    for i, step_inputs in enumerate(input_trace):
        try:
            outs.append(tuple(ev.step(tuple(step_inputs), commit=True)))
        except _StepIllegal:
            return IllegalAt(i)
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
    from .compose import determ, loop_free

    if determ(c1) and determ(c2) and loop_free(c1) and loop_free(c2):
        for trace in dom.traces(in1, horizon):
            r1 = exec_det(c1, trace, dom)
            r2 = exec_det(c2, trace, dom)
            if r1 != r2:
                return EquivResult(False, trace, f"{r1!r} vs {r2!r}")
        return EquivResult(True)
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


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


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


@dataclass(frozen=True)
class QltlVerdict:
    """family: plain evaluation with quantifiers ranging over the finite
    lasso family.  definite: sound three-valued verdict (None when the family
    approximation cannot decide)."""

    family: bool
    definite: Optional[bool]


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
    from .formulas import free_vars as fv

    info = fv(phi)
    for v in info.vars:
        if v not in words:
            raise NonTemporalMisuse(f"free variable {v.name} has no lasso word")
    dom = dom or FiniteDomain()
    ops = [0]
    family_cache: dict = {}

    def family_for(values):
        if values not in family_cache:
            size = sum(
                len(values) ** (s + l)
                for s in range(expand.stem + 1)
                for l in range(1, expand.loop + 1)
            )
            if size > expand.cap:
                raise ExplosionGuard(
                    f"quantifier lasso family of up to {size} words exceeds the cap {expand.cap}"
                )
            family_cache[values] = all_lassos(values, expand.stem, expand.loop)
        return family_cache[values]

    def span(env):
        s = max([len(w.stem) for w in env.values()] or [0])
        p = 1
        for w in env.values():
            p = _lcm(p, len(w.loop))
        return s, p

    def term_at(t: Term, env, i: int):
        if isinstance(t, VarRef):
            return env[t.var].at(i)
        if isinstance(t, NextRef):
            return term_at(t.arg, env, i + 1)
        if isinstance(t, Const):
            v = t.value
            return Fraction(v) if isinstance(t.ty, RealType) and not isinstance(v, Fraction) else v
        if isinstance(t, App):
            return _apply_fn(t.symbol, [term_at(a, env, i) for a in t.args])
        if isinstance(t, PrimedRef):
            raise NonTemporalMisuse("primed reference in temporal evaluation")
        raise KindError(f"not a term: {t!r}")

    def until3(left, right, env, i: int):
        s, p = span(env)
        n = s + 2 * p + 2
        fam, snd = False, False
        pref_fam, pref_snd = True, True
        for k in range(i, i + n + 1):
            rf, rs = ev(right, env, k)
            fam = fam or (pref_fam and rf)
            snd = _or3(snd, _and3(pref_snd, rs))
            lf, ls = ev(left, env, k)
            pref_fam = pref_fam and lf
            pref_snd = _and3(pref_snd, ls)
            if pref_snd is False and pref_fam is False and (snd is not None):
                break
        if snd is None or snd is True:
            return fam, snd
        # completed the closure window: a False scan is definite
        return fam, snd

    def ev(f: Formula, env, i: int):
        ops[0] += 1
        if ops[0] > expand.cap:
            raise ExplosionGuard("temporal evaluation exceeds the work budget")
        if isinstance(f, TrueC):
            return True, True
        if isinstance(f, FalseC):
            return False, True
        if isinstance(f, Atom):
            a = term_at(f.args[0], env, i)
            b = term_at(f.args[1], env, i)
            v = _apply_pred(f.pred, a, b)
            return v, v
        if isinstance(f, Not):
            fam, snd = ev(f.arg, env, i)
            return (not fam), _not3(snd)
        if isinstance(f, And):
            f1, s1 = ev(f.left, env, i)
            f2, s2 = ev(f.right, env, i)
            return (f1 and f2), _and3(s1, s2)
        if isinstance(f, Or):
            f1, s1 = ev(f.left, env, i)
            f2, s2 = ev(f.right, env, i)
            return (f1 or f2), _or3(s1, s2)
        if isinstance(f, Implies):
            f1, s1 = ev(f.left, env, i)
            f2, s2 = ev(f.right, env, i)
            return ((not f1) or f2), _or3(_not3(s1), s2)
        if isinstance(f, Iff):
            f1, s1 = ev(f.left, env, i)
            f2, s2 = ev(f.right, env, i)
            snd = None if (s1 is None or s2 is None) else (s1 == s2)
            return (f1 == f2), snd
        if isinstance(f, Until):
            return until3(f.left, f.right, env, i)
        if isinstance(f, Finally):
            return until3(TrueC(), f.arg, env, i)
        if isinstance(f, Globally):
            fam, snd = until3(TrueC(), Not(f.arg), env, i)
            return (not fam), _not3(snd)
        if isinstance(f, Leads):
            fam, snd = until3(f.left, Not(f.right), env, i)
            return (not fam), _not3(snd)
        if isinstance(f, (Forall, Exists)):
            values = dom.values(f.var.ty)
            family = family_for(values)
            # a definite hit (existential) or miss (universal) settles both
            # verdicts at once: definite implies the family value agrees
            fams = []
            for w in family:
                fa, sn = ev(f.body, {**env, f.var: w}, i)
                if isinstance(f, Forall) and sn is False:
                    return False, False
                if isinstance(f, Exists) and sn is True:
                    return True, True
                fams.append(fa)
            if isinstance(f, Forall):
                return all(fams), None
            return any(fams), None
        raise KindError(f"not a formula: {f!r}")

    fam, snd = ev(phi, dict(words), 0)
    return QltlVerdict(bool(fam), snd)


# --- bounded prefix (three-valued) evaluation --------------------------------


def eval_prefix3(phi: Formula, words: dict[Var, tuple], dom: FiniteDomain) -> Optional[bool]:
    """Three-valued truth of a temporal formula on finite trace prefixes:
    True / False only when every infinite extension agrees; None otherwise.
    Quantified sequence variables range over value tuples of the prefix
    length."""
    if not words:
        raise NonTemporalMisuse("prefix evaluation needs at least one bound variable")
    length = min(len(w) for w in words.values())

    def term_at(t: Term, env, i: int):
        if isinstance(t, VarRef):
            if i >= len(env[t.var]):
                return None
            return env[t.var][i]
        if isinstance(t, NextRef):
            return term_at(t.arg, env, i + 1)
        if isinstance(t, Const):
            v = t.value
            return Fraction(v) if isinstance(t.ty, RealType) and not isinstance(v, Fraction) else v
        if isinstance(t, App):
            args = [term_at(a, env, i) for a in t.args]
            if any(a is None for a in args):
                return None
            return _apply_fn(t.symbol, args)
        raise NonTemporalMisuse("prefix evaluation does not handle primed terms")

    def until3(left, right, env, i: int):
        acc = False
        pref = True
        for k in range(i, length):
            r = ev(right, env, k)
            acc = _or3(acc, _and3(pref, r))
            if acc is True:
                return True
            pref = _and3(pref, ev(left, env, k))
            if pref is False:
                # no candidate position can lie beyond a broken chain
                return acc
        # the prefix ran out with the chain still alive: open continuation
        return True if acc is True else None

    def ev(f: Formula, env, i: int):
        if i >= length:
            return None
        if isinstance(f, TrueC):
            return True
        if isinstance(f, FalseC):
            return False
        if isinstance(f, Atom):
            a = term_at(f.args[0], env, i)
            b = term_at(f.args[1], env, i)
            if a is None or b is None:
                return None
            return _apply_pred(f.pred, a, b)
        if isinstance(f, Not):
            return _not3(ev(f.arg, env, i))
        if isinstance(f, And):
            return _and3(ev(f.left, env, i), ev(f.right, env, i))
        if isinstance(f, Or):
            return _or3(ev(f.left, env, i), ev(f.right, env, i))
        if isinstance(f, Implies):
            return _or3(_not3(ev(f.left, env, i)), ev(f.right, env, i))
        if isinstance(f, Iff):
            a, b = ev(f.left, env, i), ev(f.right, env, i)
            return None if (a is None or b is None) else (a == b)
        if isinstance(f, Until):
            return until3(f.left, f.right, env, i)
        if isinstance(f, Finally):
            return until3(TrueC(), f.arg, env, i)
        if isinstance(f, Globally):
            return _not3(until3(TrueC(), Not(f.arg), env, i))
        if isinstance(f, Leads):
            return _not3(until3(f.left, Not(f.right), env, i))
        if isinstance(f, (Forall, Exists)):
            values = dom.values(f.var.ty)
            if len(values) ** length > dom.cap:
                raise ExplosionGuard("prefix quantifier expansion exceeds the cap")
            universal = isinstance(f, Forall)
            undecided = False
            for seq in itertools.product(values, repeat=length):
                r = ev(f.body, {**env, f.var: seq}, i)
                if universal and r is False:
                    return False
                if not universal and r is True:
                    return True
                if r is None:
                    undecided = True
            if undecided:
                return None
            return universal
        raise KindError(f"not a formula: {f!r}")

    return ev(phi, dict(words), 0)
