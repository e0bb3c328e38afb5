"""Expected answers computed without the routes the benchmark times.

Everything here is written against the data classes of `rcrs` only: a
stepwise evaluator for deterministic composites, exhaustive table semantics
for finite stateless contracts, a lasso evaluator for the benchmark's own
temporal templates and a dataflow simulator for its block diagrams.  None of
it calls the solver, the oracle or the symbolic layers.
"""

from __future__ import annotations

import itertools
import math

from rcrs.components import Atomic, Det, Fdbk, Parallel, Serial
from rcrs.formulas import And, Atom, FalseC, Iff, Implies, Not, Or, TrueC
from rcrs.terms import App, Const, VarRef
from rcrs.types import BoolType, IntRange

_PENDING = object()  # the looped-back value while a feedback output is probed


# --- terms and step formulas ------------------------------------------------


def term_value(t, env):
    if isinstance(t, VarRef):
        return env[t.var]
    if isinstance(t, Const):
        return t.value
    if isinstance(t, App):
        args = [term_value(a, env) for a in t.args]
        if any(a is _PENDING for a in args):
            return _PENDING
        if t.symbol == "+":
            return args[0] + args[1]
        if t.symbol == "-":
            return args[0] - args[1]
        if t.symbol == "*":
            return args[0] * args[1]
        if t.symbol == "neg":
            return -args[0]
    raise ValueError(f"reference evaluator does not handle {t!r}")


_PREDICATES = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def holds(f, env) -> bool:
    """Truth of a quantifier-free, non-temporal formula in one step."""
    if isinstance(f, TrueC):
        return True
    if isinstance(f, FalseC):
        return False
    if isinstance(f, Atom):
        a, b = (term_value(t, env) for t in f.args)
        return _PREDICATES[f.pred](a, b)
    if isinstance(f, Not):
        return not holds(f.arg, env)
    if isinstance(f, And):
        return holds(f.left, env) and holds(f.right, env)
    if isinstance(f, Or):
        return holds(f.left, env) or holds(f.right, env)
    if isinstance(f, Implies):
        return (not holds(f.left, env)) or holds(f.right, env)
    if isinstance(f, Iff):
        return holds(f.left, env) == holds(f.right, env)
    raise ValueError(f"reference evaluator does not handle {f!r}")


# --- deterministic composites ----------------------------------------------


class _Illegal(Exception):
    pass


def _arity_in(c) -> int:
    if isinstance(c, Atomic):
        return len(c.atom.inputs)
    if isinstance(c, Serial):
        return _arity_in(c.left)
    if isinstance(c, Parallel):
        return _arity_in(c.left) + _arity_in(c.right)
    return _arity_in(c.child) - 1


def _initial(c):
    if isinstance(c, Atomic):
        a = c.atom
        return tuple(term_value(v, {}) for v in a.init_vals) if isinstance(a, Det) else ()
    if isinstance(c, (Serial, Parallel)):
        return (_initial(c.left), _initial(c.right))
    return _initial(c.child)


def _step(c, state, xs, commit):
    """One synchronous step: (outputs, next state).  Only a committing step
    checks legality and advances state."""
    if isinstance(c, Atomic):
        a = c.atom
        env = dict(zip(a.inputs.vars(), xs))
        if isinstance(a, Det):
            env.update(zip(a.states.vars(), state))
        if commit and not holds(a.inpt, env):
            raise _Illegal()
        outs = tuple(term_value(t, env) for t in a.out)
        if commit and isinstance(a, Det):
            state = tuple(term_value(t, env) for t in a.next)
        return outs, state
    if isinstance(c, Serial):
        mid, left = _step(c.left, state[0], xs, commit)
        outs, right = _step(c.right, state[1], mid, commit)
        return outs, (left, right)
    if isinstance(c, Parallel):
        n = _arity_in(c.left)
        lo, left = _step(c.left, state[0], xs[:n], commit)
        ro, right = _step(c.right, state[1], xs[n:], commit)
        return lo + ro, (left, right)
    if isinstance(c, Fdbk):
        probe, _ = _step(c.child, state, (_PENDING,) + tuple(xs), False)
        outs, state = _step(c.child, state, (probe[0],) + tuple(xs), commit)
        return outs[1:], state
    raise TypeError(f"not a component: {c!r}")


def run_det(c, trace):
    """Output trace of a deterministic loop-free composite, or ("illegal", k)
    for the first step whose input is not legal."""
    if not isinstance(c, (Atomic, Serial, Parallel, Fdbk)):
        c = Atomic(c)
    state = _initial(c)
    outs = []
    for k, xs in enumerate(trace):
        try:
            ys, state = _step(c, state, tuple(xs), True)
        except _Illegal:
            return ("illegal", k)
        outs.append(ys)
    return tuple(outs)


# --- finite stateless tables ------------------------------------------------


def values_of(ty) -> tuple:
    if isinstance(ty, BoolType):
        return (False, True)
    if isinstance(ty, IntRange):
        return tuple(range(ty.lo, ty.hi + 1))
    raise ValueError(f"no finite values for {ty!r}")


def table(st) -> dict:
    """{input tuple: set of output tuples} of a finite stateless contract."""
    xs, ys = st.inputs.vars(), st.outputs.vars()
    rel = {}
    for xv in itertools.product(*(values_of(v.ty) for v in xs)):
        env = dict(zip(xs, xv))
        rel[xv] = {
            yv
            for yv in itertools.product(*(values_of(v.ty) for v in ys))
            if holds(st.io, {**env, **dict(zip(ys, yv))})
        }
    return rel


def table_refines(abstract: dict, concrete: dict) -> bool:
    """Stateless refinement: wherever the abstract side is legal, the concrete
    side is legal and produces only abstract outputs."""
    return all(
        not outs or (concrete[x] and concrete[x] <= outs) for x, outs in abstract.items()
    )


def table_compatible(first: dict, second: dict) -> bool:
    """Some input is legal for `first` and every output it can produce is a
    legal input of `second`."""
    return any(outs and all(second[m] for m in outs) for outs in first.values())


def table_witness_replays(abstract: dict, concrete: dict, w) -> bool:
    """A bounded refutation trace of stateless refinement replays on the
    tables: the abstract side accepts every step, and the concrete side either
    rejects step `w.step` or produces the reported outputs, one of them outside
    the abstract relation."""
    steps = list(w.steps)
    if not all(abstract[x] for x in steps):
        return False
    if w.step is not None:
        k = w.step
        return all(concrete[x] for x in steps[:k]) and not concrete[steps[k]]
    if w.outputs is None or len(w.outputs) != len(steps):
        return False
    return all(y in concrete[x] for x, y in zip(steps, w.outputs)) and any(
        y not in abstract[x] for x, y in zip(steps, w.outputs)
    )


# --- temporal templates on lasso words ---------------------------------------


def lasso_holds(f, words: dict) -> bool:
    """Truth at position 0 of a template formula (see generators.py) on
    ultimately periodic words {name: (stem, loop)}."""
    stem = max((len(s) for s, _ in words.values()), default=0)
    period = 1
    for _, loop in words.values():
        period = period * len(loop) // math.gcd(period, len(loop))
    n = stem + period

    def at(name, i):
        s, loop = words[name]
        return s[i] if i < len(s) else loop[(i - len(s)) % len(loop)]

    def succ(i):
        return i + 1 if i + 1 < n else stem

    def until(a, b):
        u = [False] * n
        for _ in range(n + 1):
            u = [b[i] or (a[i] and u[succ(i)]) for i in range(n)]
        return u

    def ev(g):
        op = g[0]
        if op == "atom":
            _, name, pred, value = g
            return [_PREDICATES[pred](at(name, i), value) for i in range(n)]
        if op == "same":
            return [at(g[1], i) == at(g[2], i) for i in range(n)]
        if op == "implies":
            return [(not p) or q for p, q in zip(ev(g[1]), ev(g[2]))]
        if op == "F":
            return until([True] * n, ev(g[1]))
        if op == "G":
            return [not v for v in until([True] * n, [not v for v in ev(g[1])])]
        if op == "U":
            return until(ev(g[1]), ev(g[2]))
        if op == "L":  # phi L psi == not (phi U not psi)
            return [not v for v in until(ev(g[1]), [not v for v in ev(g[2])])]
        raise ValueError(f"unknown template operator {op}")

    return ev(f)[0]


# --- block diagrams -----------------------------------------------------------


def simulate_diagram(spec: dict, trace):
    """Dataflow simulation of a generated block diagram (generators.py):
    every block is evaluated from its drivers each step, unit delays emit
    their state and then latch their input."""
    blocks = {b["id"]: b for b in spec["blocks"]}
    driver = {tuple(w["dst"]): tuple(w["src"]) for w in spec["wires"]}
    for i, port in enumerate(spec["inputs"]):
        driver[tuple(port)] = i
    state = {b["id"]: b["params"]["init"] for b in spec["blocks"] if b["kind"] == "UnitDelay"}
    outs = []
    for xs in trace:
        memo = {}

        def port_in(bid, p):
            src = driver[(bid, p)]
            return xs[src] if isinstance(src, int) else port_out(*src)

        def port_out(bid, p):
            if (bid, p) not in memo:
                memo[(bid, p)] = _block_out(blocks[bid], p, port_in, state)
            return memo[(bid, p)]

        outs.append(tuple(port_out(bid, p) for bid, p in spec["outputs"]))
        state = {bid: port_in(bid, 0) for bid in state}
    return tuple(outs)


def _block_out(b, p, port_in, state):
    kind, bid = b["kind"], b["id"]
    if kind == "UnitDelay":
        return state[bid]
    if kind == "Const":
        return b["params"]["c"]
    if kind == "Gain":
        return b["params"]["k"] * port_in(bid, 0)
    if kind in ("Id", "Split"):
        return port_in(bid, 0)
    if kind == "Add":
        return port_in(bid, 0) + port_in(bid, 1)
    if kind == "Sub":
        return port_in(bid, 0) - port_in(bid, 1)
    if kind == "Swap":
        return port_in(bid, 1 - p)
    raise ValueError(f"simulator does not handle block kind {kind}")
