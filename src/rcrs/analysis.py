"""Decision procedures over components: legal-input formulas, validity and
compatibility, input-receptiveness, refinement verification conditions with
SMT-LIB emission to an external solver, and bounded-oracle fallbacks."""

from __future__ import annotations

import atexit
import contextlib
import itertools
import math
import os
import re
import select
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .components import (
    Atomic,
    AtomicComponent,
    Det,
    Kind,
    NameGen,
    Qltl,
    Serial,
    Stateless,
    StatelessDet,
    Sts,
    as_component,
    binders,
    field_values,
    numbered,
    rename_slots,
)
from .compose import atomic
from .errors import (
    DomainNotFinite,
    ExplosionGuard,
    KindError,
    NotDeterministic,
    NotLoopFree,
    SignatureMismatch,
    SolverFailure,
    SoundnessError,
    TemporalFragment,
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
    conj,
    conjuncts,
    eq,
    exists_many,
    forall_many,
    free_refs,
    free_vars,
    is_temporal,
    nodes,
    simplify,
    substitute,
)
from .lattice import join_kind, lift_to, quantify_primed, sts_legality
from .oracle import (
    Expansion,
    FiniteDomain,
    all_lassos,
    bounded_refute_refinement,
    compile_step,
    eval_qltl,
    lasso_count,
    legal_lasso,
)
from .terms import App, Const, NextRef, PrimedRef, Term, VarRef, type_of
from .types import (
    BoolType,
    EnumType,
    IntRange,
    IntType,
    RealType,
    SemType,
    UnitType,
    Var,
    base_type,
)
from .verdicts import (
    CheckResult,
    LassoWitness,
    Proven,
    Refuted,
    TraceWitness,
    Unknown,
)

SOLVER_ENV = "RCRS_SMT_SOLVER"
SOLVER_TIMEOUT = 10.0


@dataclass(frozen=True)
class Vc:
    """A verification condition: validity of `goal` discharges the query."""

    goal: Formula
    fragment: str  # "first-order" | "temporal"
    provenance: str
    # validity proves the query, but invalidity does not refute it
    sufficient_only: bool = False

    def __post_init__(self):
        if self.fragment == "first-order" and is_temporal(self.goal):
            raise TemporalFragment("first-order goals must not contain temporal operators")


def make_vc(goal: Formula, provenance: str, sufficient_only: bool = False) -> Vc:
    return Vc(goal, "temporal" if is_temporal(goal) else "first-order", provenance, sufficient_only)


# --- legal inputs -------------------------------------------------------------


def legal_formula(c: AtomicComponent) -> Formula:
    """A temporal formula over the input variables characterizing the legal
    input traces."""
    gen = NameGen(v.name for v in c.all_vars())
    if isinstance(c, Qltl):
        return simplify(exists_many(c.outputs.vars(), c.phi))
    if isinstance(c, Sts):
        return simplify(sts_legality(c, gen)[1])
    if isinstance(c, Stateless):
        return simplify(Globally(exists_many(c.outputs.vars(), c.io)))
    if isinstance(c, Det):
        svars = list(c.states.vars())
        ys = [gen.fresh("y", t) for t in c.outputs.types()]
        steps = conj(
            [eq(NextRef(VarRef(v)), t) for v, t in zip(svars, c.next)]
            + [eq(VarRef(v), t) for v, t in zip(ys, c.out)]
        )
        start = conj([eq(VarRef(v), a) for v, a in zip(svars, c.init_vals)])
        return simplify(forall_many(svars + ys, Implies(start, Leads(steps, c.inpt))))
    if isinstance(c, StatelessDet):
        return simplify(Globally(c.inpt))
    raise TypeError(f"not an atomic component: {c!r}")


# --- solver interaction -------------------------------------------------------


def solver_command() -> Optional[list[str]]:
    path = os.environ.get(SOLVER_ENV, "").strip()
    return shlex.split(path) if path else None


_VERDICTS = (b"sat", b"unsat", b"unknown")
_CHECK_SAT = re.compile(r"\(\s*check-sat\s*\)")
# `(check-sat)` on the empty context: a streaming solver answers it at once
_PROBE = b"(check-sat)\n(reset)\n"


class _Session:
    """A live solver process that takes one goal after another: each goal's
    script followed by `(reset)`, one verdict line back for its
    `(check-sat)`.  It takes goals once it has answered `_PROBE`; stderr
    goes to a temporary file, so that no pipe can fill."""

    def __init__(self, cmd: list[str]):
        self.cmd = cmd
        self.stderr = tempfile.TemporaryFile()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr, bufsize=0
        )
        os.set_blocking(self.proc.stdin.fileno(), False)
        self.started = time.monotonic()
        self.pending, self.eof, self.ready = b"", False, False
        self.send(_PROBE, self.started + SOLVER_TIMEOUT)

    def send(self, data: bytes, deadline: float):
        """Write data, giving up at the deadline or when the process has
        closed its stdin; `verdict` then tells what became of it."""
        fd = self.proc.stdin.fileno()
        while data:
            if not select.select([], [fd], [], max(0.0, deadline - time.monotonic()))[1]:
                return
            try:
                data = data[os.write(fd, data) :]
            except BlockingIOError:
                continue
            except OSError:  # the process is gone
                return

    def verdict(self, deadline: float) -> Optional[str]:
        """The next verdict line, skipping any other output; None when none
        has come by the deadline, "" when stdout ended without one."""
        fd = self.proc.stdout.fileno()
        while True:
            line, newline, rest = self.pending.partition(b"\n")
            if newline:
                self.pending, word = rest, line.strip()
                if word in _VERDICTS:
                    return word.decode()
                continue
            if self.eof:
                return ""
            if not select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
                return None
            chunk = os.read(fd, 4096)
            self.eof = not chunk
            self.pending += chunk or b"\n"  # an unterminated last line counts

    def failure(self) -> Optional[SolverFailure]:
        """After stdout ended: the failure to raise when the process exited
        non-zero, naming its last stderr line."""
        try:
            code = self.proc.wait(SOLVER_TIMEOUT)
        except subprocess.TimeoutExpired:
            return None
        if code == 0:
            return None
        self.stderr.seek(0)
        return _failure(code, self.stderr.read())

    def close(self):
        self.proc.kill()
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout, self.stderr):
            f.close()


_session: Optional[_Session] = None
_seen: set[tuple[str, ...]] = set()  # commands that have run a goal
_one_shot: set[tuple[str, ...]] = set()  # commands whose session failed


def _close_session():
    global _session
    if _session is not None:
        _session.close()
        _session = None


atexit.register(_close_session)


def _ready_session(cmd: list[str]) -> Optional[_Session]:
    """The live session of the command once it has answered its probe.  The
    command's first goal starts none; the second starts one and sends it the
    probe.  None until the probe's answer is there, which is checked without
    waiting.  A session that has died, or has not answered within
    SOLVER_TIMEOUT, is killed, and the command spawns once per goal from
    then on."""
    global _session
    key = tuple(cmd)
    if _session is not None and _session.cmd != cmd:
        _close_session()
    if key in _one_shot or key not in _seen:
        _seen.add(key)
        return None
    if _session is None:
        try:
            _session = _Session(cmd)
        except OSError:
            _one_shot.add(key)
        return None
    if not _session.ready:
        answer = _session.verdict(time.monotonic())
        if answer is None and time.monotonic() - _session.started <= SOLVER_TIMEOUT:
            return None
        _session.ready = bool(answer)
    if _session.ready and _session.proc.poll() is None:
        return _session
    _close_session()
    _one_shot.add(key)
    return None


def _session_verdict(session: _Session, script: str, timeout: float) -> str:
    """Ask the session; a timeout kills it (the next goal starts another)
    and reads 'unknown'.  A session that ends without a verdict is closed
    for good, and raises SolverFailure when it exited non-zero."""
    deadline = time.monotonic() + timeout
    session.send(script.encode() + b"\n(reset)\n", deadline)
    answer = session.verdict(deadline)
    if answer == "":
        failure = session.failure()
        _close_session()
        _one_shot.add(tuple(session.cmd))
        if failure is not None:
            raise failure
        return "unknown"
    if answer is None:
        _close_session()
    return answer or "unknown"


def _failure(code: int, stderr: bytes) -> SolverFailure:
    err = stderr.decode(errors="replace").strip().splitlines()
    last = f": {err[-1].strip()}" if err else ""
    return SolverFailure(f"solver exited with status {code} and no verdict{last}")


def run_solver(script: str, timeout: float = SOLVER_TIMEOUT) -> str:
    """Run the configured solver on an SMT-LIB script and return 'sat',
    'unsat', 'unknown', or 'unavailable'.  A command's first goal spawns the
    solver on the script and takes the first output line as the verdict;
    later goals with one `(check-sat)` go to the command's `_Session` once
    it is ready.  A solver that exits non-zero without a verdict line raises
    SolverFailure with its last stderr line; a timeout or a solver that
    cannot be started reads 'unknown'."""
    cmd = solver_command()
    if cmd is None:
        return "unavailable"
    session = _ready_session(cmd)
    if session is not None and len(_CHECK_SAT.findall(script)) == 1:
        return _session_verdict(session, script, timeout)
    try:
        proc = subprocess.run(cmd, input=script.encode(), capture_output=True, timeout=timeout)
    except (subprocess.TimeoutExpired, OSError):
        return "unknown"
    first = proc.stdout.decode(errors="replace").strip().splitlines()
    verdict = first[0].strip() if first else ""
    if proc.returncode != 0 and verdict not in ("sat", "unsat", "unknown"):
        raise _failure(proc.returncode, proc.stderr)
    return verdict if verdict in ("sat", "unsat") else "unknown"


# --- SMT-LIB emission ---------------------------------------------------------


def _sort_name(ty: SemType) -> str:
    if isinstance(ty, BoolType):
        return "Bool"
    if isinstance(ty, (IntType, IntRange)):
        return "Int"
    if isinstance(ty, RealType):
        return "Real"
    if isinstance(ty, EnumType):
        return ty.name
    if isinstance(ty, UnitType):
        return "Unit"
    raise TemporalFragment(f"no SMT sort for {ty.short()}")


def _smt_symbol(v: Var, primed: bool = False) -> str:
    return f"{v.name}!next" if primed else v.name


def _range_guard(v: Var, primed: bool = False) -> Optional[str]:
    if isinstance(v.ty, IntRange):
        s = _smt_symbol(v, primed)
        return f"(and (<= {v.ty.lo} {s}) (<= {s} {v.ty.hi}))"
    return None


def _smt_term(t: Term) -> str:
    if isinstance(t, VarRef):
        return _smt_symbol(t.var)
    if isinstance(t, PrimedRef):
        return _smt_symbol(t.var, primed=True)
    if isinstance(t, Const):
        v = t.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, str):
            return v
        if isinstance(t.ty, RealType):
            fr = Fraction(v)
            if fr.denominator == 1:
                return f"{fr.numerator}.0" if fr >= 0 else f"(- {-fr.numerator}.0)"
            body = f"(/ {abs(fr.numerator)}.0 {fr.denominator}.0)"
            return body if fr >= 0 else f"(- {body})"
        return str(v) if v >= 0 else f"(- {-v})"
    if isinstance(t, App):
        if t.symbol == "neg":
            return f"(- {_smt_term(t.args[0])})"
        real = isinstance(type_of(t), RealType)
        if t.symbol == "ite":
            a, b = (_smt_operand(x, real) for x in t.args[1:])
            return f"(ite {_smt_term(t.args[0])} {a} {b})"
        if t.symbol == "/":
            # x / 0 = 0, as the oracle and the finite route have it; SMT-LIB
            # leaves division by zero unspecified
            d = _smt_term(t.args[1])
            if not real:
                return f"(ite (= {d} 0) 0 (div {_smt_term(t.args[0])} {d}))"
            zero = "0" if isinstance(type_of(t.args[1]), IntType) else "0.0"
            n, rd = (_smt_operand(x, True) for x in t.args)
            return f"(ite (= {d} {zero}) 0.0 (/ {n} {rd}))"
        a, b = (_smt_operand(x, real) for x in t.args)
        return f"({t.symbol} {a} {b})"
    if isinstance(t, NextRef):
        raise TemporalFragment("temporal term in a first-order goal")
    raise TemporalFragment(f"unsupported term {t!r}")


def _smt_operand(t: Term, real: bool) -> str:
    """The text of t as an operand; in an operation over reals (real) an Int
    operand is cast with to_real, as SMT-LIB has no implicit coercion."""
    text = _smt_term(t)
    return f"(to_real {text})" if real and isinstance(type_of(t), IntType) else text


def _smt_formula(f: Formula) -> str:
    if isinstance(f, TrueC):
        return "true"
    if isinstance(f, FalseC):
        return "false"
    if isinstance(f, Atom):
        real = any(isinstance(type_of(x), RealType) for x in f.args)
        a, b = (_smt_operand(x, real) for x in f.args)
        if f.pred == "=":
            return f"(= {a} {b})"
        if f.pred == "!=":
            return f"(not (= {a} {b}))"
        return f"({f.pred} {a} {b})"
    if isinstance(f, Not):
        return f"(not {_smt_formula(f.arg)})"
    if isinstance(f, And):
        return f"(and {_smt_formula(f.left)} {_smt_formula(f.right)})"
    if isinstance(f, Or):
        return f"(or {_smt_formula(f.left)} {_smt_formula(f.right)})"
    if isinstance(f, Implies):
        return f"(=> {_smt_formula(f.left)} {_smt_formula(f.right)})"
    if isinstance(f, Iff):
        return f"(= {_smt_formula(f.left)} {_smt_formula(f.right)})"
    if isinstance(f, (Forall, Exists)):
        v = f.var
        kw = "forall" if isinstance(f, Forall) else "exists"
        body = _smt_formula(f.body)
        guard = _range_guard(v)
        if guard:
            body = f"(=> {guard} {body})" if kw == "forall" else f"(and {guard} {body})"
        return f"({kw} (({_smt_symbol(v)} {_sort_name(v.ty)})) {body})"
    if isinstance(f, (Until, Leads, Globally, Finally)):
        raise TemporalFragment("temporal operator in a first-order goal")
    raise TemporalFragment(f"unsupported formula {f!r}")


def emit_smtlib(vc: Vc) -> str:
    """Deterministic SMT-LIB 2 script refuting the negation of the goal:
    `unsat` means the verification condition is valid."""
    if vc.fragment != "first-order":
        raise TemporalFragment("only first-order goals can be emitted")
    return _smt_script(vc.goal, f"(not {_smt_formula(vc.goal)})")


def emit_smtlib_sat(goal: Formula, provenance: str) -> str:
    """Script asserting the goal itself: `sat` means satisfiable."""
    Vc(goal, "first-order", provenance)  # rejects temporal goals
    return _smt_script(goal, _smt_formula(goal))


def _smt_script(goal: Formula, assertion: str) -> str:
    """Declarations of the goal's enum sorts and free variables, then
    `(assert <assertion>)` and `(check-sat)`."""
    plain, primed, _ = free_refs(goal)
    lines = ["(set-logic ALL)"]

    enums: dict[str, EnumType] = {}
    for node, _ in nodes(goal):
        if isinstance(node, (VarRef, PrimedRef, Forall, Exists)):
            ty = node.var.ty
        elif isinstance(node, Const):
            ty = node.ty
        else:
            continue
        if isinstance(ty, EnumType):
            enums[ty.name] = ty
    for name in sorted(enums):
        ty = enums[name]
        ctors = " ".join(f"({v})" for v in ty.values)
        lines.append(f"(declare-datatypes (({name} 0)) ((" + ctors + ")))")

    for is_primed, free in ((False, plain), (True, primed)):
        for v in sorted(free, key=lambda v: v.name):
            lines.append(f"(declare-const {_smt_symbol(v, is_primed)} {_sort_name(v.ty)})")
            guard = _range_guard(v, is_primed)
            if guard:
                lines.append(f"(assert {guard})")
    lines.append(f"(assert {assertion})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# --- finite / probe evaluation of first-order goals ---------------------------


def _pool(ty: SemType, dom: Optional[FiniteDomain], constants: set) -> tuple[tuple, str]:
    """The values a variable of type `ty` ranges over, and where they come
    from: "own" when they are the type's own finite values, "domain" when a
    domain override gives them, else "probe" for probe values around the
    goal's constants, which can refute a goal but never prove one."""
    dom = dom or FiniteDomain()
    try:
        values = dom.values(ty)
    except DomainNotFinite:
        return _probe_values(ty, constants), "probe"
    # an unbounded int or real has finite values only from an override
    overridden = ty in dom.overrides or isinstance(ty, (IntType, RealType))
    return values, "domain" if overridden else "own"


def _probe_values(ty: SemType, constants: set) -> tuple:
    """Probe values of an unbounded int or real."""
    if isinstance(ty, IntType):
        vals = {-2, -1, 0, 1, 2}
        for c in constants:
            if isinstance(c, int) and not isinstance(c, bool):
                vals.update({c - 1, c, c + 1})
        return tuple(sorted(vals))
    vals = {Fraction(-1), Fraction(0), Fraction(1)}
    for c in constants:
        if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
            fc = Fraction(c)
            vals.update({fc - 1, fc, fc + 1, fc / 2})
    return tuple(sorted(vals))


def _pools(goal: Formula, dom: Optional[FiniteDomain], types) -> tuple[dict, FiniteDomain, list]:
    """The `_pool` of each of `types` and of each type the goal quantifies
    over, the domain its quantifiers range over (those pools), and the type
    of each quantifier binder."""
    constants, binders = set(), []
    for n, _ in nodes(goal):
        if isinstance(n, Const):
            constants.add(n.value)
        elif isinstance(n, (Forall, Exists)):
            binders.append(n.var.ty)
    quantified = set(binders)
    pools = {ty: _pool(ty, dom, constants) for ty in set(types) | quantified}
    return pools, FiniteDomain({ty: pools[ty][0] for ty in quantified}), binders


@dataclass(frozen=True)
class FoVerdict:
    valid: Optional[bool]  # None when undecided
    witness: Optional[dict] = None  # assignment falsifying the goal
    exact: bool = False
    # the verdict stands without a solver: a proof over the types' own values
    # only, or a falsifying assignment under no quantifier over an override
    final: bool = False


# A first-order goal whose quantifiers range over their types' own values
# is evaluated before the solver when it has at most this many assignments.
# Sized when a goal cost a 30 ms solver spawn (4,000 assignments at 7 us); a
# session goal now costs about 1 ms.  Re-sizing it moves route notes (`via
# finite`, `via solver`), so it waits for a verdict-parity dump.
FINITE_FIRST_CAP = 4000


def _fo_setup(goal: Formula, dom: Optional[FiniteDomain]):
    """The goal's free variables, plain then primed, each sorted by name; how
    many are plain; the `_pools`; and the number of assignments evaluation
    visits at most: the product of the free and the binders' pool sizes."""
    plain, primed, _ = free_refs(goal)
    free = sorted(plain, key=lambda v: v.name) + sorted(primed, key=lambda v: v.name)
    pools, eval_dom, binders = _pools(goal, dom, {v.ty for v in free})
    size = math.prod(len(pools[ty][0]) for ty in [v.ty for v in free] + binders)
    return free, len(plain), pools, eval_dom, size


def check_fo_validity(goal: Formula, dom: FiniteDomain = None) -> FoVerdict:
    """Decide validity of a first-order goal by exhaustive evaluation when
    every type in sight is finite (or covered by the domain), falling back to
    a probe search over the free variables that can only refute.  Goals whose
    quantifiers range over types with no finite domain stay undecided: probe
    approximation under a quantifier would not be sound."""
    free, n_plain, pools, eval_dom, _ = _fo_setup(goal, dom)
    sources = {ty: src for ty, (_, src) in pools.items()}
    if any(sources[ty] == "probe" for ty in eval_dom.overrides):
        return FoVerdict(None)
    exact = "probe" not in sources.values()
    plain_vars, primed_vars = tuple(free[:n_plain]), tuple(free[n_plain:])
    holds = compile_step(goal, plain_vars, primed_vars, eval_dom)
    for values in itertools.product(*[pools[v.ty][0] for v in free]):
        if not holds(values):
            witness = {v.name: x for v, x in zip(plain_vars, values)}
            witness.update({f"{v.name}'": x for v, x in zip(primed_vars, values[n_plain:])})
            final = all(sources[ty] == "own" for ty in eval_dom.overrides)
            return FoVerdict(False, witness, exact=True, final=final)
    own = all(src == "own" for src in sources.values())
    return FoVerdict(True if exact else None, None, exact=exact, final=own)


def discharge_fo(vc: Vc, dom: FiniteDomain = None) -> tuple[CheckResult, str]:
    """Discharge a first-order condition (see `_discharge_first_order`).
    Returns the result and which route produced it."""
    d = _discharge(vc.goal, dom)
    if d.holds is None:
        return Unknown(d.reason), d.route
    return (Proven() if d.holds else Refuted(note=_witness_note(d.witness))), d.route


def _witness_note(witness: Optional[dict]) -> str:
    if not witness:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in sorted(witness.items()))
    return f"counterexample assignment: {inner}"


# --- temporal discharge -------------------------------------------------------


def _lasso_search_setup(goal: Formula, dom: Optional[FiniteDomain], expand: Expansion):
    """Lasso families over the `_pool`s of the goal's free variables, and the
    domain its quantifiers range over (probe pools too: quantifier
    approximation keeps definite verdicts sound).  Returns the reason instead
    when there are more lasso assignments than `expand.cap`, which is decided
    before any family is built."""
    fv = sorted(free_vars(goal).vars, key=lambda v: v.name)
    pools, eval_dom, _ = _pools(goal, dom, {v.ty for v in fv})
    total = math.prod(lasso_count(len(set(pools[v.ty][0])), expand.stem, expand.loop) for v in fv)
    if total > expand.cap:
        return f"{total} lasso assignments exceed the cap {expand.cap}"
    families = [all_lassos(pools[v.ty][0], expand.stem, expand.loop) for v in fv]
    return fv, families, eval_dom


def _lasso_verdicts(goal, dom, expand):
    """Each lasso assignment of the goal's free variables with the goal's
    definite value on it (None when undecided); a closed goal has one, the
    empty assignment.  Raises ExplosionGuard, naming the cap, when a cap
    skips the search or cuts it short."""
    setup = _lasso_search_setup(goal, dom, expand)
    if isinstance(setup, str):
        raise ExplosionGuard(f"not searched: {setup}")
    fv, families, eval_dom = setup
    for combo in itertools.product(*families):
        words = dict(zip(fv, combo))
        try:
            res = eval_qltl(goal, words, expand, eval_dom)
            verdict = res.definite
            if verdict is None and all(not w.stem and len(w.loop) == 1 for w in combo):
                # constant words specialize syntactically: rewriting the
                # instantiated formula can settle quantified subformulas
                # (e.g. an implication collapsing to true) that the family
                # approximation cannot
                sigma = {v: Const(w.loop[0], v.ty) for v, w in words.items()}
                specialized = simplify(substitute(goal, sigma))
                if specialized == TrueC():
                    verdict = True
                elif specialized == FalseC():
                    verdict = False
                else:
                    verdict = eval_qltl(specialized, {}, expand, eval_dom).definite
        except ExplosionGuard as e:
            raise ExplosionGuard(f"search stopped: {e}") from None
        yield words, verdict


def _lasso_witness(words: dict, want: bool) -> LassoWitness:
    note = "lasso model of the goal" if want else "lasso assignment falsifying the goal"
    return LassoWitness(tuple((v.name, w.stem, w.loop) for v, w in words.items()), note=note)


def _lasso_search(goal, dom, expand, want: bool) -> Optional[LassoWitness]:
    """A lasso assignment on which the goal is definitely `want`; None when
    the bounded search finds none.  ExplosionGuard as for `_lasso_verdicts`."""
    for words, verdict in _lasso_verdicts(goal, dom, expand):
        if verdict is want:
            return _lasso_witness(words, want)
    return None


def refute_temporal(
    goal: Formula, dom: FiniteDomain = None, expand: Expansion = Expansion()
) -> Optional[LassoWitness]:
    """Search lasso assignments of the goal's free variables for a definite
    falsification; None when the bounded search finds nothing.  Raises
    ExplosionGuard when a cap skips the search or cuts it short."""
    return _lasso_search(goal, dom, expand, want=False)


def witness_temporal_truth(
    goal: Formula, dom: FiniteDomain = None, expand: Expansion = Expansion()
) -> Optional[LassoWitness]:
    """Search for a lasso assignment making the goal definitely true (a model
    of the formula): sound evidence of satisfiability.  None and
    ExplosionGuard as for `refute_temporal`."""
    return _lasso_search(goal, dom, expand, want=True)


# --- one discharger -----------------------------------------------------------


@dataclass(frozen=True)
class _Decision:
    """What `_discharge` found: the answer (None when undecided), the route
    that gave it ("constant", "finite", "solver", "lasso" or "none"), the
    assignment or lasso that settles it when it has one, and why a search
    stayed undecided when a cap cut it short."""

    holds: Optional[bool]
    route: str
    witness: object = None
    reason: str = ""


def _discharge(goal: Formula, dom: Optional[FiniteDomain], expand=Expansion(), sat=False) -> _Decision:
    """Is the goal valid, or with `sat` satisfiable?  The routes, in order: a
    constant goal; `_discharge_first_order` for a first-order goal; for a
    temporal goal with free variables, a lasso falsifying it (with `sat`, a
    lasso model); and a closed temporal goal is decided either way by its
    definite value, evaluated once.  The witness falsifies the goal, or with
    `sat` satisfies it."""
    if isinstance(goal, (TrueC, FalseC)):
        return _Decision(isinstance(goal, TrueC), "constant")
    if not is_temporal(goal):
        return _discharge_first_order(goal, dom, sat)
    try:
        if free_vars(goal).vars:
            witness = (witness_temporal_truth if sat else refute_temporal)(goal, dom, expand)
            if witness is not None:
                return _Decision(sat, "lasso", witness)
        else:
            ((words, value),) = _lasso_verdicts(goal, dom, expand)
            if value is not None:
                return _Decision(value, "lasso", _lasso_witness(words, sat) if value is sat else None)
    except ExplosionGuard as e:
        return _Decision(None, "none", reason=str(e))
    return _Decision(None, "none")


def _discharge_first_order(goal: Formula, dom: Optional[FiniteDomain], sat: bool) -> _Decision:
    """The cheaper route first.  Finite evaluation goes first when every
    quantifier ranges over its type's own values and there are at most
    FINITE_FIRST_CAP assignments; a `final` verdict ends it.  Otherwise the
    solver runs, then evaluation over the domain, made at most once."""
    target = Not(goal) if sat else goal  # satisfiable iff the negation is not valid
    fo = None
    _, _, pools, eval_dom, size = _fo_setup(target, dom)
    if size <= FINITE_FIRST_CAP and all(pools[ty][1] == "own" for ty in eval_dom.overrides):
        fo = check_fo_validity(target, dom)
        if fo.final:
            return _Decision(fo.valid != sat, "finite", fo.witness)
    script = emit_smtlib_sat(goal, "satisfiability") if sat else emit_smtlib(make_vc(goal, "validity"))
    verdict = run_solver(script)
    if verdict in ("sat", "unsat"):
        if verdict == "sat" and not sat and fo is None:
            fo = check_fo_validity(goal, dom)  # for the counterexample's assignment
        witness = fo.witness if fo and verdict == "sat" else None
        return _Decision((verdict == "unsat") != sat, "solver", witness)
    fo = fo or check_fo_validity(target, dom)
    if fo.valid is not None:
        return _Decision(fo.valid != sat, "finite", fo.witness)
    if verdict == "unavailable":
        return _Decision(None, "none", reason="goal undecided without a solver")
    return _Decision(None, "none", reason="solver answered unknown and finite evaluation was probe-only")


# --- validity / compatibility -------------------------------------------------

# the note of a satisfiability verdict, by route and answer
_SATISFIABILITY_NOTES = {
    ("constant", True): "",
    ("constant", False): "contract is unsatisfiable",
    ("solver", True): "solver found the contract satisfiable",
    ("solver", False): "solver proved the contract unsatisfiable",
    ("finite", True): "finite evaluation found a satisfying assignment",
    ("finite", False): "exhaustive finite evaluation: contract unsatisfiable",
    ("lasso", True): "lasso model found for the temporal contract",
    ("lasso", False): "the closed temporal contract is definitely false",
}


def is_valid(c, dom: FiniteDomain = None) -> CheckResult:
    """A component is valid when its semantics is not the everywhere-failing
    transformer: some input trace is legal.  A stateless or temporal contract
    is valid iff it is satisfiable.  A transition system is valid when its
    legal-input formula is `true`, invalid when it is `false`, and otherwise
    decided, if at all, by the configuration walk of `legal_lasso`."""
    a = atomic(as_component(c))
    if isinstance(a, (Det, Sts)):
        return _transition_validity(a, dom)
    contract = field_values(a, "formula")[-1]  # io, inpt or phi
    if not is_temporal(contract):
        # an existential closure that simplifies to a constant decides it
        slots = [v for s in field_values(a, "signature") for v in s.vars()]
        closed = simplify(exists_many(slots, contract))
        contract = closed if isinstance(closed, (TrueC, FalseC)) else contract
    d = _discharge(contract, dom, sat=True)
    if d.holds is None:
        if is_temporal(contract):
            return Unknown("temporal satisfiability is out of scope for proof")
        return Unknown("satisfiability undecided")
    return (Proven if d.holds else Refuted)(note=_SATISFIABILITY_NOTES[d.route, d.holds])


def _transition_validity(a: AtomicComponent, dom: Optional[FiniteDomain], horizon=4) -> CheckResult:
    legal = legal_formula(a)
    if legal == TrueC():
        return Proven(note="legal-input formula is true")
    if legal == FalseC():
        return Refuted(note="no input is legal")
    try:
        lasso = legal_lasso(Atomic(a), dom or FiniteDomain(), horizon)
    except (DomainNotFinite, ExplosionGuard) as e:
        return Unknown(f"bounded behavior unavailable: {e}")
    if lasso is None:
        return Unknown(f"no legal input lasso within horizon {horizon}; validity undecided")
    note = (
        f"legal bounded behavior found at horizon {horizon}"
        if lasso
        else f"every input trace is illegal within horizon {horizon}"
    )
    # The walk sees only the domain's values.  Over an override it misses the
    # successors, outputs and quantified values outside it, which a lasso
    # needs exact, and the inputs outside it, which a refutation needs too.
    binders = [
        n.var.ty for f in field_values(a, "formula") for n, _ in nodes(f) if isinstance(n, (Forall, Exists))
    ]
    successors = [] if isinstance(a, Det) else [v.ty for v in (*a.outputs, *a.states)]
    inputs = [] if lasso else [v.ty for v in a.inputs]
    ty = next((t for t in binders + successors + inputs if _pool(t, dom, set())[1] != "own"), None)
    if ty is not None:
        return Unknown(f"{note}, but {ty.short()} ranges over a domain override")
    return Proven(note=note) if lasso else Refuted(note=note)


def check_compat(c1, c2, dom: FiniteDomain = None) -> CheckResult:
    """Compatible when the serial composition is valid; an ill-formed one
    raises WfError (see atomic)."""
    return is_valid(Serial(as_component(c1), as_component(c2)), dom)


def is_input_receptive(c, dom: FiniteDomain = None, expand: Expansion = Expansion()) -> CheckResult:
    """Receptive iff the legal-input formula is valid over all input traces;
    `G phi` with a first-order phi is valid iff phi is valid in one step."""
    legal = legal_formula(atomic(as_component(c)))
    body = legal.arg if isinstance(legal, Globally) and not is_temporal(legal.arg) else legal
    d = _discharge(body, dom, expand)
    if d.holds:
        return Proven(note="" if d.route == "constant" else f"legal-input formula valid ({d.route})")
    if d.holds is None and is_temporal(body):
        return Unknown(f"temporal receptiveness {d.reason or 'not refuted at the bounds'}")
    if d.holds is None:
        return Unknown(d.reason)
    if isinstance(d.witness, LassoWitness):
        return Refuted(d.witness, note="input lasso with no legal continuation")
    if d.witness:
        names = tuple(sorted(d.witness))
        steps = (tuple(d.witness[n] for n in names),)
        return Refuted(TraceWitness(names, steps, step=0, note="illegal input value"))
    return Refuted(note="no input is legal" if d.route == "constant" else "")


# --- refinement ---------------------------------------------------------------


def _canonical_pair(a: AtomicComponent, b: AtomicComponent, k: Kind):
    """Lift both components to kind k and rename them onto shared canonical
    input, output and state variables x0.., y0.. and s0..; one object on
    both sides is lifted and renamed once."""
    def canonical(c):
        return rename_slots(lift_to(c, k), numbered("x"), numbered("y"), numbered("s"))

    first = canonical(a)
    return first, (first if b is a else canonical(b))


def _step_legality(c: AtomicComponent, step: Formula, svars, ys, gen: NameGen) -> Formula:
    """`exists s', y. step`: the legality of one step of a canonical side
    whose atomic form is c, with svars its states and ys its outputs.

    A deterministic c steps by its legal-input predicate and one equation
    per primed state and output that defines it, so its legality is the
    step's other conjuncts, with no quantifier built for the simplifier's
    one-point rule to eliminate.  The quantified route stays for a c that
    binds a variable (a binder can meet that route's fresh names) or whose
    next-state term differs from its state in base type (the one-point rule
    keeps that quantifier).  Either route draws the same fresh names, so
    the other side's stay as they are."""
    moves = zip(c.states, c.next) if isinstance(c, Det) else ()
    if (
        not isinstance(c, (Det, StatelessDet))
        or not (svars or ys)
        or binders(c)
        or any(base_type(type_of(t)) != base_type(v.ty) for v, t in moves)
    ):
        return quantify_primed(svars, step, gen, extra=ys, exists=True)
    for v in svars:
        gen.fresh("q", v.ty)
    defined = {PrimedRef(v) for v in svars} | {VarRef(v) for v in ys}
    return conj(
        p for p in conjuncts(step) if not (isinstance(p, Atom) and p.pred == "=" and p.args[0] in defined)
    )


def refine_vc(abstract, concrete) -> list[Vc]:
    """Verification conditions for `abstract refined-by concrete`, after
    reducing both sides to atomic components of the join kind."""
    aa = atomic(as_component(abstract))
    ac = atomic(as_component(concrete))
    if aa.inputs.types() != ac.inputs.types():
        raise SignatureMismatch("input signatures differ")
    if aa.outputs.types() != ac.outputs.types():
        raise SignatureMismatch("output signatures differ")
    k = join_kind(aa.kind(), ac.kind())
    if k != Kind.QLTL:
        # a stateless pair is a pair of transition systems without states
        a, b = _canonical_pair(aa, ac, Kind.STS)
        if a.states.types() == b.states.types():
            gen = NameGen([v.name for v in a.all_vars()] + [v.name for v in b.all_vars()])
            ys = list(a.outputs.vars())
            svars = list(a.states.vars())
            ex_a = _step_legality(aa, a.trs, svars, ys, gen)
            ex_b = _step_legality(ac, b.trs, svars, ys, gen)
            goal = simplify(
                conj([Implies(b.init, a.init), Implies(ex_a, ex_b), Implies(And(ex_a, b.trs), a.trs)])
            )
            if k in (Kind.STATELESS_DET, Kind.STATELESS):
                return [make_vc(goal, "stateless refinement (sound and complete)")]
            return [make_vc(goal, "transition-system refinement (sufficient only)", sufficient_only=True)]
    a, b = _canonical_pair(aa, ac, Kind.QLTL)
    ys = list(a.outputs.vars())
    legal_a = simplify(exists_many(ys, a.phi))
    if not a.inputs and not isinstance(legal_a, (TrueC, FalseC)):
        # a closed legality antecedent proven satisfiable collapses to true
        with contextlib.suppress(ExplosionGuard):
            if witness_temporal_truth(legal_a) is not None:
                legal_a = TrueC()
    vcs = []
    legality = simplify(Implies(legal_a, exists_many(ys, b.phi)))
    if legality != TrueC():
        vcs.append(make_vc(legality, "temporal refinement: legality inclusion"))
    containment = simplify(Implies(And(legal_a, b.phi), a.phi))
    if containment != TrueC():
        vcs.append(make_vc(containment, "temporal refinement: output containment"))
    if not vcs:
        vcs.append(make_vc(TrueC(), "temporal refinement: trivially valid"))
    return vcs


def check_refines(
    abstract, concrete, dom: FiniteDomain = None, horizon: int = 4, expand: Expansion = Expansion()
) -> CheckResult:
    """Discharge the refinement verification conditions; additionally run the
    bounded oracle refuter when the domains are finite so refutations carry a
    replayable trace."""
    vcs = refine_vc(abstract, concrete)
    proven_notes = []
    refuted: Optional[Refuted] = None
    unknown_reasons: list[str] = []
    sufficient_only = False
    for vc in vcs:
        d = _discharge(vc.goal, dom, expand)
        if d.holds and d.route == "constant":
            proven_notes.append(vc.provenance)
        elif d.holds:
            proven_notes.append(f"{vc.provenance} via {d.route}")
            sufficient_only = sufficient_only or vc.sufficient_only
        elif d.holds is False and vc.sufficient_only:
            # a failed sufficient condition proves nothing by itself
            unknown_reasons.append("sufficient transition-system condition failed")
        elif isinstance(d.witness, LassoWitness):
            refuted = Refuted(d.witness, note=f"{vc.provenance}: falsified on a lasso")
        elif d.holds is False:
            refuted = Refuted(note=f"{vc.provenance}: {_witness_note(d.witness)}")
        elif vc.fragment == "temporal":
            reason = d.reason or "not refuted at the bounds (no temporal prover)"
            unknown_reasons.append(f"temporal goal {reason}")
        else:
            unknown_reasons.append(d.reason)
    try:
        oracle_result = bounded_refute_refinement(
            as_component(abstract), as_component(concrete), dom or FiniteDomain(), horizon
        )
    except (DomainNotFinite, ExplosionGuard, KindError, NotDeterministic, NotLoopFree):
        oracle_result = None
    refuted = oracle_result if isinstance(oracle_result, Refuted) else refuted
    proven = not unknown_reasons and len(proven_notes) == len(vcs)
    if refuted is not None:
        if proven:
            raise SoundnessError("a query cannot be both proven and refuted at the same bounds")
        return refuted
    if proven:
        note = "; ".join(proven_notes)
        if sufficient_only:
            note += " (sufficient condition only)"
        return Proven(note=note)
    # every undecided condition names its own cause, each cause once
    reason = "; ".join(dict.fromkeys(unknown_reasons))
    return Unknown(reason or "verification conditions undecided")


def data_refine_vc(c1: Sts, c2: Sts, relation: Formula) -> list[Vc]:
    """Data-refinement conditions for transition systems with different state
    spaces, connected by a relation over both state tuples."""
    if not isinstance(c1, Sts) or not isinstance(c2, Sts):
        raise SignatureMismatch("data refinement relates two general transition systems")
    if c1.inputs.types() != c2.inputs.types() or c1.outputs.types() != c2.outputs.types():
        raise SignatureMismatch("input/output signatures differ")
    overlap = {v.name for v in c1.states} & {v.name for v in c2.states}
    if overlap:
        raise SignatureMismatch(f"state names must be disjoint, both declare {sorted(overlap)}")
    # align inputs/outputs onto shared names; keep state names as declared
    c1 = rename_slots(c1, numbered("x"), numbered("y"))
    c2 = rename_slots(c2, numbered("x"), numbered("y"))
    svars = list(c1.states.vars())
    tvars = list(c2.states.vars())
    xvars = list(c1.inputs.vars())
    yvars = list(c1.outputs.vars())
    gen = NameGen([v.name for v in c1.all_vars()] + [v.name for v in c2.all_vars()])
    p = quantify_primed(svars, c1.trs, gen, extra=yvars, exists=True)
    p2 = quantify_primed(tvars, c2.trs, gen, extra=yvars, exists=True)

    vc1 = forall_many(tvars, Implies(c2.init, exists_many(svars, And(relation, c1.init))))

    vc2 = forall_many(tvars + xvars + svars, Implies(And(relation, p), p2))

    rel_primed = substitute(relation, {v: PrimedRef(v) for v in svars + tvars})
    inner = quantify_primed(svars, And(rel_primed, c1.trs), gen, exists=True)
    body = Implies(conj([relation, p, c2.trs]), inner)
    body = quantify_primed(tvars, body, gen, exists=False)
    vc3 = forall_many(tvars + xvars + svars + yvars, body)

    return [
        make_vc(simplify(vc1), "data refinement: initialization"),
        make_vc(simplify(vc2), "data refinement: precondition transfer"),
        make_vc(simplify(vc3), "data refinement: step simulation"),
    ]
