"""Decision procedures over components: legal-input formulas, validity and
compatibility, input-receptiveness, refinement verification conditions with
SMT-LIB emission to an external solver, and bounded-oracle fallbacks."""

from __future__ import annotations

import itertools
import math
import os
import shlex
import subprocess
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
    numbered,
    rename_slots,
    wf,
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
    WfError,
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
from .lattice import join_kind, lift_to, quantify_primed
from .oracle import (
    Expansion,
    FiniteDomain,
    all_lassos,
    behavior,
    bounded_refute_refinement,
    compile_step,
    eval_qltl,
    lasso_count,
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


def _fragment_of(goal: Formula) -> str:
    return "temporal" if is_temporal(goal) else "first-order"


def make_vc(goal: Formula, provenance: str) -> Vc:
    return Vc(goal, _fragment_of(goal), provenance)


# --- legal inputs -------------------------------------------------------------


def legal_formula(c: AtomicComponent) -> Formula:
    """A temporal formula over the input variables characterizing the legal
    input traces."""
    gen = NameGen(v.name for v in c.all_vars())
    if isinstance(c, Qltl):
        return simplify(exists_many(c.outputs.vars(), c.phi))
    if isinstance(c, Sts):
        svars = list(c.states.vars())
        yvars = list(c.outputs.vars())
        phi = substitute(c.trs, {}, {v: NextRef(VarRef(v)) for v in svars})
        live = quantify_primed(svars, c.trs, gen, extra=yvars, exists=True)
        return simplify(forall_many(svars + yvars, Implies(c.init, Leads(phi, live))))
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
    if not path:
        return None
    return shlex.split(path)


def run_solver(script: str, timeout: float = SOLVER_TIMEOUT) -> str:
    """Run the configured solver on an SMT-LIB script; first output line is
    the verdict.  Returns 'sat', 'unsat', 'unknown', or 'unavailable'.  A
    solver that exits non-zero without a verdict line raises SolverFailure
    with its last stderr line; a timeout or a solver that cannot be started
    reads 'unknown'."""
    cmd = solver_command()
    if cmd is None:
        return "unavailable"
    try:
        proc = subprocess.run(
            cmd,
            input=script.encode(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=timeout,
        )
    except (subprocess.TimeoutExpired, OSError):
        return "unknown"
    first = proc.stdout.decode(errors="replace").strip().splitlines()
    verdict = first[0].strip() if first else ""
    if proc.returncode != 0 and verdict not in ("sat", "unsat", "unknown"):
        err = proc.stderr.decode(errors="replace").strip().splitlines()
        last = f": {err[-1].strip()}" if err else ""
        raise SolverFailure(f"solver exited with status {proc.returncode} and no verdict{last}")
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
    for v in plain | primed:
        if isinstance(v.ty, EnumType):
            enums[v.ty.name] = v.ty
    for name in sorted(enums):
        ty = enums[name]
        ctors = " ".join(f"({v})" for v in ty.values)
        lines.append(f"(declare-datatypes (({name} 0)) ((" + ctors + ")))")

    decls = []
    for v in sorted(plain, key=lambda v: v.name):
        decls.append(f"(declare-const {_smt_symbol(v)} {_sort_name(v.ty)})")
        guard = _range_guard(v)
        if guard:
            decls.append(f"(assert {guard})")
    for v in sorted(primed, key=lambda v: v.name):
        decls.append(f"(declare-const {_smt_symbol(v, True)} {_sort_name(v.ty)})")
        guard = _range_guard(v, True)
        if guard:
            decls.append(f"(assert {guard})")
    lines.extend(decls)
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


# A first-order goal with more assignments than this goes to the solver
# before finite evaluation: an assignment costs about 7 us to evaluate and a
# solver spawn about 30 ms, so evaluating this many costs no more than a spawn.
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


def _fo_route(goal: Formula, script, dom: Optional[FiniteDomain]) -> tuple[str, Optional[FoVerdict]]:
    """The cheaper route first.  Finite evaluation of the goal goes first when
    every quantifier ranges over its type's own values and there are at most
    FINITE_FIRST_CAP assignments; a `final` verdict ends it.  Otherwise the
    solver runs on `script()`.  Returns "finite" or the solver's answer, and
    the evaluation made (None when none was), for the caller to reuse."""
    fo = None
    _, _, pools, eval_dom, size = _fo_setup(goal, dom)
    if size <= FINITE_FIRST_CAP and all(pools[ty][1] == "own" for ty in eval_dom.overrides):
        fo = check_fo_validity(goal, dom)
        if fo.final:
            return "finite", fo
    return run_solver(script()), fo


def discharge_fo(vc: Vc, dom: FiniteDomain = None) -> tuple[CheckResult, str]:
    """Finite evaluation where it decides the goal by itself, else the solver,
    then exhaustive/probe evaluation.  Returns the result and which route
    produced it."""
    result, route, _ = _discharge_fo(vc, dom)
    return result, route


def _discharge_fo(vc: Vc, dom: Optional[FiniteDomain]) -> tuple[CheckResult, str, Optional[FoVerdict]]:
    """`discharge_fo`, and the finite evaluation it made (None when none)."""
    verdict, fo = _fo_route(vc.goal, lambda: emit_smtlib(vc), dom)
    if verdict == "unsat":
        return Proven(), "solver", fo
    if fo is None:
        fo = check_fo_validity(vc.goal, dom)
    if verdict == "sat":
        return Refuted(note=_witness_note(fo.witness)), "solver", fo
    if fo.valid is True:
        return Proven(), "finite", fo
    if fo.valid is False:
        return Refuted(note=_witness_note(fo.witness)), "finite", fo
    if verdict == "unavailable":
        return Unknown("goal undecided without a solver"), "none", fo
    return Unknown("solver answered unknown and finite evaluation was probe-only"), "none", fo


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


def _lasso_search(
    goal, dom, expand, want: bool
) -> tuple[Optional[LassoWitness], Optional[str]]:
    """A lasso assignment on which the goal is definitely `want`, and why the
    search did not run in full (None when it did)."""
    setup = _lasso_search_setup(goal, dom, expand)
    if isinstance(setup, str):
        return None, f"not searched: {setup}"
    fv, families, eval_dom = setup
    note = "lasso model of the goal" if want else "lasso assignment falsifying the goal"
    for combo in itertools.product(*families):
        words = dict(zip(fv, combo))
        try:
            res = eval_qltl(goal, words, expand, eval_dom)
            verdict = res.definite
            if verdict is None and all(
                not w.stem and len(w.loop) == 1 for w in combo
            ):
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
            return None, f"search stopped: {e}"
        if verdict is want:
            return LassoWitness(
                tuple((v.name, w.stem, w.loop) for v, w in words.items()), note=note
            ), None
    return None, None


def refute_temporal(
    goal: Formula,
    dom: FiniteDomain = None,
    expand: Expansion = Expansion(),
) -> Optional[LassoWitness]:
    """Search lasso assignments of the goal's free variables for a definite
    falsification; None when the bounded search finds nothing."""
    return _lasso_search(goal, dom, expand, want=False)[0]


def witness_temporal_truth(
    goal: Formula, dom: FiniteDomain = None, expand: Expansion = Expansion()
) -> Optional[LassoWitness]:
    """Search for a lasso assignment making the goal definitely true (a model
    of the formula): sound evidence of satisfiability."""
    return _lasso_search(goal, dom, expand, want=True)[0]


# --- validity / compatibility -------------------------------------------------


def is_valid(c, dom: FiniteDomain = None) -> CheckResult:
    """A component is valid when its semantics is not the everywhere-failing
    transformer: its contract admits at least one behavior."""
    a = atomic(as_component(c))
    if isinstance(a, (Det, StatelessDet)):
        a = lift_to(a, Kind.STATELESS if isinstance(a, StatelessDet) else Kind.STS)
    if isinstance(a, Stateless):
        goal = simplify(exists_many(list(a.inputs.vars()) + list(a.outputs.vars()), a.io))
        if goal == TrueC():
            return Proven()
        if goal == FalseC():
            return Refuted(note="contract is unsatisfiable")
        verdict, neg = _fo_route(Not(a.io), lambda: emit_smtlib_sat(a.io, "validity"), dom)
        if verdict == "sat":
            return Proven(note="solver found the contract satisfiable")
        if verdict == "unsat":
            return Refuted(note="solver proved the contract unsatisfiable")
        if neg is None:
            neg = check_fo_validity(Not(a.io), dom)
        if neg.valid is False:
            return Proven(note="finite evaluation found a satisfying assignment")
        if neg.valid is True:
            return Refuted(note="exhaustive finite evaluation: contract unsatisfiable")
        return Unknown("satisfiability undecided")
    if isinstance(a, Sts):
        return _sts_validity(a, dom)
    if isinstance(a, Qltl):
        if not is_temporal(a.phi):
            return is_valid(Atomic(Stateless(a.inputs, a.outputs, a.phi)), dom)
        witness = witness_temporal_truth(a.phi, dom)
        if witness is not None:
            return Proven(note="lasso model found for the temporal contract")
        return Unknown("temporal satisfiability is out of scope for proof")
    raise TypeError(f"not an atomic component: {a!r}")


def _sts_validity(a: Sts, dom: FiniteDomain, horizon: int = 4) -> CheckResult:
    use = dom or FiniteDomain()
    try:
        beh = behavior(Atomic(a), use, horizon)
        legal_found = False
        all_illegal = True
        for trace in use.traces(a.inputs, horizon):
            k = beh.first_illegal(trace)
            if k is None:
                all_illegal = False
                if beh.outputs(trace):
                    legal_found = True
                    break
    except (DomainNotFinite, ExplosionGuard) as e:
        return Unknown(f"bounded behavior unavailable: {e}")
    if legal_found:
        return Proven(note=f"legal bounded behavior found at horizon {horizon}")
    if all_illegal:
        return Refuted(note=f"every input trace is illegal within horizon {horizon}")
    return Unknown("no bounded behavior found; validity undecided")


def check_compat(c1, c2, dom: FiniteDomain = None) -> CheckResult:
    """Compatible when the serial composition is valid."""
    c1, c2 = as_component(c1), as_component(c2)
    composed = Serial(c1, c2)
    res = wf(composed)
    if not res:
        raise WfError(res.reason)
    return is_valid(composed, dom)


def is_input_receptive(c, dom: FiniteDomain = None, expand: Expansion = Expansion()) -> CheckResult:
    """Receptive iff the legal-input formula is valid over all input traces."""
    a = atomic(as_component(c))
    legal = legal_formula(a)
    if legal == TrueC():
        return Proven()
    if legal == FalseC():
        return Refuted(note="no input is legal")
    body = legal.arg if isinstance(legal, Globally) else legal
    if not is_temporal(body):
        # G phi is valid iff phi is valid as a one-step formula
        vc = make_vc(body, "input-receptiveness")
        result, route, fo = _discharge_fo(vc, dom)
        if isinstance(result, Refuted):
            if fo.witness:
                names = tuple(sorted(fo.witness))
                steps = (tuple(fo.witness[n] for n in names),)
                return Refuted(TraceWitness(names, steps, step=0, note="illegal input value"))
            return Refuted(note=result.note)
        if isinstance(result, Proven):
            return Proven(note=f"legal-input formula valid ({route})")
        return result
    witness, cut = _lasso_search(legal, dom, expand, want=False)
    if witness is not None:
        return Refuted(witness, note="input lasso with no legal continuation")
    if cut is not None:
        return Unknown(f"temporal receptiveness {cut}")
    return Unknown("temporal receptiveness not refuted at the bounds")


# --- refinement ---------------------------------------------------------------


def _canonical_pair(a: AtomicComponent, b: AtomicComponent, k: Kind):
    """Lift both components to kind k and rename them onto shared canonical
    input/output variables, with states s0.. for a and t0.. for b."""
    a, b = lift_to(a, k), lift_to(b, k)
    return (
        rename_slots(a, numbered("x"), numbered("y"), numbered("s")),
        rename_slots(b, numbered("x"), numbered("y"), numbered("t")),
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
    if k in (Kind.STATELESS_DET, Kind.STATELESS):
        a, b = _canonical_pair(aa, ac, Kind.STATELESS)
        ys = list(a.outputs.vars())
        ex_a = exists_many(ys, a.io)
        ex_b = exists_many(ys, b.io)
        goal = simplify(And(Implies(ex_a, ex_b), Implies(And(ex_a, b.io), a.io)))
        return [make_vc(goal, "stateless refinement (sound and complete)")]
    if k in (Kind.DET, Kind.STS):
        a, b = _canonical_pair(aa, ac, Kind.STS)
        if a.states.types() == b.states.types():
            # align the state spaces onto shared names
            b = rename_slots(b, (), (), numbered("s"))
            gen = NameGen(
                [v.name for v in a.all_vars()] + [v.name for v in b.all_vars()]
            )
            ys = list(a.outputs.vars())
            svars = list(a.states.vars())
            ex_a = quantify_primed(svars, a.trs, gen, extra=ys, exists=True)
            ex_b = quantify_primed(svars, b.trs, gen, extra=ys, exists=True)
            goal = simplify(
                conj(
                    [
                        Implies(b.init, a.init),
                        Implies(ex_a, ex_b),
                        Implies(And(ex_a, b.trs), a.trs),
                    ]
                )
            )
            provenance = "transition-system refinement (sufficient only)"
            return [Vc(goal, _fragment_of(goal), provenance, sufficient_only=True)]
        k = Kind.QLTL
    a, b = _canonical_pair(aa, ac, Kind.QLTL)
    ys = list(a.outputs.vars())
    legal_a = simplify(exists_many(ys, a.phi))
    if not a.inputs and not isinstance(legal_a, (TrueC, FalseC)):
        # a closed legality antecedent proven satisfiable collapses to true
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
    abstract,
    concrete,
    dom: FiniteDomain = None,
    horizon: int = 4,
    expand: Expansion = Expansion(),
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
        if vc.goal == TrueC():
            proven_notes.append(vc.provenance)
            continue
        if vc.fragment == "first-order":
            result, route = discharge_fo(vc, dom)
            if isinstance(result, Proven):
                proven_notes.append(f"{vc.provenance} via {route}")
                if vc.sufficient_only:
                    sufficient_only = True
                continue
            if isinstance(result, Refuted):
                if vc.sufficient_only:
                    # a failed sufficient condition proves nothing by itself
                    unknown_reasons.append("sufficient transition-system condition failed")
                    continue
                refuted = Refuted(result.witness, note=f"{vc.provenance}: {result.note}")
                continue
            unknown_reasons.append(result.reason)
        else:
            witness, cut = _lasso_search(vc.goal, dom, expand, want=False)
            if witness is not None:
                refuted = Refuted(witness, note=f"{vc.provenance}: falsified on a lasso")
            elif cut is not None:
                unknown_reasons.append(f"temporal goal {cut}")
            else:
                unknown_reasons.append("temporal goal not refuted at the bounds (no temporal prover)")
    oracle_result = None
    try:
        oracle_result = bounded_refute_refinement(
            as_component(abstract), as_component(concrete), dom or FiniteDomain(), horizon
        )
    except (DomainNotFinite, ExplosionGuard, KindError, NotDeterministic, NotLoopFree):
        oracle_result = None
    if isinstance(oracle_result, Refuted):
        refuted = oracle_result
    if refuted is not None:
        if not unknown_reasons and len(proven_notes) == len(vcs):
            raise SoundnessError("a query cannot be both proven and refuted at the same bounds")
        return refuted
    if not unknown_reasons and len(proven_notes) == len(vcs):
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
    gen = NameGen(
        [v.name for v in c1.all_vars()] + [v.name for v in c2.all_vars()]
    )
    p = quantify_primed(svars, c1.trs, gen, extra=yvars, exists=True)
    p2 = quantify_primed(tvars, c2.trs, gen, extra=yvars, exists=True)

    vc1 = forall_many(tvars, Implies(c2.init, exists_many(svars, And(relation, c1.init))))

    vc2 = forall_many(tvars + xvars + svars, Implies(And(relation, p), p2))

    rel_primed = substitute(
        relation, {v: PrimedRef(v) for v in svars + tvars}
    )
    inner = quantify_primed(svars, And(rel_primed, c1.trs), gen, exists=True)
    body = Implies(conj([relation, p, c2.trs]), inner)
    body = quantify_primed(tvars, body, gen, exists=False)
    vc3 = forall_many(tvars + xvars + svars + yvars, body)

    return [
        make_vc(simplify(vc1), "data refinement: initialization"),
        make_vc(simplify(vc2), "data refinement: precondition transfer"),
        make_vc(simplify(vc3), "data refinement: step simulation"),
    ]
