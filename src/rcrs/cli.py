"""Command-line front end: parse definition files, simplify composites,
run the checks, emit solver scripts, simulate, and translate diagrams.

Exit codes: 0 proven/success, 1 refuted, 2 unknown; 3 with `error:` on a
`UsageError` (the input is at fault; `PrimedInTemporal` is one), an unreadable
file or bad JSON; 4 with `analysis failure:` on an `AnalysisFailure`, and 4
with `error:` on any other error, a defect in the toolkit.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .analysis import (
    check_compat,
    check_refines,
    data_refine_vc,
    discharge_fo,
    emit_smtlib,
    emit_smtlib_sat,
    is_input_receptive,
    is_valid,
    legal_formula,
    refine_vc,
)
from .components import Atomic, Kind, as_component, check_wf, field_values, sigma_in, sigma_out
from .compose import atomic, oi
from .errors import AnalysisFailure, ComponentSyntaxError, DomainNotFinite, RcrsError, TypeMismatch, UsageError
from .lattice import lift_to
from .oracle import (
    FiniteDomain,
    IllegalAt,
    bounded_equiv,
    bounded_rel,
    eval_prefix3,
    exec_det,
    parse_domain_file,
    parse_literal,
)
from .syntax import formula_text, parse_formula, parse_rcrs, print_component
from .types import RealType, UnitType, Var, is_value
from .verdicts import LassoWitness, Proven, Refuted, TraceWitness, Unknown


class Report:
    """Line-oriented key:value output; the same rendering serves machines and
    humans, so the verdicts cannot diverge."""

    def __init__(self, out=None):
        self.out = out or sys.stdout
        self.lines: list[tuple[str, str]] = []

    def emit(self, key: str, value):
        self.lines.append((key, str(value)))
        print(f"{key}: {value}", file=self.out)

    def verdict(self, result) -> int:
        self.emit("verdict", result.label())
        if isinstance(result, Proven):
            if result.note:
                self.emit("note", result.note)
            return 0
        if isinstance(result, Refuted):
            if result.note:
                self.emit("note", result.note)
            if result.horizon is not None:
                self.emit("horizon", result.horizon)
            self.witness(result.witness)
            return 1
        self.emit("reason", result.reason)
        return 2

    def witness(self, w):
        if isinstance(w, TraceWitness):
            for name in w.input_names:
                self.emit(f"witness.{name}", ",".join(str(v) for v in w.slot(name)))
            if w.step is not None:
                self.emit("witness.step", w.step)
            if w.outputs is not None:
                self.emit("witness.outputs", ";".join(",".join(map(str, s)) for s in w.outputs))
            if w.note:
                self.emit("witness.note", w.note)
        elif isinstance(w, LassoWitness):
            for name, stem, loop in w.words:
                stem_s = ",".join(str(v) for v in stem)
                loop_s = ",".join(str(v) for v in loop)
                self.emit(f"lasso.{name}", f"{stem_s}|{loop_s}")
            if w.note:
                self.emit("lasso.note", w.note)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return parse_rcrs(f.read())


def _pick(bindings, order, name):
    if name is None:
        return bindings[order[-1]], order[-1]
    if name not in bindings:
        raise ComponentSyntaxError(f"no component named {name!r} (have: {', '.join(order)})")
    return bindings[name], name


def _domains(path):
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        return parse_domain_file(text)
    except DomainNotFinite as e:
        raise ComponentSyntaxError(f"{path}: {e}") from e


def _natural(text: str) -> int:
    try:
        n = int(text)
        if n >= 0:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}")


def _parse_traces(specs, sig):
    """Trace inputs `name:v0,v1,...`, one spec per input slot (inline or from
    a file of such lines); every value must belong to its slot's type."""
    if len(sig) == 0:
        raise ComponentSyntaxError("the component has no input slot to drive")
    lines = []
    for spec in specs:
        try:
            with open(spec, "r", encoding="utf-8") as f:
                lines.extend(l.strip() for l in f if l.strip() and not l.startswith("#"))
            continue
        except OSError:
            lines.append(spec)
    pieces = {}
    for line in lines:
        name, _, rest = line.partition(":")
        pieces[name.strip()] = rest.split(",")
    names = sig.names()
    unknown = [n for n in pieces if n not in names]
    if unknown and len(unknown) == len(pieces) == len(names):
        # positional fallback: slot names of composites are generated
        pieces = dict(zip(names, pieces.values()))
    elif unknown:
        raise ComponentSyntaxError(f"no input slot named {', '.join(unknown)}")
    missing = [n for n in names if n not in pieces]
    if missing:
        raise ComponentSyntaxError(f"no trace given for input slot(s) {', '.join(missing)}")
    values = {v.name: [_slot_value(p, v) for p in pieces[v.name]] for v in sig}
    length = min(len(values[n]) for n in names)
    return tuple(tuple(values[n][i] for n in names) for i in range(length))


def _slot_value(piece: str, slot: Var):
    value = parse_literal(piece)
    ty = slot.ty
    if isinstance(ty, UnitType) and value == "()":
        return ()
    if not is_value(value, ty):
        raise TypeMismatch(f"input {slot.name}: {piece.strip()!r} is not a value of {ty.short()}")
    # a real written as an integer still divides as a real
    return Fraction(value) if isinstance(ty, RealType) else value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    on it, and argparse looks up sys.stdout and sys.stderr when it prints."""
    parser = argparse.ArgumentParser(
        prog="rcrs", description="symbolic analysis of reactive components"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("simplify", help="collapse a composite into one atomic component")
    p.add_argument("file")
    p.add_argument("--target")

    p = sub.add_parser("check", help="run a verification query")
    csub = p.add_subparsers(dest="query", required=True)
    for q in ("valid", "receptive"):
        cp = csub.add_parser(q)
        cp.add_argument("file")
        cp.add_argument("--target")
        cp.add_argument("--domains")
    cp = csub.add_parser("compat")
    cp.add_argument("file")
    cp.add_argument("--left", required=True)
    cp.add_argument("--right", required=True)
    cp.add_argument("--domains")
    cp = csub.add_parser("refine")
    cp.add_argument("file")
    cp.add_argument("--abstract", required=True)
    cp.add_argument("--concrete", required=True)
    cp.add_argument("--data-refine", dest="data_refine")
    cp.add_argument("--domains")
    cp.add_argument("--horizon", type=_natural, default=4)

    p = sub.add_parser("legal", help="print the legal-input formula")
    p.add_argument("file")
    p.add_argument("--target")

    p = sub.add_parser("smt", help="emit an SMT-LIB script")
    p.add_argument("file")
    p.add_argument("--query", choices=("refine", "valid"), required=True)
    p.add_argument("--target")
    p.add_argument("--abstract")
    p.add_argument("--concrete")

    p = sub.add_parser("simulate", help="run a deterministic component on a trace")
    p.add_argument("file")
    p.add_argument("--input", action="append", required=True)
    p.add_argument("--horizon", type=_natural)
    p.add_argument("--domains")
    p.add_argument("--target")

    p = sub.add_parser("translate", help="translate a block-diagram JSON file")
    p.add_argument("diagram")
    p.add_argument("-o", "--output")

    p = sub.add_parser("selftest", help="run the randomized property corpora")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_natural, default=25)
    return parser


def main(argv=None) -> int:
    """Run the command in argv.  The process entry (no argv) runs it on a
    deep stack, and a call that passes argv in place."""
    if argv is not None:
        return _main(argv)
    from .dlsolver import on_deep_stack

    return on_deep_stack(_main, None)


def _main(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 3 if e.code not in (0, None) else 0

    # `smt` writes its script to stdout, so that it pipes into a solver
    report = Report(sys.stderr if args.cmd == "smt" else None)
    started = time.monotonic()
    try:
        code = _dispatch(args, report)
    except (UsageError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except AnalysisFailure as e:
        print(f"analysis failure: {e}", file=sys.stderr)
        return 4
    except RcrsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except RecursionError as e:
        print(f"error: input nested too deeply for the recursion limit {sys.getrecursionlimit()}: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        # exit 1 reads as Refuted: a crash must not pass for a verdict
        print(f"error: internal failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    report.emit("time_ms", int((time.monotonic() - started) * 1000))
    return code


def _dispatch(args, report: Report) -> int:
    if args.cmd == "simplify":
        bindings, order = _load(args.file)
        target, name = _pick(bindings, order, args.target)
        report.emit("command", f"simplify {name}")
        a = atomic(target)
        report.emit("component", print_component(Atomic(a)))
        return 0

    if args.cmd == "check":
        return _dispatch_check(args, report)

    if args.cmd == "legal":
        bindings, order = _load(args.file)
        target, name = _pick(bindings, order, args.target)
        report.emit("command", f"legal {name}")
        report.emit("legal", formula_text(legal_formula(atomic(target))))
        return 0

    if args.cmd == "smt":
        bindings, order = _load(args.file)
        if args.query == "valid":
            target, name = _pick(bindings, order, args.target)
            a = atomic(target)
            k = a.kind()
            if k in (Kind.STATELESS_DET, Kind.DET, Kind.STS):
                a = lift_to(a, Kind.STS if k in (Kind.DET, Kind.STS) else Kind.STATELESS)
            contract = field_values(a, "formula")[-1]  # trs, io or phi
            sys.stdout.write(emit_smtlib_sat(contract, f"validity of {name}"))
            return 0
        if not args.abstract or not args.concrete:
            raise ComponentSyntaxError("smt --query refine needs --abstract and --concrete")
        left, _ = _pick(bindings, order, args.abstract)
        right, _ = _pick(bindings, order, args.concrete)
        for vc in refine_vc(left, right):
            if vc.fragment == "first-order":
                sys.stdout.write(emit_smtlib(vc))
            else:
                print(f"; temporal goal (not emitted): {formula_text(vc.goal)}", file=sys.stderr)
        return 0

    if args.cmd == "simulate":
        bindings, order = _load(args.file)
        target, name = _pick(bindings, order, args.target)
        dom = _domains(args.domains)
        check_wf(target)
        trace = _parse_traces(args.input, sigma_in(target))
        if args.horizon is not None:
            trace = trace[: args.horizon]
        report.emit("command", f"simulate {name}")
        result = exec_det(target, trace, dom)
        if isinstance(result, IllegalAt):
            report.emit("verdict", "Refuted")
            report.emit("illegal_at", result.step)
            return 1
        out_names = sigma_out(target).names()
        for i, n in enumerate(out_names):
            report.emit(n, ",".join(str(step[i]) for step in result))
        return 0

    if args.cmd == "translate":
        from .diagrams import load_diagram, translate

        with open(args.diagram, "r", encoding="utf-8") as f:
            term = translate(load_diagram(f.read()))
        text = f"component Translated = {print_component(term)}\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text)
            report.emit("written", args.output)
        else:
            sys.stdout.write(text)
        return 0

    if args.cmd == "selftest":
        return _selftest(args, report)

    raise AssertionError(f"unhandled command {args.cmd}")


def _dispatch_check(args, report: Report) -> int:
    bindings, order = _load(args.file)
    dom = _domains(getattr(args, "domains", None))
    if args.query in ("valid", "receptive"):
        target, name = _pick(bindings, order, args.target)
        report.emit("command", f"check {args.query} {name}")
        return report.verdict((is_valid if args.query == "valid" else is_input_receptive)(target, dom))
    if args.query == "compat":
        left, lname = _pick(bindings, order, args.left)
        right, rname = _pick(bindings, order, args.right)
        report.emit("command", f"check compat {lname} ; {rname}")
        return report.verdict(check_compat(left, right, dom))
    if args.query == "refine":
        left, lname = _pick(bindings, order, args.abstract)
        right, rname = _pick(bindings, order, args.concrete)
        report.emit("command", f"check refine {lname} by {rname}")
        if args.data_refine:
            return _check_data_refine(left, right, args.data_refine, dom, report)
        return report.verdict(check_refines(left, right, dom, horizon=args.horizon))
    raise AssertionError


def _check_data_refine(left, right, relation_text: str, dom, report: Report) -> int:
    a1 = lift_to(atomic(as_component(left)), Kind.STS)
    a2 = lift_to(atomic(as_component(right)), Kind.STS)
    relation = parse_formula(relation_text, [a1.states, a2.states])
    vcs = data_refine_vc(a1, a2, relation)
    notes = []
    for vc in vcs:
        result, route = discharge_fo(vc, dom)
        report.emit(f"vc.{len(notes)}", f"{vc.provenance}: {result.label()}")
        if not isinstance(result, Proven):
            return report.verdict(
                Unknown(f"{vc.provenance} not proven (data refinement is sufficient only)")
            )
        notes.append(route)
    return report.verdict(Proven(note="all data-refinement conditions valid (sufficient)"))


def _selftest(args, report: Report) -> int:
    import random

    from .corpus import random_det_composite, random_sts_atom

    root = random.Random(args.seed)
    report.emit("command", f"selftest seed={args.seed} count={args.count}")
    dom = FiniteDomain({"int": (0, 1)})
    failures = 0
    for i in range(args.count):
        rng = random.Random(root.randrange(2**32))
        c = random_det_composite(rng)
        a = atomic(c)
        r = bounded_equiv(Atomic(a), c, dom, 4)
        if not r or oi(Atomic(a)) != oi(c):
            failures += 1
            report.emit(f"fail.atomic.{i}", print_component(c))
    report.emit("atomic_equiv", f"{args.count - failures}/{args.count}")
    fail2 = 0
    for i in range(args.count):
        rng = random.Random(root.randrange(2**32))
        s = random_sts_atom(rng)
        if not _legality_coherent(s, 3):
            fail2 += 1
            report.emit(f"fail.legal.{i}", print_component(Atomic(s)))
    report.emit("legality_coherence", f"{args.count - fail2}/{args.count}")
    total = failures + fail2
    report.emit("failures", total)
    return 0 if total == 0 else 1


def _legality_coherent(s, horizon: int) -> bool:
    dom = FiniteDomain()
    legal = legal_formula(s)
    _, illegal = bounded_rel(Atomic(s), dom, horizon)
    xvar = s.inputs.vars()[0]
    vals = dom.values(xvar.ty)
    for k in range(1, horizon + 1):
        for prefix in itertools.product(vals, repeat=k):
            px = tuple((v,) for v in prefix)
            expected = any(px[: j + 1] in illegal for j in range(k))
            got_illegal = eval_prefix3(legal, {xvar: prefix}, dom) is False
            if expected != got_illegal:
                return False
    return True


if __name__ == "__main__":
    sys.exit(main())
