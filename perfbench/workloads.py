"""The four workloads.

A workload turns its seed into an endless stream of queries, runs one query
through the public `rcrs` API (`run`, the timed part) and checks its outcome
against an answer that does not come from the timed route (`check`, outside
the timer).  A query is one public call, or a short fixed sequence of them,
that yields a verdict or a result.

Functions of `rcrs` are looked up as module attributes at call time, so the
wrappers installed by `tracing.Tracer` see these calls.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from pathlib import Path

import rcrs
from rcrs import cli, corpus, diagrams, oracle
from rcrs.components import Atomic, Det, Parallel, Serial, Signature, StatelessDet, sigma_in
from rcrs.formulas import TRUEC, FalseC, TrueC, atom
from rcrs.oracle import FiniteDomain, IllegalAt
from rcrs.terms import VarRef, add, intc, mul, sub
from rcrs.types import BOOL, INT, IntRange, Var
from rcrs.verdicts import LassoWitness, TraceWitness

import generators
import reference

DATA = Path(__file__).resolve().parent / "data"


class Workload:
    """Seeded query stream.  Queries are made in batches by `make_batch(k)`
    from a generator seeded with (workload, seed, k), so the stream never
    repeats an input and does not depend on how far a run gets.  Queries are
    not kept once consumed, so memory does not grow with the run."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self._first: list[dict] = []
        self.fixed: list[dict] = []

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def prepare(self):
        """Generate and parse the first batch, and the fixed queries: those
        run once per run, before the query loop."""
        self._first = self.make_batch(0)
        self.fixed = self.make_fixed()

    def make_fixed(self) -> list[dict]:
        return []

    def stream(self):
        yield from self._first
        for k in itertools.count(1):
            yield from self.make_batch(k)

    def make_batch(self, k: int) -> list[dict]:
        raise NotImplementedError

    def run(self, q: dict):
        raise NotImplementedError

    def check(self, q: dict, outcome) -> tuple[str, str | None]:
        """(verdict label, problem or None)."""
        raise NotImplementedError


def _expect(label: str, expected: str):
    if label != expected:
        return label, f"verdict {label}, expected {expected}"
    return label, None


def _label_problem(result, expected: str):
    return _expect(result.label(), expected)


# --- fo-queries -------------------------------------------------------------


_FO_IN_TYPES = (IntRange(0, 1), IntRange(0, 2), BOOL)
_FO_OUT_TYPES = (IntRange(0, 1), BOOL)

# the worked examples, issued through the command line in-process:
# (argv after the file, file, exit code, verdict, required report lines)
_CLI_EXAMPLES = (
    (("check", "receptive"), "div.rcrs", 1, "Refuted", {"witness.y": "0"}),
    (("check", "compat"), "div.rcrs", 1, "Refuted", {}),
    (("check", "refine"), "refine.rcrs", 0, "Proven", {}),
)
_CLI_FLAGS = {
    "compat": ("--left", "Source", "--right", "Div"),
    "refine": ("--abstract", "Spec", "--concrete", "Impl"),
}


class FoQueries(Workload):
    """First-order checks discharged through the solver subprocess."""

    name = "fo-queries"

    def make_batch(self, k):
        rng = self.rng(k)
        x = Var("x", rng.choice(_FO_IN_TYPES))
        y = Var("y", rng.choice(_FO_OUT_TYPES))
        z = Var("z", rng.choice(_FO_OUT_TYPES))
        abstract, concrete = corpus.refinement_table_pair(rng, [x], [y])
        first = corpus.random_stateless_table(rng, [x], [y])
        second = corpus.random_stateless_table(rng, [y], [z])
        cli_queries = [
            {
                "kind": "cli",
                "argv": [*cmd, str(DATA / file), *_CLI_FLAGS.get(cmd[1], ())],
                "code": code,
                "verdict": verdict,
                "lines": lines,
            }
            for cmd, file, code, verdict, lines in _CLI_EXAMPLES
        ]
        return [
            cli_queries[0],
            {"kind": "refine", "abstract": abstract, "concrete": concrete},
            cli_queries[1],
            {"kind": "refine", "abstract": concrete, "concrete": abstract},
            cli_queries[2],
            {"kind": "compat", "first": first, "second": second},
            {"kind": "valid", "table": first},
        ]

    def run(self, q):
        kind = q["kind"]
        if kind == "refine":
            return rcrs.check_refines(q["abstract"], q["concrete"])
        if kind == "compat":
            return rcrs.check_compat(q["first"], q["second"])
        if kind == "valid":
            return rcrs.is_valid(q["table"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(q["argv"])
        return code, out.getvalue()

    def check(self, q, outcome):
        kind = q["kind"]
        if kind == "cli":
            code, text = outcome
            report = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
            label = report.get("verdict", "none")
            if code != q["code"] or label != q["verdict"]:
                return label, f"cli {' '.join(q['argv'][:2])}: exit {code}, verdict {label}"
            for key, value in q["lines"].items():
                if report.get(key) != value:
                    return label, f"cli witness {key}={report.get(key)}, expected {value}"
            return label, None
        if kind == "valid":
            holds = any(reference.table(q["table"]).values())
            return _label_problem(outcome, "Proven" if holds else "Refuted")
        if kind == "compat":
            holds = reference.table_compatible(
                reference.table(q["first"]), reference.table(q["second"])
            )
            return _label_problem(outcome, "Proven" if holds else "Refuted")
        abstract, concrete = reference.table(q["abstract"]), reference.table(q["concrete"])
        holds = reference.table_refines(abstract, concrete)
        label, problem = _label_problem(outcome, "Proven" if holds else "Refuted")
        if problem is None and label == "Refuted":
            w = outcome.witness
            if not isinstance(w, TraceWitness) or not reference.table_witness_replays(
                abstract, concrete, w
            ):
                problem = f"refutation witness does not replay: {w!r}"
        return label, problem


# --- oracle-equiv --------------------------------------------------------------


class OracleEquiv(Workload):
    """Criterion-5 shape: atomic form against stepwise execution.  As in
    criterion 5, every fifth batch uses the domain {0, 1, 2}; it takes a
    one-input composite (81 traces at horizon 4), the others a two-input one
    over {0, 1} (256 traces), so no query class is 25 times the others and a
    run's cost does not hinge on how many such queries its seed draws.

    Each batch has two queries on one composite c: `bounded_equiv(Atomic(a),
    c)`, which must hold, and `bounded_equiv(Atomic(a), m)` against a mutant
    m that can differ from c only on the last trace the oracle enumerates.
    `reference.run_det` on that trace gives the expected verdict, so a
    bounded_equiv that stops early, or answers without looking, is caught."""

    name = "oracle-equiv"
    horizon = 4
    trace_length = 6

    def make_batch(self, k):
        rng = self.rng(k)
        values, n_in = ((0, 1, 2), 1) if k % 5 == 0 else ((0, 1), 2)
        c = corpus.random_det_composite(rng, max_atoms=4, max_inputs=2)
        while len(sigma_in(c)) != n_in:
            c = corpus.random_det_composite(rng, max_atoms=4, max_inputs=2)
        traces = [
            tuple(tuple(rng.randint(-2, 2) for _ in range(n_in)) for _ in range(self.trace_length))
            for _ in range(2)
        ]
        q = {"component": c, "domain": FiniteDomain({"int": values}), "traces": traces}
        top = (values[-1],) * n_in
        return [{**q, "other": c}, {**q, "other": self._mutant(c, values[-1]), "last": (top,) * self.horizon}]

    def _mutant(self, c, top):
        """c beside a watcher of its inputs that rejects the last input of the
        trace that is `top` on every input at every step: the last trace the
        oracle enumerates, and the only one on which the mutant can differ
        from c."""
        n = len(sigma_in(c))
        ins = [Var(f"x{i}", INT) for i in range(n)]
        dup = StatelessDet(Signature(tuple(ins)), TRUEC, tuple(map(VarRef, ins)) * 2)
        # over the domain 0..top, e is non-zero (top ** n) exactly when every
        # input is `top`; s counts such steps in a row
        e = intc(1)
        for x in ins:
            e = mul(e, mul(VarRef(x), sub(VarRef(x), intc(top - 1))))
        hit, last = top ** n, 0
        for _ in range(self.horizon - 1):
            last = (last + 1) * hit
        s = Var("s0", INT)
        watcher = Det(
            Signature(tuple(ins)),
            Signature((s,)),
            (intc(0),),
            atom("!=", mul(VarRef(s), e), intc(last * hit)),
            (mul(add(VarRef(s), intc(1)), e),),
            (),
        )
        return Serial(Atomic(dup), Parallel(c, Atomic(watcher)))

    def run(self, q):
        c = q["component"]
        a = rcrs.atomic(c)
        equiv = rcrs.bounded_equiv(Atomic(a), q["other"], q["domain"], self.horizon)
        return a, equiv, [rcrs.exec_det(c, t) for t in q["traces"]]

    def check(self, q, outcome):
        a, equiv, runs = outcome
        c, other = q["component"], q["other"]
        for trace, got in zip(q["traces"], runs):
            want = reference.run_det(c, trace)
            if reference.run_det(a, trace) != want:
                return "Proven", f"atomic form runs differently from the composite on {trace}"
            if isinstance(got, IllegalAt):
                got = ("illegal", got.step)
            if got != want:
                return "Proven", f"exec_det gave {got!r}, expected {want!r}"
        label = "Proven" if equiv else "Refuted"
        if other is c:
            return _expect(label, "Proven")
        # the mutant differs from c only on the last trace of the domain, and
        # only if c runs it without an illegal input
        last = q["last"]
        differs = reference.run_det(c, last) != reference.run_det(other, last)
        label, problem = _expect(label, "Refuted" if differs else "Proven")
        if problem is None and differs:
            cex = equiv.counterexample
            if cex is None or reference.run_det(a, cex) == reference.run_det(other, cex):
                problem = f"inequivalence witness does not replay: {cex!r}"
        return label, problem


# --- temporal ------------------------------------------------------------------


class Temporal(Workload):
    """The oracle's temporal evaluators and the lasso route of `analysis`.

    The oven refinement is a fixed query, run once before the query loop: it
    takes 8.5 to 12 s, about half of a 20 s run, so inside the loop a host
    slowdown while it runs would also cut the number of other queries, which
    roughly doubles its effect on throughput.  Its time and its one query are
    added to the loop's for queries_per_s, so a slower oven still shows there.

    Legality coherence runs at horizon 3, one less than criterion 7: at
    horizon 4, eval_prefix3 expands each quantifier over 16 sequences, and in
    300 seeded atoms the mean was 76 ms but the top 1% took 1.9 to 7.8 s
    (2-vCPU VM, Python 3.11), so a single draw decided a run's throughput.
    At horizon 3 the same atoms took 5 ms on average and at most 0.3 s."""

    name = "temporal"
    horizon = 3

    def make_fixed(self):
        bindings, _ = rcrs.parse_rcrs((DATA / "oven.rcrs").read_text())
        return [{"kind": "oven", "abstract": bindings["Oven"], "concrete": bindings["Thermostat"]}]

    def make_batch(self, k):
        rng = self.rng(k)
        batch = [{"kind": "coherence", "sts": corpus.random_sts_atom(rng)} for _ in range(4)]
        r = generators.receptive_template(rng, k)
        batch.append({"kind": "receptive", **r, "component": rcrs.parse_component(r["text"])})
        f = generators.refinement_template(rng, k)
        batch.append(
            {
                "kind": "refine-qltl",
                **f,
                "abstract_c": rcrs.parse_component(f["abstract_text"]),
                "concrete_c": rcrs.parse_component(f["concrete_text"]),
            }
        )
        return batch

    def run(self, q):
        kind = q["kind"]
        if kind == "oven":
            return rcrs.check_refines(q["abstract"], q["concrete"])
        if kind == "coherence":
            return self._incoherent_prefixes(q["sts"])
        if kind == "receptive":
            return rcrs.is_input_receptive(q["component"])
        return rcrs.check_refines(q["abstract_c"], q["concrete_c"])

    def _incoherent_prefixes(self, s) -> int:
        """Legal-input formula against the exhaustive relation on every input
        prefix up to the horizon (criterion 7): the number of disagreements."""
        dom = FiniteDomain()
        legal = rcrs.legal_formula(s)
        _, illegal = rcrs.bounded_rel(Atomic(s), dom, self.horizon)
        xv = s.inputs.vars()[0]
        slots = [v for v in rcrs.free_vars(legal).vars if v.name == xv.name] or [xv]
        wrong = 0
        for k in range(1, self.horizon + 1):
            for prefix in itertools.product(dom.values(xv.ty), repeat=k):
                px = tuple((v,) for v in prefix)
                want = any(px[: j + 1] in illegal for j in range(k))
                if isinstance(legal, (TrueC, FalseC)):
                    got = isinstance(legal, FalseC)
                else:
                    got = oracle.eval_prefix3(legal, {v: prefix for v in slots}, dom) is False
                wrong += want != got
        return wrong

    def check(self, q, outcome):
        kind = q["kind"]
        if kind == "oven":
            return _label_problem(outcome, "Unknown")
        if kind == "coherence":
            if outcome:
                return "Refuted", f"legality incoherent on {outcome} input prefixes"
            return "Proven", None
        label, problem = _label_problem(outcome, q["expected"])
        if problem is not None or label != "Refuted":
            return label, problem
        w = outcome.witness
        words = _lasso_words(w)
        if kind == "receptive":
            # the witness falsifies the contract's formula (its legal inputs)
            replays = words is not None and not reference.lasso_holds(q["formula"], words)
        else:
            # the witness satisfies the concrete contract, not the abstract one
            replays = (
                words is not None
                and reference.lasso_holds(q["concrete"], words)
                and not reference.lasso_holds(q["abstract"], words)
            )
        if not replays:
            return label, f"{q['template']}: witness does not replay: {w!r}"
        return label, None


def _lasso_words(w):
    """{slot: (stem, loop)} of a lasso witness; canonical names x0 / y0 of a
    refinement witness map back to the template's x / y."""
    if not isinstance(w, LassoWitness):
        return None
    return {name.rstrip("0123456789"): (tuple(stem), tuple(loop)) for name, stem, loop in w.words}


# --- symbolic --------------------------------------------------------------------


class Symbolic(Workload):
    """Parse, print, compose, simplify and generate VCs; no solver, no oracle."""

    name = "symbolic"
    trace_length = 5

    def _trace(self, rng, n_in):
        return tuple(
            tuple(rng.randint(-2, 2) for _ in range(n_in)) for _ in range(self.trace_length)
        )

    def make_batch(self, k):
        rng = self.rng(k)
        c = corpus.random_det_composite(rng, 12, 2)
        spec = generators.random_diagram(rng, rng.randint(8, 14))
        return [
            {"component": c, "trace": self._trace(rng, len(sigma_in(c)))},
            {
                "diagram": diagrams.load_diagram(generators.diagram_json(spec)),
                "spec": spec,
                "trace": self._trace(rng, len(spec["inputs"])),
            },
        ]

    def run(self, q):
        c = diagrams.translate(q["diagram"]) if "diagram" in q else q["component"]
        text = rcrs.print_component(c)
        parsed = rcrs.parse_component(text)
        a = rcrs.atomic(parsed)
        legal = rcrs.legal_formula(a)
        vcs = rcrs.refine_vc(parsed, Atomic(a))
        scripts = [rcrs.emit_smtlib(vc) for vc in vcs if vc.fragment == "first-order"]
        return text, parsed, a, legal, vcs, scripts

    def check(self, q, outcome):
        text, parsed, a, legal, vcs, scripts = outcome
        if rcrs.print_component(parsed) != text:
            return "Proven", "printing the parsed component changes the text"
        if "diagram" in q:
            want = reference.simulate_diagram(q["spec"], q["trace"])
        else:
            want = reference.run_det(q["component"], q["trace"])
        got = reference.run_det(a, q["trace"])
        if got != want:
            return "Proven", f"atomic form runs {got!r}, expected {want!r}"
        names = {v.name for v in a.inputs.vars()}
        if not {v.name for v in rcrs.free_vars(legal).vars} <= names:
            return "Proven", "legal-input formula mentions non-input variables"
        if not vcs or len(scripts) != len(vcs):
            return "Proven", f"expected first-order VCs, got {[vc.fragment for vc in vcs]}"
        for script in scripts:
            if not script.rstrip().endswith("(check-sat)") or script.count("(") != script.count(")"):
                return "Proven", "malformed SMT-LIB script"
        return "Proven", None


WORKLOADS = {w.name: w for w in (FoQueries, OracleEquiv, Temporal, Symbolic)}
