"""The analysis layer: legal formulas, validity, compatibility,
receptiveness, refinement conditions, data refinement, and SMT emission."""

import random

import pytest

from rcrs.analysis import (
    check_compat,
    check_fo_validity,
    check_refines,
    data_refine_vc,
    discharge_fo,
    emit_smtlib,
    is_input_receptive,
    is_valid,
    legal_formula,
    make_vc,
    refine_vc,
)
from rcrs.components import (
    Atomic,
    Det,
    Qltl,
    Serial,
    Signature,
    Stateless,
    StatelessDet,
    Sts,
    sig,
)
from rcrs.compose import atomic
from rcrs.corpus import refinement_table_pair, random_stateless_table
from rcrs.errors import SignatureMismatch, TemporalFragment, WfError
from rcrs.formulas import (
    And,
    Exists,
    FALSEC,
    Finally,
    Globally,
    Implies,
    TRUEC,
    atom,
    eq,
)
from rcrs.oracle import Expansion, FiniteDomain, behavior, eval_prefix3, exec_det
from rcrs.syntax import parse_component, parse_rcrs
from rcrs.terms import App, PrimedRef, TRUE, VarRef, add, intc, mul, var
from rcrs.types import BOOL, INT, IntRange, Var
from rcrs.verdicts import LassoWitness, Proven, Refuted, TraceWitness, Unknown


def _div():
    x, y = var("x", INT), var("y", INT)
    return StatelessDet(
        sig(("x", INT), ("y", INT)), atom("!=", y, intc(0)), (App("/", (x, y)),)
    )


class TestLegalFormula:
    def test_div(self):
        legal = legal_formula(_div())
        assert legal == Globally(atom("!=", var("y", INT), intc(0)))

    def test_qltl(self):
        q = parse_component("qltl((x:bool), (y:bool), G (x -> F y))").atom
        legal = legal_formula(q)
        assert isinstance(legal, Exists)

    def test_unit_delay_true(self, unit_delay):
        assert legal_formula(unit_delay) == TRUEC

    def test_legal_only_over_inputs(self):
        from rcrs.formulas import free_vars

        c = parse_component("stateless((x:int, y:int), (z:int), y != 0 && z = x / y)").atom
        legal = legal_formula(c)
        names = {v.name for v in free_vars(legal).vars}
        assert names <= {"x", "y"}

    def test_legal_invariant_under_lifting(self):
        """The legal formula computed after lifting is equivalent to the one
        computed at the original kind (finite bounded check)."""
        from rcrs.components import Kind
        from rcrs.lattice import lift_to

        ty = IntRange(0, 1)
        x = var("x", ty)
        c = StatelessDet(sig(("x", ty)), atom("<", x, intc(1)), (x,))
        base = legal_formula(c)
        dom = FiniteDomain()
        for target in (Kind.DET, Kind.STATELESS, Kind.STS):
            lifted = legal_formula(lift_to(c, target))
            for prefix_len in (1, 2, 3):
                import itertools

                for prefix in itertools.product((0, 1), repeat=prefix_len):
                    w = {Var("x", ty): prefix}
                    got = _prefix_illegal(lifted, w, dom)
                    want = _prefix_illegal(base, w, dom)
                    assert got == want, (target, prefix)


def _prefix_illegal(legal, words, dom):
    from rcrs.formulas import FalseC, TrueC

    if isinstance(legal, TrueC):
        return False
    if isinstance(legal, FalseC):
        return True
    remap = {v: seq for v, seq in words.items()}
    from rcrs.formulas import free_vars

    fv = free_vars(legal).vars
    env = {}
    for v in fv:
        for w, seq in words.items():
            if w.name == v.name:
                env[v] = seq
    return eval_prefix3(legal, env, dom) is False


class TestValidity:
    def test_false_contract_refuted(self, no_solver):
        c = Stateless(sig(("u", INT)), sig(("z", INT)), FALSEC)
        assert isinstance(is_valid(Atomic(c)), Refuted)

    def test_add_proven(self, no_solver, add_block):
        assert isinstance(is_valid(Atomic(add_block)), Proven)

    def test_div_serial_refuted_finite(self, no_solver):
        source = Stateless(sig(("u", INT)), sig(("x", INT), ("y", INT)), TRUEC)
        res = check_compat(
            Atomic(source), Atomic(_div()), FiniteDomain({"int": (-2, -1, 0, 1, 2)})
        )
        assert isinstance(res, Refuted)

    def test_div_serial_refuted_solver(self, with_solver):
        source = Stateless(sig(("u", INT)), sig(("x", INT), ("y", INT)), TRUEC)
        res = check_compat(Atomic(source), Atomic(_div()))
        assert isinstance(res, Refuted)
        assert "solver" in res.note

    def test_compat_wf_error(self, add_block, unit_delay):
        with pytest.raises(WfError):
            check_compat(Atomic(unit_delay), Atomic(add_block))

    def test_request_response_compat(self):
        c3 = parse_component("qltl((x:bool), (y:bool), G (x -> F y))")
        c4 = parse_component("qltl((y:bool), (), G F y)")
        res = check_compat(c3, c4)
        assert isinstance(res, Proven)

    def test_sts_validity_bounded(self):
        ty = IntRange(0, 1)
        c = Sts(
            sig(("x", ty)), sig(("y", ty)), sig(("s", ty)),
            eq(var("s", ty), intc(0)),
            And(eq(var("y", ty), var("s", ty)), eq(PrimedRef(Var("s", ty)), var("x", ty))),
        )
        assert isinstance(is_valid(Atomic(c), FiniteDomain()), Proven)

    def test_unsatisfiable_temporal_contract_not_proven(self):
        c = parse_component("qltl((x:int[0..1]), (y:int[0..1]), G (y = 0 && false))")
        assert not isinstance(is_valid(c), Proven)


class TestReceptiveness:
    def test_add_receptive(self, add_block):
        assert isinstance(is_input_receptive(Atomic(add_block)), Proven)

    def test_div_refuted_with_witness(self):
        res = is_input_receptive(Atomic(_div()))
        assert isinstance(res, Refuted)
        assert isinstance(res.witness, TraceWitness)
        assert res.witness.slot("y") == (0,)
        assert res.witness.step == 0

    def test_search_over_the_cap_names_its_size(self):
        c = parse_component("qltl((x:bool), (), G F x)")
        res = is_input_receptive(c, expand=Expansion(cap=3))
        assert isinstance(res, Unknown)
        assert res.reason == (
            "temporal receptiveness not searched: 16 lasso assignments exceed the cap 3"
        )

    def test_gfx_lasso_witness(self):
        c = parse_component("qltl((x:bool), (), G F x)")
        res = is_input_receptive(c)
        assert isinstance(res, Refuted)
        assert isinstance(res.witness, LassoWitness)
        ((name, stem, loop),) = res.witness.words
        assert name == "x" and stem == () and loop == (False,)

    def test_witness_replay(self):
        """A receptiveness witness replays through execution as an illegal
        input at the reported step."""
        from rcrs.oracle import IllegalAt

        res = is_input_receptive(Atomic(_div()))
        w = res.witness
        trace = tuple((0, w.slot("y")[i]) for i in range(len(w.steps)))
        assert exec_det(Atomic(_div()), trace) == IllegalAt(w.step)


class TestRefineVc:
    def test_worked_example_vc(self):
        a = parse_component("stateless((x:int), (y:int), x >= 0 && y >= x)")
        b = parse_component("stateless((x:int), (y:int), x <= y && y <= x + 10)")
        vcs = refine_vc(a, b)
        assert len(vcs) == 1
        assert vcs[0].fragment == "first-order"

    def test_reflexive_trivial(self):
        a = parse_component("stateless((x:int), (y:int), x >= 0 && y >= x)")
        vcs = refine_vc(a, a)
        assert vcs[0].goal == TRUEC

    def test_signature_mismatch(self):
        a = parse_component("stateless((x:int), (y:int), true)")
        b = parse_component("stateless((x:bool), (y:bool), true)")
        with pytest.raises(SignatureMismatch):
            refine_vc(a, b)

    def test_sts_part_one_flagged_sufficient(self, unit_delay):
        vcs = refine_vc(Atomic(unit_delay), Atomic(unit_delay))
        assert all("sufficient" in vc.provenance for vc in vcs) or vcs[0].goal == TRUEC


    def test_sufficient_only_field(self, unit_delay, add_block):
        (sts_vc,) = refine_vc(Atomic(unit_delay), Atomic(unit_delay))
        assert sts_vc.sufficient_only
        assert not any(vc.sufficient_only for vc in refine_vc(Atomic(add_block), Atomic(add_block)))


class TestCheckRefines:
    def test_worked_example_proven(self, with_solver):
        a = parse_component("stateless((x:int), (y:int), x >= 0 && y >= x)")
        b = parse_component("stateless((x:int), (y:int), x <= y && y <= x + 10)")
        res = check_refines(a, b)
        assert isinstance(res, Proven)
        assert "solver" in res.note

    def test_reversed_refuted_by_oracle(self, no_solver):
        a = parse_component("stateless((x:int), (y:int), x <= y && y <= x + 10)")
        b = parse_component("stateless((x:int), (y:int), x >= 0 && y >= x)")
        dom = FiniteDomain({"int": tuple(range(-2, 13))})
        res = check_refines(a, b, dom, horizon=1)
        assert isinstance(res, Refuted)
        assert res.witness.steps[0][0] < 0

    def test_serial_stages_see_computed_values(self, no_solver):
        bindings, _ = parse_rcrs(
            "component Inc = stateless_det((x:int), true, (x + 1))\n"
            "component Id = stateless_det((x:int), true, (x))\n"
            "component Delay = det((x:int), (s:int), (0), true, (x), (s))\n"
            "component Spec = Inc ; Delay\n"
            "component Impl = det((x:int), (s:int, t:int), (0, 0), true, (x + 1, t), (s))\n"
            "component IncId = Inc ; Id\n"
        )
        dom = FiniteDomain({"int": (0, 1)})
        # the domain bounds the inputs, not the value 2 that Inc computes
        assert not isinstance(check_refines(bindings["Spec"], bindings["Impl"], dom), Refuted)
        assert isinstance(check_refines(bindings["IncId"], bindings["Inc"], dom), Proven)

    def test_oracle_defect_is_not_unknown(self, no_solver, monkeypatch):
        import rcrs.analysis as analysis

        def defect(*args):
            raise ZeroDivisionError("defect in the oracle")

        monkeypatch.setattr(analysis, "bounded_refute_refinement", defect)
        a = parse_component("stateless((x:int), (y:int), y = x)")
        with pytest.raises(ZeroDivisionError):
            check_refines(a, a)

    def test_footnote_pair(self, with_solver):
        a = parse_component("stateless((x:int), (y:int), true)")
        b = parse_component("stateless((x:int), (y:int), x != y)")
        assert isinstance(check_refines(a, b), Proven)

    def test_stateless_matches_bruteforce(self, no_solver):
        """Over finite domains the verdict agrees exactly with brute-force
        evaluation of the biconditional."""
        rng = random.Random(41)
        ty = IntRange(0, 1)
        dom = FiniteDomain()
        agree = 0
        for _ in range(25):
            a = random_stateless_table(rng, [Var("x", ty)], [Var("y", ty)])
            b = random_stateless_table(rng, [Var("u", ty)], [Var("v", ty)])
            res = check_refines(Atomic(a), Atomic(b), dom, horizon=1)
            want = _brute_force_refines(a, b, dom)
            if want:
                assert isinstance(res, Proven), (a, b)
            else:
                assert isinstance(res, Refuted), (a, b)
            agree += 1
        assert agree == 25

    def test_constructed_pairs_refine(self, no_solver):
        rng = random.Random(43)
        ty = IntRange(0, 1)
        dom = FiniteDomain()
        for _ in range(15):
            a, b = refinement_table_pair(rng, [Var("x", ty)], [Var("y", ty)])
            res = check_refines(Atomic(a), Atomic(b), dom, horizon=1)
            assert isinstance(res, Proven), (a.io, b.io)

    def test_monotone_reporting(self, with_solver):
        """Proven and Refuted are never both derivable: spot-check that the
        solver verdict and the oracle verdict agree in direction."""
        rng = random.Random(47)
        ty = IntRange(0, 1)
        dom = FiniteDomain()
        for _ in range(10):
            a = random_stateless_table(rng, [Var("x", ty)], [Var("y", ty)])
            b = random_stateless_table(rng, [Var("u", ty)], [Var("v", ty)])
            res = check_refines(Atomic(a), Atomic(b), dom, horizon=1)
            want = _brute_force_refines(a, b, dom)
            assert isinstance(res, Proven) == want


def _brute_force_refines(a: Stateless, b: Stateless, dom: FiniteDomain) -> bool:
    """Direct evaluation of the stateless refinement characterization."""
    from rcrs.oracle import eval_formula_step

    for xv in dom.tuples(a.inputs):
        env_a = dict(zip(a.inputs.vars(), xv))
        env_b = dict(zip(b.inputs.vars(), xv))
        a_outs = {
            yv
            for yv in dom.tuples(a.outputs)
            if eval_formula_step(a.io, {**env_a, **dict(zip(a.outputs.vars(), yv))}, None, dom)
        }
        b_outs = {
            yv
            for yv in dom.tuples(b.outputs)
            if eval_formula_step(b.io, {**env_b, **dict(zip(b.outputs.vars(), yv))}, None, dom)
        }
        if a_outs:
            if not b_outs:
                return False
            if not b_outs <= a_outs:
                return False
    return True


class TestOvenExample:
    OVEN_TEXT = """
    component Oven = qltl((), (t:real),
      t = 20.0 && ((t < @t && t < 180.0) U G (180.0 <= t && t <= 220.0)))
    component Thermostat = sts((), (t:real), (s:real, sw:Sw{on,off}),
      s = 20.0 && sw = on,
      t = s
      && ((sw = on && s' = s + 4.0) || (sw != on && s > 10.0 && s' = s - 4.0)
          || (sw != on && s <= 10.0 && s' = s))
      && ((sw = on && s > 210.0 && sw' = off) || (sw = on && s <= 210.0 && sw' = on)
          || (sw != on && s < 190.0 && sw' = on) || (sw != on && s >= 190.0 && sw' = sw)))
    """

    def test_emits_quoted_temporal_vc(self):
        bindings, _ = parse_rcrs(self.OVEN_TEXT)
        vcs = refine_vc(bindings["Oven"], bindings["Thermostat"])
        from rcrs.components import Kind, alpha_equivalent
        from rcrs.lattice import lift_to
        from rcrs.types import REAL

        # expected: (exists s,sw: init && G phi) -> oven, up to alpha;
        # the VC formulas use the canonical output name y0
        canon_out = Signature((Var("y0", REAL),))
        oven_q = atomic(bindings["Oven"])
        thermo_q = lift_to(atomic(bindings["Thermostat"]), Kind.QLTL)
        matches = [
            vc
            for vc in vcs
            if vc.fragment == "temporal"
            and isinstance(vc.goal, Implies)
            and alpha_equivalent(
                Qltl(Signature(()), canon_out, vc.goal.right),
                Qltl(Signature(()), oven_q.outputs, oven_q.phi),
            )
        ]
        assert matches, [vc.provenance for vc in vcs]
        vc = matches[0]
        got_antecedent = Qltl(Signature(()), canon_out, vc.goal.left)
        want_antecedent = Qltl(Signature(()), thermo_q.outputs, thermo_q.phi)
        assert alpha_equivalent(got_antecedent, want_antecedent)

    def test_returns_unknown(self):
        bindings, _ = parse_rcrs(self.OVEN_TEXT)
        res = check_refines(bindings["Oven"], bindings["Thermostat"])
        assert isinstance(res, Unknown)

    def test_cap_decided_before_building(self, monkeypatch):
        import rcrs.analysis as analysis

        bindings, _ = parse_rcrs(self.OVEN_TEXT)
        (vc,) = [
            vc
            for vc in refine_vc(bindings["Oven"], bindings["Thermostat"])
            if vc.provenance.endswith("output containment")
        ]

        def build(*args):
            raise AssertionError("lasso family built")

        monkeypatch.setattr(analysis, "all_lassos", build)
        setup = analysis._lasso_search_setup(vc.goal, None, Expansion())
        assert setup == "707281 lasso assignments exceed the cap 100000"

    def test_reason_names_family_size_and_cap(self):
        bindings, _ = parse_rcrs(self.OVEN_TEXT)
        res = check_refines(bindings["Oven"], bindings["Thermostat"])
        assert isinstance(res, Unknown)
        assert "temporal goal not searched: 707281 lasso assignments exceed the cap 100000" in (
            res.reason
        )

    def test_legality_family_counts_distinct_words(self):
        bindings, _ = parse_rcrs(self.OVEN_TEXT)
        res = check_refines(bindings["Oven"], bindings["Thermostat"])
        assert "quantifier lasso family of 194481 words exceeds the cap 100000" in res.reason


class TestDataRefinement:
    def _counter(self):
        x, y, s = var("x", INT), var("y", INT), var("s", INT)
        return Sts(
            sig(("x", INT)), sig(("y", INT)), sig(("s", INT)),
            eq(s, intc(0)),
            And(eq(y, s), eq(PrimedRef(Var("s", INT)), add(s, intc(1)))),
        )

    def _counter_times_two(self):
        x, y, t = var("x", INT), var("y", INT), var("t", INT)
        return Sts(
            sig(("x", INT)), sig(("y", INT)), sig(("t", INT)),
            eq(t, intc(0)),
            And(eq(y, App("/", (t, intc(2)))), eq(PrimedRef(Var("t", INT)), add(t, intc(2)))),
        )

    def test_identity_relation_trivial(self):
        c1 = self._counter()
        c2 = Sts(
            c1.inputs, c1.outputs, sig(("t", INT)),
            eq(var("t", INT), intc(0)),
            And(eq(var("y", INT), var("t", INT)), eq(PrimedRef(Var("t", INT)), add(var("t", INT), intc(1)))),
        )
        relation = eq(var("s", INT), var("t", INT))
        vcs = data_refine_vc(c1, c2, relation)
        assert [vc.goal for vc in vcs] == [TRUEC, TRUEC, TRUEC]

    def test_counter_times_two_valid(self, no_solver):
        c1 = self._counter()
        c2 = self._counter_times_two()
        relation = eq(var("t", INT), mul(intc(2), var("s", INT)))
        vcs = data_refine_vc(c1, c2, relation)
        dom = FiniteDomain({"int": tuple(range(-2, 9))})
        for vc in vcs:
            verdict = check_fo_validity(vc.goal, dom)
            assert verdict.valid is True, (vc.provenance, verdict.witness)

    def test_false_relation_fails_initialization(self, no_solver):
        c1 = self._counter()
        c2 = self._counter_times_two()
        vcs = data_refine_vc(c1, c2, FALSEC)
        dom = FiniteDomain({"int": (-1, 0, 1)})
        verdict = check_fo_validity(vcs[0].goal, dom)
        assert verdict.valid is False

    def test_state_name_overlap_rejected(self):
        c1 = self._counter()
        with pytest.raises(SignatureMismatch):
            data_refine_vc(c1, c1, TRUEC)


class TestEmitSmtlib:
    def test_deterministic_output(self):
        a = parse_component("stateless((x:int), (y:int), x >= 0 && y >= x)")
        b = parse_component("stateless((x:int), (y:int), x <= y && y <= x + 10)")
        vc = refine_vc(a, b)[0]
        assert emit_smtlib(vc) == emit_smtlib(vc)

    def test_worked_example_unsat(self, with_solver):
        from rcrs.analysis import run_solver

        a = parse_component("stateless((x:int), (y:int), x >= 0 && y >= x)")
        b = parse_component("stateless((x:int), (y:int), x <= y && y <= x + 10)")
        assert run_solver(emit_smtlib(refine_vc(a, b)[0])) == "unsat"

    def test_true_goal_unsat(self, with_solver):
        from rcrs.analysis import run_solver

        assert run_solver(emit_smtlib(make_vc(TRUEC, "trivial"))) == "unsat"

    def test_quantified_goal(self, with_solver):
        from rcrs.analysis import run_solver

        g = Exists(Var("y", INT), atom(">", var("y", INT), var("x", INT)))
        assert run_solver(emit_smtlib(make_vc(g, "t"))) == "unsat"

    def test_temporal_fragment_rejected(self):
        from rcrs.analysis import Vc
        from rcrs.formulas import Finally as F_, atom as mkatom

        g = Globally(mkatom(">", var("x", INT), intc(0)))
        with pytest.raises(TemporalFragment):
            Vc(g, "first-order", "bad")
        vc = make_vc(g, "temporal goal")
        assert vc.fragment == "temporal"
        with pytest.raises(TemporalFragment):
            emit_smtlib(vc)

    def test_sat_script_differs_only_in_last_assert(self):
        from rcrs.analysis import emit_smtlib_sat

        ty = IntRange(0, 3)
        g = And(atom("<=", var("y", ty), var("x", ty)), eq(PrimedRef(Var("s", ty)), var("x", ty)))
        sat = emit_smtlib_sat(g, "p").splitlines()
        valid = emit_smtlib(make_vc(g, "p")).splitlines()
        differ = [i for i, (a, b) in enumerate(zip(sat, valid)) if a != b]
        assert len(sat) == len(valid) and differ == [len(sat) - 2]
        assert valid[-2] == f"(assert (not {sat[-2][len('(assert '):-1]}))"

    def test_division_guarded_against_zero(self):
        # x / 0 = 0 on every route
        for ty, zero in (("int", "0"), ("real", "0.0")):
            a = parse_component(f"stateless_det((x:{ty}), true, ({zero}))")
            b = parse_component(f"stateless_det((x:{ty}), true, (x / {zero}))")
            script = emit_smtlib(refine_vc(a, b)[0])
            op = "div" if ty == "int" else "/"
            assert f"(ite (= {zero} {zero}) {zero} ({op} x0 {zero}))" in script

    def test_division_by_zero_proven_by_solver(self, with_solver):
        a = parse_component("stateless_det((x:int), true, (0))")
        b = parse_component("stateless_det((x:int), true, (x / 0))")
        res = check_refines(a, b)
        assert isinstance(res, Proven) and "solver" in res.note

    def test_range_types_guarded(self):
        ty = IntRange(0, 3)
        a = Stateless(sig(("x", ty)), sig(("y", ty)), atom("<=", var("y", ty), var("x", ty)))
        vc = refine_vc(Atomic(a), Atomic(a))
        if vc[0].goal != TRUEC:
            script = emit_smtlib(vc[0])
            assert "(<= 0 x0)" in script


class TestUnknownReasons:
    # valid, but over unbounded ints, so finite evaluation only probes it
    GOAL = Implies(
        atom(">=", var("x", INT), intc(0)), atom(">", add(var("x", INT), intc(1)), intc(0))
    )

    def test_no_solver(self, no_solver):
        result, route = discharge_fo(make_vc(self.GOAL, "probe-only goal"))
        assert isinstance(result, Unknown) and route == "none"
        assert result.reason == "goal undecided without a solver"

    def test_solver_answers_unknown(self, tmp_path, monkeypatch):
        import sys

        stub = tmp_path / "unknown_solver.py"
        stub.write_text("import sys\nsys.stdin.read()\nprint('unknown')\n")
        monkeypatch.setenv("RCRS_SMT_SOLVER", f"{sys.executable} {stub}")
        result, route = discharge_fo(make_vc(self.GOAL, "probe-only goal"))
        assert isinstance(result, Unknown) and route == "none"
        assert result.reason == "solver answered unknown and finite evaluation was probe-only"

