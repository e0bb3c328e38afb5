"""Concrete syntax round trips and error reporting."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from rcrs import syntax
from rcrs.components import Atomic, Det, Fdbk, Qltl, Serial, Signature, alpha_equivalent, as_component
from rcrs.compose import atomic
from rcrs.corpus import random_det_composite, random_sts_atom
from rcrs.diagrams import load_diagram, translate
from rcrs.errors import ComponentSyntaxError, RcrsError, TypeMismatch, UnboundVariable, UnknownType
from rcrs.formulas import (
    And,
    Exists,
    Finally,
    Forall,
    Globally,
    Iff,
    Implies,
    Leads,
    Not,
    Or,
    TRUEC,
    Until,
    atom,
)
from rcrs.syntax import (
    _lex,
    formula_text,
    parse_component,
    parse_formula,
    parse_rcrs,
    print_component,
    term_text,
)
from rcrs.terms import REAL, TRUE, App, Const, NextRef, VarRef, intc
from rcrs.types import BOOL, INT, Var

ROOT = Path(__file__).resolve().parent.parent
DATA_FILES = sorted(path for d in ("tests", "perfbench") for path in (ROOT / d / "data").glob("*.rcrs"))

ROUND_TRIPS = [
    "stateless_det((x:int, y:int), true, (x + y))",
    "stateless_det((), true, (5))",
    "stateless_det((x:int), x != 0, (1 / x))",
    "det((x:int), (s:int), (0), true, (x), (s))",
    "det((x:real), (s1:real, s2:real), (0.0, 0.5), true, (s1 + x * 0.1, s2), (s1))",
    "stateless((x:int, y:int), (z:int), y != 0 && z = x / y)",
    "sts((x:int), (y:int), (s:int), s = 0, y = s && s' = s + x)",
    "sts((x:int[0..3]), (y:int[0..3]), (), true, y = x)",
    "qltl((x:bool), (y:bool), G (x -> F y))",
    "qltl((x:bool), (), G F x)",
    "qltl((x:int), (y:int), (y = 0) U G (@y = x))",
    "stateless((x:int), (y:int), forall u:int . exists v:int . v = u + x && y >= v)",
    "stateless((u:Mode{idle,busy}), (v:Mode{idle,busy}), u = idle -> v = busy)",
    "stateless((x:int), (y:int), !(x = y) <-> x != y)",
    "fdbk(stateless_det((a:int, b:int), true, (b, a + b)))",
    "stateless_det((x:int), true, (x)) ; stateless_det((x:int), true, (x, x))",
    "stateless_det((x:int), true, (x)) || stateless_det((y:bool), true, (y))",
    "stateless((r:real), (y:real), y = r * (1.0/3.0) && y > (-1.0/3.0))",
    "det((x:real), (s:real), (0.25), true, (s * (2.0/3.0) - x), (s - (-0.5)))",
    "sts((x:int), (y:int), (s:int), s = -1, s' = s - (-1) * x && y = s')",
    "qltl((x:bool, n:int), (), G (x U x) && !n = 1 && @(n + 1) > -3 && @x)",
    "stateless((x:bool), (y:bool), (forall u:int . u = u) && (x -> y) -> x <-> y)",
]


@pytest.mark.parametrize("text", ROUND_TRIPS)
def test_parse_print_round_trip(text):
    c = parse_component(text)
    printed = print_component(c)
    assert parse_component(printed) == c


def test_print_parse_alpha_identity():
    c = parse_component("stateless((a:int), (b:int), b > a)")
    again = parse_component(print_component(c))
    assert alpha_equivalent(c, again)


def test_file_bindings_and_references(tmp_path):
    text = """
    # comments are ignored
    component Add = stateless_det((x:int, y:int), true, (x + y))
    component UnitDelay = det((x:int), (s:int), (0), true, (x), (s))
    component Split = stateless_det((x:int), true, (x, x))
    component Sum = fdbk(Add ; UnitDelay ; Split)
    """
    bindings, order = parse_rcrs(text)
    assert order == ["Add", "UnitDelay", "Split", "Sum"]
    assert isinstance(bindings["Sum"], Fdbk)
    assert isinstance(bindings["Sum"].child, Serial)


def test_serial_left_associative():
    c = parse_component(
        "stateless_det((x:int), true, (x)) ; stateless_det((x:int), true, (x))"
        " ; stateless_det((x:int), true, (x))"
    )
    assert isinstance(c, Serial)
    assert isinstance(c.left, Serial)


def test_parallel_binds_tighter_than_serial():
    one = "stateless_det((x:int), true, (x))"
    c = parse_component(f"{one} || {one} ; {one} || {one}")
    assert isinstance(c, Serial)


def test_syntax_error_carries_position():
    with pytest.raises(ComponentSyntaxError) as err:
        parse_rcrs("component A = stateless_det((x:int), true, (x + ))")
    assert err.value.line == 1
    assert err.value.column is not None


def test_unknown_type():
    with pytest.raises(UnknownType):
        parse_component("stateless_det((x:float), true, (x))")


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        parse_component("stateless_det((x:int), true, (z))")


def test_unknown_component_reference():
    with pytest.raises(UnboundVariable):
        parse_rcrs("component A = Nope ; Nope")


@pytest.mark.parametrize(
    "text, cls, where, message",
    [
        # the first of several unexpected characters in text order, before
        # any parse error
        ("x $ y ? z", ComponentSyntaxError, (1, 3), "unexpected character '$'"),
        ("component A = Nope\n  $ ?", ComponentSyntaxError, (2, 3), "unexpected character '$'"),
        ("# a comment may hold $ and ?\ncomponent A = stateless((x:int), (y:int), y = x) ?",
         ComponentSyntaxError, (2, 50), "unexpected character '?'"),
        # the end of input is placed before a comment that ends the text
        ("component A = # nothing follows", ComponentSyntaxError, (1, 15), "expected a component, found ''"),
        ("component A = stateless((x:int), (y:int),\n  y = x  # the bracket stays open",
         ComponentSyntaxError, (2, 10), "expected ')', found ''"),
        ("component A = stateless_det((x:int), true, (x))\ncomponent B = A ;\n    C",
         UnboundVariable, (3, 5), "unknown component 'C'"),
        ("component A = stateless_det(\n  (x:float),\n  true, (x))", UnknownType, (2, 6),
         "expected a type, found 'float'"),
        ("component A = stateless_det((x:int), true, (x))\n\ncomponent B = stateless_det((u:int),\n  u > 0, (z))",
         UnboundVariable, (4, 11), "unknown variable 'z'"),
        ("component A = stateless_det((x:int), true, (x)) A", ComponentSyntaxError, (1, 49),
         "expected 'component', found 'A'"),
        # an empty integer range is reported at its lower bound
        ("component A = stateless_det((x:int[10..1]), true, (x))", ComponentSyntaxError, (1, 36),
         "empty integer range [10, 1]"),
        ("component A = stateless_det((x:int[0..0], y:int[\n  -2..-3]), true, (x))", ComponentSyntaxError,
         (2, 3), "empty integer range [-2, -3]"),
    ],
)
def test_error_positions(text, cls, where, message):
    with pytest.raises(cls) as err:
        parse_rcrs(text)
    assert type(err.value) is cls
    assert (err.value.line, err.value.column) == where
    assert str(err.value) == f"{where[0]}:{where[1]}: {message}"


def test_temporal_operator_precedence():
    f = parse_formula("G x -> F y", [parse_component("qltl((x:bool), (y:bool), true)").atom.inputs,
                                     parse_component("qltl((x:bool), (y:bool), true)").atom.outputs])
    # G binds tighter than ->
    from rcrs.formulas import Implies, Globally, Finally

    assert isinstance(f, Implies)
    assert isinstance(f.left, Globally)
    assert isinstance(f.right, Finally)


def test_formula_print_round_trip_nested():
    src = "qltl((x:bool), (y:bool), (x U y) U G (x || y && @x))"
    c = parse_component(src)
    assert parse_component(print_component(c)) == c


def test_leads_operator_round_trip():
    src = "qltl((x:bool), (y:bool), (x L y) && x U (x L y))"
    c = parse_component(src)
    assert parse_component(print_component(c)) == c


# The parser reads each atomic kind's fields in order; these pin the errors
# that depend on a field's position and on the signatures before it.
@pytest.mark.parametrize(
    "text,cls,message",
    [
        ("det((x:int), (s:int, t:int), 0, true, (s, t), (x))", ComponentSyntaxError,
         "1:30: expected 2 initial values"),
        ("det((x:int), (), (), true, x, (x))", ComponentSyntaxError,
         "1:28: expected an empty tuple '()'"),
        ("sts((x:int), (y:int), (s:int), x = 0, y = s && s' = x)", UnboundVariable,
         "1:32: unknown variable 'x'"),
        ("sts((x:int), (y:int), (s:int), s = 0 && y = 0, y = s && s' = x)", UnboundVariable,
         "1:41: unknown variable 'y'"),
        ("stateless_det((x:int), y = 0, (x))", UnboundVariable, "1:24: unknown variable 'y'"),
    ],
)
def test_field_errors(text, cls, message):
    with pytest.raises(cls) as err:
        parse_component(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text", ["det((x:int), (), (), true, (), ())", "stateless_det((x:int), true, ())"]
)
def test_empty_tuples_round_trip(text):
    c = parse_component(text)
    assert print_component(c) == text
    assert parse_component(print_component(c)) == c


@pytest.mark.parametrize(
    "text,signature_fields",
    [
        ("sts((x:int), (y:int), (s:int), s = 0, y = s && s' = x)", ("inputs", "outputs", "states")),
        ("stateless((x:int), (y:int), y = x)", ("inputs", "outputs")),
        ("det((x:int), (s:int), (0), true, (x), (s))", ("inputs", "states")),
        ("stateless_det((x:int), true, (x))", ("inputs",)),
        ("qltl((x:bool), (y:bool), G (x -> F y))", ("inputs", "outputs")),
    ],
)
def test_kind_keyword_and_variables(text, signature_fields):
    a = parse_component(text).atom
    assert print_component(a).startswith(a.kind().value + "(")
    assert a.all_vars() == {v for name in signature_fields for v in getattr(a, name)}


# A bracket is read once, as a formula or a term by what it holds, so an
# error inside it is reported where it is.
@pytest.mark.parametrize(
    "text,cls,message",
    [
        ("stateless((x:int), (y:int), (x > ) && y = 0)", ComponentSyntaxError,
         "1:34: expected a term, found ')'"),
        ("stateless((x:int), (y:bool), (y && x + true > 0))", TypeMismatch,
         "+ needs numeric arguments"),
        ("stateless((x:int), (y:bool), (forall u:int . u > ))", ComponentSyntaxError,
         "1:50: expected a term, found ')'"),
        ("stateless((x:int), (y:int), x + (y = 0) > 0)", ComponentSyntaxError,
         "1:33: expected a term, found '('"),
    ],
)
def test_errors_inside_brackets(text, cls, message):
    with pytest.raises(cls) as err:
        parse_component(text)
    assert str(err.value) == message


def test_real_quotient_constant_reads_back():
    third = Const(Fraction(1, 3), REAL)
    assert term_text(third) == "(1.0/3.0)"
    r = Var("r", REAL)
    f = atom("=", App("*", (VarRef(r), third)), Const(Fraction(-2, 3), REAL))
    text = formula_text(f)
    assert text == "r * (1.0/3.0) = (-2.0/3.0)"
    again = parse_formula(text, [Signature((r,))])
    assert again == f and formula_text(again) == text
    # a zero divisor stays a division
    one, zero = Const(Fraction(1), REAL), Const(Fraction(0), REAL)
    assert parse_formula("r = 1.0 / 0.0", [Signature((r,))]).args[1] == App("/", (one, zero))


def test_real_initial_value_without_decimal_form_reads_back():
    s = Var("s", REAL)
    for value in (Fraction(1, 3), Fraction(-2, 7)):
        c = Atomic(
            Det(Signature(()), Signature((s,)), (Const(value, REAL),), TRUEC, (VarRef(s),), (VarRef(s),))
        )
        text = print_component(c)
        assert parse_component(text) == c and print_component(parse_component(text)) == text
    assert print_component(c) == "det((), (s:real), ((-2.0/7.0)), true, (s), (s))"
    # a bracketed term that is no constant is still no literal
    with pytest.raises(ComponentSyntaxError, match="1:20: expected a literal of type real"):
        parse_component("det((), (s:real), ((1.0/0.0)), true, (s), (s))")


def _operator_cases():
    """Each formula connective with every operator at each operand position,
    and each arithmetic operator likewise inside a comparison, as qltl
    contracts over x, y:bool and n:int."""
    x, y, n, u = Var("x", BOOL), Var("y", BOOL), Var("n", INT), Var("u", INT)
    p, q, k = atom("=", VarRef(x), TRUE), atom("=", VarRef(y), TRUE), VarRef(n)
    terms = [
        App(s, (k, intc(1))) for s in ("+", "-", "*", "/")
    ] + [App("neg", (k,)), NextRef(k), intc(-2), Const(Fraction(1, 3), REAL), Const(Fraction(-5, 2), REAL)]
    compound = [App(s, (t, k)) for s in ("+", "-", "*", "/") for t in terms]
    compound += [App(s, (k, t)) for s in ("+", "-", "*", "/") for t in terms]
    compound += [App("neg", (t,)) for t in terms if not isinstance(t, Const)] + [NextRef(t) for t in terms]
    formulas = [atom(pred, t, k) for pred in ("=", "<") for t in compound]
    formulas += [atom(">=", k, t) for t in compound] + [atom("=", NextRef(VarRef(x)), TRUE)]
    inner = [
        *(cls(p, q) for cls in (And, Or, Implies, Iff, Until, Leads)),
        *(cls(p) for cls in (Not, Globally, Finally)),
        *(cls(u, atom(">", VarRef(u), k)) for cls in (Forall, Exists)),
        atom("!=", k, intc(0)),
        TRUEC,
    ]
    for f in inner:
        formulas += [cls(f, p) for cls in (And, Or, Implies, Iff, Until, Leads)]
        formulas += [cls(p, f) for cls in (And, Or, Implies, Iff, Until, Leads)]
        formulas += [cls(f) for cls in (Not, Globally, Finally)] + [Forall(u, f)]
    sig = Signature((x, y, n))
    return [Qltl(sig, Signature(()), f) for f in formulas]


def _round_trip_cases():
    cases = []
    for seed in range(50):
        c = random_det_composite(random.Random(seed))
        cases += [c, atomic(c), random_sts_atom(random.Random(seed))]
    for path in DATA_FILES:
        bindings, order = parse_rcrs(path.read_text())
        cases += [bindings[name] for name in order]
    return cases + _operator_cases()


def test_round_trip_coverage():
    cases = _round_trip_cases()
    assert len(cases) > 500
    for c in cases:
        text = print_component(c)
        again = parse_component(text)
        assert again == as_component(c), text
        assert print_component(again) == text


def _token_ends(text):
    ends, end = [], 0
    for gap, token, _ in _lex(text):
        end += len(gap) + len(token)
        if token:
            ends.append(end)
    return ends


@pytest.mark.parametrize("path", DATA_FILES, ids=lambda p: f"{p.parent.parent.name}/{p.name}")
def test_truncated_files_fail_at_their_end(path):
    """Every proper prefix of a file that ends at a token is either a file
    of its own or an error at its end: no error comes from inside a bracket
    read twice.  The one exception is a type name that the cut separates
    from its enum values."""
    text = path.read_text()
    for end in _token_ends(text):
        cut = text[:end]
        try:
            parse_rcrs(cut)
        except ComponentSyntaxError as e:
            if not str(e).endswith("expected a type, found 'Sw'"):
                lines = cut.split("\n")
                assert (e.line, e.column) == (len(lines), len(lines[-1]) + 1), (end, str(e))


# --- the atom table ------------------------------------------------------------


@pytest.fixture
def atoms(monkeypatch):
    """An empty atom table for the test; the process's own is put back after."""
    table = {}
    monkeypatch.setattr(syntax, "_atoms", table)
    return table


def _cold(monkeypatch, read, texts):
    """read(text) of each text with no atom kept: every atom is parsed from
    its tokens."""
    with monkeypatch.context() as m:
        m.setattr(syntax, "_ATOMS_KEPT", 0)
        return [read(text) for text in texts]


def _symbolic_texts(seed: int, count: int = 500) -> list[str]:
    """The printed terms of the first `count` queries of the `symbolic`
    benchmark workload at `seed`: per batch a random composite, then a
    translated random diagram (see `perfbench/workloads.py`)."""
    spec = importlib.util.spec_from_file_location("generators", ROOT / "perfbench" / "generators.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    texts = []
    for k in range(count // 2):
        rng = random.Random(f"symbolic:{seed}:{k}")
        c = random_det_composite(rng, 12, 2)
        diagram = load_diagram(gen.diagram_json(gen.random_diagram(rng, rng.randint(8, 14))))
        texts += [print_component(c), print_component(translate(diagram))]
    return texts


def test_kept_atoms_change_no_parse(atoms, monkeypatch):
    """Parsed with no atom kept, and then with the table filling up as they
    are read, the printed terms of the first 500 `symbolic` queries at seeds
    0 and 1 and every data file give equal terms that print the same."""
    texts = _symbolic_texts(0) + _symbolic_texts(1)
    files = [path.read_text() for path in DATA_FILES]
    cold = _cold(monkeypatch, parse_component, texts), _cold(monkeypatch, parse_rcrs, files)
    assert not atoms
    warm = [parse_component(text) for text in texts], [parse_rcrs(text) for text in files]
    assert len(atoms) == syntax._ATOMS_KEPT
    for text, a, b in zip(texts, cold[0], warm[0]):
        assert a == b
        assert print_component(a) == print_component(b) == text
    for (a, order), (b, order_b) in zip(cold[1], warm[1]):
        assert order == order_b and a == b
        assert [print_component(a[name]) for name in order] == [print_component(b[name]) for name in order]


def test_a_repeated_atom_is_one_node(atoms):
    text = "stateless_det((x:int), x > 0, (x + 1))"
    first = parse_component(text)
    assert parse_component(text) is first
    both = parse_component(f"{text} ; ({text} || {text})")
    assert both.left is both.right.left is both.right.right is first
    assert parse_rcrs(f"component A = {text}\ncomponent B = fdbk({text})")[0]["B"].child is first


def test_spellings_that_differ_in_blanks_and_comments_share_one_atom(atoms):
    a = parse_component("stateless((u:Mode{idle,busy}), (v:Mode{idle,busy}), u = idle -> v = busy)")
    b = parse_component(
        "stateless ( (u : Mode { idle , busy }) , # the outputs\n(v:Mode{idle,busy}),\n\tu=idle->v=busy )"
    )
    assert b is a
    # an enum of another name is another type
    c = parse_component("stateless((u:Gear{idle,busy}), (v:Gear{idle,busy}), u = idle -> v = busy)")
    assert c != a and len(atoms) == 2


@pytest.mark.parametrize(
    "text, cls, kept",
    [
        ("stateless_det((x:int), true, (z))", UnboundVariable, 0),
        ("det((x:int), (s:int), (0, 1), true, (x), (s))", TypeMismatch, 0),
        ("stateless_det((x:int[10..1]), true, (x))", ComponentSyntaxError, 0),
        ("stateless((x:int), (y:int), y = x ; stateless_det((x:int), true, (x)))", ComponentSyntaxError, 0),
        ("stateless_det((x:int), true, (x)", ComponentSyntaxError, 0),
        # the atom is complete and kept; the stray ')' after it fails
        ("stateless_det((x:int), true, (x)))", ComponentSyntaxError, 1),
    ],
)
def test_a_failing_atom_is_never_kept(atoms, text, cls, kept):
    for _ in range(2):
        with pytest.raises(cls):
            parse_component(text)
    assert len(atoms) == kept


def test_the_table_keeps_its_first_atoms_up_to_its_bound(atoms):
    kept = syntax._ATOMS_KEPT
    texts = [f"stateless_det((x:int), true, (x + {i}))" for i in range(kept + 20)]
    first = [parse_component(text) for text in texts]
    again = [parse_component(text) for text in texts]
    assert len(atoms) == kept
    assert all(a is b for a, b in zip(first[:kept], again[:kept]))
    assert all(a is not b and a == b for a, b in zip(first[kept:], again[kept:]))


@pytest.mark.parametrize(
    "text",
    [
        "stateless((u:Mode{idle,busy}), (v:Mode{idle,busy}), u = idle -> v = busy)",
        "det((m:Mode{idle,busy}), (s:Mode{idle,busy}), (busy), m = idle, (m), (s))",
        "det((x:real), (s1:real, s2:real), (0.0, 0.5), true, (s1 + x * 0.1, s2), (s1))",
        "det((x:real), (s:real), (0.25), true, (s * (2.0/3.0) - x), (s - (-0.5)))",
        "det((), (s:real), ((-2.0/7.0)), true, (s), (s))",
        "stateless((r:real), (y:real), y = r * (1.0/3.0) && y > (-1.0/3.0))",
    ],
)
def test_kept_atoms_with_enums_and_reals_round_trip(atoms, monkeypatch, text):
    (cold,) = _cold(monkeypatch, parse_component, [text])
    first = parse_component(text)
    assert parse_component(text) is first and first == cold
    assert print_component(first) == print_component(cold) == text


def _cut_outcomes(texts) -> list:
    """For each cut of each text at a token end: the bindings and order
    `parse_rcrs` reads, or its error's class, line, column and text."""
    outcomes = []
    for text in texts:
        for end in _token_ends(text):
            try:
                outcomes.append(parse_rcrs(text[:end]))
            except RcrsError as e:
                outcomes.append((type(e), getattr(e, "line", None), getattr(e, "column", None), str(e)))
    return outcomes


def test_truncations_read_the_same_with_a_warm_table(atoms, monkeypatch):
    """Every cut at a token end of the data files and of 40 printed
    `random_sts_atom` bindings: the same bindings or the same error with no
    atom kept and with the complete atoms kept."""
    rng = random.Random(0)
    sts = "".join(f"component S{i} = {print_component(random_sts_atom(rng))}\n" for i in range(40))
    texts = [path.read_text() for path in DATA_FILES] + [sts]
    (cold,) = _cold(monkeypatch, _cut_outcomes, [texts])
    for text in texts:
        parse_rcrs(text)
    warm = _cut_outcomes(texts)
    assert len(cold) == 2666
    assert sum(isinstance(o, tuple) and len(o) == 4 for o in cold) > 1000
    assert warm == cold
