"""Concrete syntax round trips and error reporting."""

import pytest

from rcrs.components import Fdbk, Serial, alpha_equivalent
from rcrs.errors import ComponentSyntaxError, UnboundVariable, UnknownType
from rcrs.syntax import (
    formula_text,
    parse_component,
    parse_formula,
    parse_rcrs,
    print_component,
)

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
