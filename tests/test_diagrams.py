"""Block-diagram ingestion: the block library, translation shape, loop
handling, and dataflow adequacy against direct simulation."""

import json
import random
import sys
from pathlib import Path

import pytest

from rcrs import diagrams
from rcrs.components import Atomic, Fdbk, Parallel, Serial, alpha_equivalent
from rcrs.compose import atomic, determ, loop_free
from rcrs.diagrams import (
    Block,
    BlockDiagram,
    Wire,
    library_block,
    load_diagram,
    translate,
)
from rcrs.errors import AlgebraicLoop, BadParams, PortMismatch, RcrsError, UnknownBlock
from rcrs.oracle import FiniteDomain, exec_det
from rcrs.syntax import parse_component, print_component
from rcrs.types import BOOL, INT


SUM_JSON = json.dumps(
    {
        "blocks": [
            {"id": "add", "kind": "Add", "params": {"ty": "int"}},
            {"id": "delay", "kind": "UnitDelay", "params": {"ty": "int", "init": 0}},
            {"id": "split", "kind": "Split", "params": {"ty": "int"}},
        ],
        "wires": [
            {"src": ["add", 0], "dst": ["delay", 0]},
            {"src": ["delay", 0], "dst": ["split", 0]},
            {"src": ["split", 0], "dst": ["add", 0]},
        ],
        "inputs": [["add", 1]],
        "outputs": [["split", 1]],
    }
)


class TestLibrary:
    def test_unit_delay(self, unit_delay):
        b = library_block("UnitDelay", {"ty": "int", "init": 0})
        assert alpha_equivalent(Atomic(b), Atomic(unit_delay))

    def test_const(self):
        b = library_block("Const", {"ty": "int", "c": 5})
        assert len(b.inputs) == 0
        assert exec_det(Atomic(b), ((), (),)) == ((5,), (5,))

    def test_integrator(self):
        b = library_block("Integrator", {"dt": 0.1})
        out = exec_det(Atomic(b), ((10,), (10,), (0,)))
        from fractions import Fraction

        assert out == ((Fraction(0),), (Fraction(1),), (Fraction(2),))

    def test_transfer_fcn_output(self):
        b = library_block("TransferFcn", {"dt": 0.01})
        out = exec_det(Atomic(b), ((1,),))
        # y = -8*s1 + 2*x with s1 = 0 initially
        assert out[0][0] == 2

    def test_unknown_block(self):
        with pytest.raises(UnknownBlock):
            library_block("Quux")

    def test_bad_params(self):
        with pytest.raises(BadParams):
            library_block("Const", {"ty": "int"})
        with pytest.raises(BadParams):
            library_block("Gain", {})


class TestTranslate:
    def test_delayed_sum_matches_worked_example(self):
        term = translate(load_diagram(SUM_JSON))
        assert determ(term) and loop_free(term)
        a = atomic(term)
        expected = parse_component("det((y:int), (s:int), (0), true, (s + y), (s))")
        assert alpha_equivalent(Atomic(a), expected)

    def test_delayed_sum_simulation(self, small_int_domain):
        term = translate(load_diagram(SUM_JSON))
        assert exec_det(term, ((1,), (1,), (1,), (1,))) == ((0,), (1,), (2,), (3,))

    def test_switch_figure_shape(self):
        text = json.dumps(
            {
                "blocks": [
                    {"id": "a", "kind": "Split", "params": {"ty": "int"}},
                    {"id": "b", "kind": "Swap", "params": {"ty": "int"}},
                    {"id": "c", "kind": "Add", "params": {"ty": "int"}},
                ],
                "wires": [
                    {"src": ["a", 0], "dst": ["b", 0]},
                    {"src": ["a", 1], "dst": ["b", 1]},
                    {"src": ["b", 0], "dst": ["c", 0]},
                    {"src": ["a", 0], "dst": ["c", 1]},
                ],
                "inputs": [["a", 0]],
                "outputs": [["c", 0], ["b", 1]],
            }
        )
        term = translate(load_diagram(text))

        def shape(c):
            if isinstance(c, Serial):
                return shape(c.left) + shape(c.right)
            if isinstance(c, Parallel):
                return ["par"]
            if isinstance(c, Atomic):
                return ["atom"]
            if isinstance(c, Fdbk):
                return ["fdbk"]

        assert shape(term) == ["atom", "atom", "par", "atom", "par"]
        # the two routers are exactly the worked switching components
        r1 = term.left.left.left.right.atom
        s1 = parse_component("stateless_det((x:int, y:int), true, (x, y, x))").atom
        assert alpha_equivalent(Atomic(r1), Atomic(s1))
        r2 = term.left.right.atom
        s2 = parse_component("stateless_det((u:int, v:int, x:int), true, (u, x, v))").atom
        assert alpha_equivalent(Atomic(r2), Atomic(s2))

    def test_single_block_no_wires(self):
        text = json.dumps(
            {
                "blocks": [{"id": "g", "kind": "Gain", "params": {"ty": "int", "k": 3}}],
                "wires": [],
                "inputs": [["g", 0]],
                "outputs": [["g", 0]],
            }
        )
        term = translate(load_diagram(text))
        assert isinstance(term, Atomic)
        assert exec_det(term, ((2,),)) == ((6,),)

    def test_empty_diagram(self):
        term = translate(load_diagram('{"blocks": [], "wires": [], "inputs": [], "outputs": []}'))
        assert isinstance(term, Atomic)

    def test_algebraic_loop_detected(self):
        text = json.dumps(
            {
                "blocks": [
                    {"id": "g1", "kind": "Gain", "params": {"ty": "int", "k": 1}},
                    {"id": "g2", "kind": "Gain", "params": {"ty": "int", "k": 1}},
                ],
                "wires": [
                    {"src": ["g1", 0], "dst": ["g2", 0]},
                    {"src": ["g2", 0], "dst": ["g1", 0]},
                ],
                "inputs": [],
                "outputs": [["g1", 0]],
            }
        )
        with pytest.raises(AlgebraicLoop) as err:
            translate(load_diagram(text))
        assert set(err.value.cycle) == {"g1", "g2"}

    def test_port_mismatches(self):
        base = {
            "blocks": [{"id": "g", "kind": "Gain", "params": {"ty": "int", "k": 1}}],
            "wires": [],
            "inputs": [["g", 0]],
            "outputs": [["g", 0]],
        }
        undriven = dict(base, inputs=[])
        with pytest.raises(PortMismatch):
            translate(load_diagram(json.dumps(undriven)))
        twice = dict(base, inputs=[["g", 0], ["g", 0]])
        with pytest.raises(PortMismatch):
            translate(load_diagram(json.dumps(twice)))
        out_of_range = dict(base, outputs=[["g", 3]])
        with pytest.raises(PortMismatch):
            translate(load_diagram(json.dumps(out_of_range)))

    def test_type_mismatch_on_wire(self):
        text = json.dumps(
            {
                "blocks": [
                    {"id": "a", "kind": "Gain", "params": {"ty": "int", "k": 1}},
                    {"id": "b", "kind": "Gain", "params": {"ty": "real", "k": 1}},
                ],
                "wires": [{"src": ["a", 0], "dst": ["b", 0]}],
                "inputs": [["a", 0]],
                "outputs": [["b", 0]],
            }
        )
        with pytest.raises(PortMismatch):
            translate(load_diagram(text))

    def test_subsystem_flattening(self):
        text = json.dumps(
            {
                "blocks": [
                    {
                        "id": "sub",
                        "subsystem": {
                            "blocks": [
                                {"id": "d", "kind": "UnitDelay", "params": {"ty": "int"}}
                            ],
                            "wires": [],
                            "inputs": [["d", 0]],
                            "outputs": [["d", 0]],
                        },
                    },
                    {"id": "g", "kind": "Gain", "params": {"ty": "int", "k": 2}},
                ],
                "wires": [{"src": ["sub", 0], "dst": ["g", 0]}],
                "inputs": [["sub", 0]],
                "outputs": [["g", 0]],
            }
        )
        term = translate(load_diagram(text))
        assert exec_det(term, ((3,), (5,))) == ((0,), (6,))

    def test_block_order_independent(self):
        data = json.loads(SUM_JSON)
        data["blocks"] = list(reversed(data["blocks"]))
        reordered = translate(load_diagram(json.dumps(data)))
        original = translate(load_diagram(SUM_JSON))
        assert reordered == original


def _gain(bid, k=1, ty="int"):
    return {"id": bid, "kind": "Gain", "params": {"ty": ty, "k": k}}


def _one_gain(**changes):
    """A one-Gain diagram with some of its keys replaced."""
    return dict({"blocks": [_gain("g")], "wires": [], "inputs": [["g", 0]], "outputs": [["g", 0]]}, **changes)


def _inner_gain(**changes):
    """A one-Gain subsystem s with one input and one output."""
    return {"id": "s", "subsystem": _one_gain(**changes)}


MALFORMED = {
    "block without id": (_one_gain(blocks=[{"kind": "Gain", "params": {"ty": "int", "k": 1}}]), BadParams),
    "block id not a string": (_one_gain(blocks=[dict(_gain("g"), id=7)]), BadParams),
    "block neither kind nor subsystem": (_one_gain(blocks=[{"id": "g"}]), BadParams),
    "kind not a string": (_one_gain(blocks=[dict(_gain("g"), kind=["Gain"])]), UnknownBlock),
    "params not an object": (_one_gain(blocks=[dict(_gain("g"), params="x")]), BadParams),
    "real parameter not a number": (_one_gain(blocks=[_gain("g", k="x", ty="real")]), BadParams),
    "top-level list": ([_gain("g")], BadParams),
    "blocks not a list": (_one_gain(blocks=5), BadParams),
    "wire not an object": (_one_gain(wires=[["g", 0]]), BadParams),
    "wire without dst": (
        {"blocks": [_gain("a"), _gain("b")], "wires": [{"src": ["a", 0]}], "inputs": [["a", 0]],
         "outputs": [["b", 0]]},
        PortMismatch,
    ),
    "port without number": (_one_gain(inputs=[["g"]]), PortMismatch),
    "port number a bool": (_one_gain(inputs=[["g", False]]), PortMismatch),
    "negative output port": (_one_gain(outputs=[["g", -1]]), PortMismatch),
    "negative wire source": (
        {"blocks": [_gain("a"), _gain("b")], "wires": [{"src": ["a", -1], "dst": ["b", 0]}],
         "inputs": [["a", 0]], "outputs": [["b", 0]]},
        PortMismatch,
    ),
    "external input past a subsystem's ports": (
        {"blocks": [_inner_gain()], "inputs": [["s", 3]], "outputs": [["s", 0]]},
        PortMismatch,
    ),
    "external output past a subsystem's ports": (
        {"blocks": [_inner_gain()], "inputs": [["s", 0]], "outputs": [["s", 1]]},
        PortMismatch,
    ),
    "inner wire from an unknown block": (
        {
            "blocks": [_inner_gain(inputs=[], wires=[{"src": ["nope", 0], "dst": ["g", 0]}])],
            "inputs": [],
            "outputs": [["s", 0]],
        },
        PortMismatch,
    ),
}


class TestMalformedDiagrams:
    """Each malformed diagram raises a usage error (exit 3), not an internal
    failure."""

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_rejected(self, name):
        data, error = MALFORMED[name]
        with pytest.raises(error):
            translate(load_diagram(json.dumps(data)))

    def test_messages(self):
        def message(name):
            with pytest.raises(RcrsError) as err:
                translate(load_diagram(json.dumps(MALFORMED[name][0])))
            return str(err.value)

        assert message("negative output port") == "port ['g', -1] is not a [block id, port >= 0] pair"
        assert message("external input past a subsystem's ports") == "subsystem s has no input port 3"
        assert message("external output past a subsystem's ports") == "subsystem s has no output port 1"
        assert message("inner wire from an unknown block") == (
            "wire Wire(src=('s/nope', 0), dst=('s/g', 0)) references an unknown block"
        )
        assert message("top-level list") == "a diagram must be a JSON object"


class TestDuplicateIds:
    def test_two_blocks_one_id(self):
        data = {
            "blocks": [_gain("g", 2), _gain("g", 3)],
            "wires": [],
            "inputs": [["g", 0]],
            "outputs": [["g", 0]],
        }
        with pytest.raises(BadParams, match=r"duplicate block ids \['g'\]"):
            translate(load_diagram(json.dumps(data)))

    def test_outer_block_named_like_an_inner_one(self):
        data = {
            "blocks": [_inner_gain(), _gain("s/g")],
            "wires": [{"src": ["s", 0], "dst": ["s/g", 0]}],
            "inputs": [["s", 0]],
            "outputs": [["s/g", 0]],
        }
        with pytest.raises(BadParams, match=r"duplicate block ids \['s/g'\]"):
            translate(load_diagram(json.dumps(data)))

    def test_same_inner_ids_in_two_subsystems(self):
        data = {
            "blocks": [_inner_gain(), dict(_inner_gain(), id="t")],
            "wires": [{"src": ["s", 0], "dst": ["t", 0]}],
            "inputs": [["s", 0]],
            "outputs": [["t", 0]],
        }
        term = translate(load_diagram(json.dumps(data)))
        assert exec_det(term, ((2,),)) == ((2,),)


class TestDataflowAdequacy:
    """Random diagrams over deterministic library blocks: the translated term
    behaves exactly like direct per-step dataflow simulation."""

    def _random_chain_diagram(self, rng: random.Random):
        """A random acyclic single-wire-width diagram over int blocks."""
        n = rng.randint(2, 4)
        kinds = ["Gain", "UnitDelay", "Id"]
        blocks = [
            {
                "id": f"b{i}",
                "kind": rng.choice(kinds),
                "params": {"ty": "int", "k": rng.randint(-2, 2)},
            }
            for i in range(n)
        ]
        for b in blocks:
            if b["kind"] != "Gain":
                b["params"].pop("k")
        wires = [
            {"src": [f"b{i}", 0], "dst": [f"b{i+1}", 0]} for i in range(n - 1)
        ]
        return json.dumps(
            {
                "blocks": blocks,
                "wires": wires,
                "inputs": [["b0", 0]],
                "outputs": [[f"b{n-1}", 0]],
            }
        )

    def _simulate_dataflow(self, text: str, trace):
        """Direct topological per-step evaluation, independent of translate."""
        data = json.loads(text)
        blocks = {b["id"]: b for b in data["blocks"]}
        state = {bid: 0 for bid, b in blocks.items() if b["kind"] == "UnitDelay"}
        order = [b["id"] for b in data["blocks"]]  # chains are listed in order
        outs = []
        for step in trace:
            values = {}
            ext = {tuple(p): v for p, v in zip(map(tuple, data["inputs"]), step)}
            for bid in order:
                b = blocks[bid]
                drv = [w for w in data["wires"] if w["dst"][0] == bid]
                if drv:
                    xin = values[tuple(drv[0]["src"])]
                else:
                    xin = ext[(bid, 0)]
                if b["kind"] == "Gain":
                    values[(bid, 0)] = b["params"]["k"] * xin
                elif b["kind"] == "Id":
                    values[(bid, 0)] = xin
                else:  # UnitDelay
                    values[(bid, 0)] = state[bid]
                    state[bid] = xin
            outs.append(tuple(values[tuple(p)] for p in map(tuple, data["outputs"])))
        return tuple(outs)

    def test_random_chains_agree(self):
        rng = random.Random(71)
        for _ in range(20):
            text = self._random_chain_diagram(rng)
            term = translate(load_diagram(text))
            for trace_seed in range(3):
                trng = random.Random(trace_seed)
                trace = tuple((trng.randint(-2, 2),) for _ in range(4))
                assert exec_det(term, trace) == self._simulate_dataflow(text, trace)


# --- translation golden -------------------------------------------------------
#
# `tests/data/translate_golden.json` pins the printed term, or the error class
# and message, of TRANSLATE_SEEDS seeded diagrams: flat ones with feedback
# wires, ones with one- and two-level subsystems, and port-shift mutants.  It
# was computed before `translate` read each signal's type and last use once.
# Regenerate it only for a deliberate change of translation, with
# `python tests/test_diagrams.py --write`.

GOLDEN = Path(__file__).parent / "data" / "translate_golden.json"
TRANSLATE_SEEDS = range(200)

_ARITY = {
    "Add": (2, 1),
    "Const": (0, 1),
    "Gain": (1, 1),
    "Id": (1, 1),
    "Split": (1, 2),
    "Sub": (2, 1),
    "Swap": (2, 2),
    "UnitDelay": (1, 1),
}


def flat_spec(rng: random.Random, n_blocks: int) -> dict:
    """Int blocks whose input ports are driven by earlier outputs or external
    inputs.  Some external inputs are then fed back from a later output:
    mostly a unit delay's, otherwise any, which may close a same-step cycle.
    Blocks and wires are listed in a random order."""
    blocks, wires, inputs, produced = [], [], [], []
    for j in range(n_blocks):
        kind = rng.choice(sorted(_ARITY))
        params = {"ty": "int"}
        if kind == "Gain":
            params["k"] = rng.randint(-2, 3)
        elif kind == "Const":
            params["c"] = rng.randint(-2, 2)
        elif kind == "UnitDelay":
            params["init"] = rng.randint(-1, 1)
        blocks.append({"id": f"b{j}", "kind": kind, "params": params})
        n_in, n_out = _ARITY[kind]
        for p in range(n_in):
            if produced and rng.random() < 0.6:
                _, bid, q = rng.choice(produced)
                wires.append({"src": [bid, q], "dst": [f"b{j}", p]})
            else:
                inputs.append([f"b{j}", p])
        produced += [(j, f"b{j}", p) for p in range(n_out)]
    delays = {b["id"] for b in blocks if b["kind"] == "UnitDelay"}
    for port in list(inputs):
        later = [(bid, p) for j, bid, p in produced if j > int(port[0][1:])]
        if later and rng.random() < 0.4:
            preferred = [s for s in later if s[0] in delays]
            src = rng.choice(preferred if preferred and rng.random() < 0.75 else later)
            inputs.remove(port)
            wires.append({"src": list(src), "dst": port})
    outputs = [[bid, p] for _, bid, p in rng.sample(produced, min(len(produced), rng.randint(1, 2)))]
    rng.shuffle(blocks)
    rng.shuffle(wires)
    return {"blocks": blocks, "wires": wires, "inputs": inputs, "outputs": outputs}


def wrap(rng: random.Random, spec: dict, name: str) -> dict:
    """Move a run of `spec`'s blocks into a subsystem `name`.  Each port that
    a wire or an external port crosses the boundary at becomes one subsystem
    port, numbered in the order the crossings are listed."""
    ids = [b["id"] for b in spec["blocks"]]
    i = rng.randrange(len(ids))
    inside = set(ids[i : rng.randint(i + 1, len(ids))])
    inner = {"blocks": [b for b in spec["blocks"] if b["id"] in inside], "wires": [], "inputs": [], "outputs": []}
    ports = {"inputs": {}, "outputs": {}}

    def cross(side, ref):
        key = tuple(ref)
        if key not in ports[side]:
            ports[side][key] = len(inner[side])
            inner[side].append(ref)
        return [name, ports[side][key]]

    wires = []
    for w in spec["wires"]:
        src_in, dst_in = w["src"][0] in inside, w["dst"][0] in inside
        if src_in and dst_in:
            inner["wires"].append(w)
            continue
        src = cross("outputs", w["src"]) if src_in else w["src"]
        dst = cross("inputs", w["dst"]) if dst_in else w["dst"]
        wires.append({"src": src, "dst": dst})
    return {
        "blocks": [b for b in spec["blocks"] if b["id"] not in inside] + [{"id": name, "subsystem": inner}],
        "wires": wires,
        "inputs": [cross("inputs", p) if p[0] in inside else p for p in spec["inputs"]],
        "outputs": [cross("outputs", p) if p[0] in inside else p for p in spec["outputs"]],
    }


def _port_refs(spec: dict) -> list:
    refs = [w[end] for w in spec["wires"] for end in ("src", "dst")]
    refs += spec["inputs"] + spec["outputs"]
    for b in spec["blocks"]:
        if "subsystem" in b:
            refs += _port_refs(b["subsystem"])
    return refs


def golden_spec(seed: int) -> tuple[str, dict]:
    """The seed's diagram: flat, one-level, two-level or port-shifted."""
    rng = random.Random(seed)
    spec = flat_spec(rng, rng.randint(1, 8))
    shape = ("flat", "one-level", "two-level", "shifted")[seed % 4]
    levels = {"flat": 0, "one-level": 1, "two-level": 2}.get(shape, seed // 4 % 3)
    if levels:
        spec = wrap(rng, spec, "s")
    if levels == 2:
        sub = next(b for b in spec["blocks"] if b["id"] == "s")
        sub["subsystem"] = wrap(rng, sub["subsystem"], "t")
    if shape == "shifted":
        refs = _port_refs(spec)
        if refs:
            ref = rng.choice(refs)
            ref[1] += 1 if ref[1] == 0 or rng.random() < 0.5 else -1
    return f"{shape} {seed}", spec


def translation_text(text: str) -> str:
    try:
        return print_component(translate(load_diagram(text)))
    except RcrsError as e:
        return f"error {type(e).__name__}: {e}"


def golden_entries():
    return [[label, translation_text(json.dumps(spec))] for label, spec in map(golden_spec, TRANSLATE_SEEDS)]


def dumps(entries) -> str:
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


def _leaves(c) -> list:
    """The atomic leaves of a term, left to right."""
    if isinstance(c, Atomic):
        return [c]
    if isinstance(c, Fdbk):
        return _leaves(c.child)
    return _leaves(c.left) + _leaves(c.right)


class TestRouterSharing:
    @pytest.fixture
    def routers(self, monkeypatch):
        """An empty router table for the test; the process's own is put back
        after."""
        table = {}
        monkeypatch.setattr(diagrams, "_routers", table)
        return table

    def test_a_second_translation_shares_every_router(self, routers):
        """One diagram translated twice gives equal terms; each router of the
        second is the first's, each block a node of its own."""
        shared = 0
        for seed in range(40):
            rng = random.Random(seed)
            text = json.dumps(flat_spec(rng, rng.randint(2, 8)))
            try:
                first = translate(load_diagram(text))
            except AlgebraicLoop:
                continue
            second = translate(load_diagram(text))
            assert second == first
            kept = {id(r) for r in routers.values()}
            for a, b in zip(_leaves(first), _leaves(second)):
                assert (a is b) == (id(a) in kept)
                shared += a is b
        assert shared > 40 and len(routers) < diagrams._ROUTERS_KEPT

    def test_one_router_per_bus_types_and_route(self, routers):
        ints = {s: INT for s in "abc"}
        swap = diagrams._router(["a", "b"], ["b", "a"], ints)
        assert diagrams._router(["c", "a"], ["a", "c"], ints) is swap
        assert diagrams._router(["a", "b"], ["a", "b"], ints) != swap
        assert diagrams._router(["a", "b"], ["b", "a"], {"a": INT, "b": BOOL}) != swap
        assert print_component(swap) == "stateless_det((v0:int, v1:int), true, (v1, v0))"
        assert len(routers) == 3

    def test_the_table_keeps_its_first_routers_up_to_its_bound(self, routers):
        kept = diagrams._ROUTERS_KEPT
        routes = [["a"] * n for n in range(kept + 10)]
        first = [diagrams._router(["a"], route, {"a": INT}) for route in routes]
        again = [diagrams._router(["a"], route, {"a": INT}) for route in routes]
        assert len(routers) == kept
        assert all(a is b for a, b in zip(first[:kept], again[:kept]))
        assert all(a is not b and a == b for a, b in zip(first[kept:], again[kept:]))


class TestTranslationGolden:
    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(GOLDEN.read_text())

    def test_terms_are_pinned(self, pinned):
        got = golden_entries()
        assert [label for label, _ in got] == [label for label, _ in pinned]
        for (label, text), (_, want) in zip(got, pinned):
            assert text == want, label

    def test_pinned_set_reaches_each_path(self, pinned):
        texts = [text for _, text in pinned]
        assert any(t.startswith("fdbk(fdbk(") for t in texts)
        for message in (
            "AlgebraicLoop: same-step dependency cycle",
            "PortMismatch: subsystem s",
            "is out of port range",
            "is driven twice",
            "targets an unknown port",
            "external output references an unknown port",
        ):
            assert any(message in t for t in texts), message
        assert sum(not t.startswith("error") for t in texts) >= 100


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_diagrams.py --write")
    GOLDEN.write_text(dumps(golden_entries()))
