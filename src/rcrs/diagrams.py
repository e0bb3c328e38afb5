"""Hierarchical block diagrams and their translation into component terms:
a built-in library of basic blocks, subsystem flattening, topological layering
with synthesized routing components, and feedback-last loop closure."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import partial, reduce
from fractions import Fraction
from typing import Optional, Union

from .components import (
    Atomic,
    AtomicComponent,
    Component,
    Det,
    Fdbk,
    Parallel,
    Serial,
    Signature,
    StatelessDet,
    sig,
)
from .compose import oi
from .errors import AlgebraicLoop, BadParams, PortMismatch, UnknownBlock
from .formulas import TRUEC, atom
from .terms import App, Const, VarRef, add, mul, sub, type_of, var
from .types import BOOL, INT, REAL, SemType, Var


_TYPES = {"int": INT, "real": REAL, "bool": BOOL}


def _numeric(name: str, params: dict) -> SemType:
    ty = params.get("ty", "real")
    if not isinstance(ty, str) or ty not in _TYPES:
        raise BadParams(f"{name}: unknown type parameter {ty!r}")
    return _TYPES[ty]


def _value_const(value, ty: SemType) -> Const:
    if ty == INT:
        if not isinstance(value, int) or isinstance(value, bool):
            raise BadParams(f"expected an int literal, got {value!r}")
        return Const(value, INT)
    if ty == REAL:
        try:
            return Const(Fraction(str(value)), REAL)
        except ValueError:
            raise BadParams(f"expected a real literal, got {value!r}") from None
    if ty == BOOL:
        if not isinstance(value, bool):
            raise BadParams(f"expected a bool literal, got {value!r}")
        return Const(value, BOOL)
    raise BadParams(f"no literal of type {ty.short()}")


def _required(params: dict, block: str, key: str, what: str, ty: SemType) -> Const:
    if key not in params:
        raise BadParams(f"{block} needs {what} parameter {key}")
    return _value_const(params[key], ty)


# the blocks without state over inputs x (and y) of the `ty` parameter's type:
# their number of inputs and their output terms
_STATELESS = {
    "Add": (2, lambda x, y: (add(x, y),)),
    "Sub": (2, lambda x, y: (sub(x, y),)),
    "Split": (1, lambda x: (x, x)),
    "Swap": (2, lambda x, y: (y, x)),
    "Id": (1, lambda x: (x,)),
}


def _lib_stateless(name: str, params: dict) -> StatelessDet:
    ty = _numeric(name, params)
    arity, outputs = _STATELESS[name]
    xs = [var(n, ty) for n in "xy"[:arity]]
    return StatelessDet(Signature(tuple(x.var for x in xs)), TRUEC, outputs(*xs))


def _lib_unit_delay(params):
    ty = _numeric("UnitDelay", params)
    init = _value_const(params.get("init", 0 if ty is INT else 0.0), ty)
    return Det(sig(("x", ty)), sig(("s", ty)), (init,), TRUEC, (var("x", ty),), (var("s", ty),))


def _lib_const(params):
    c = _required(params, "Const", "c", "a value", _numeric("Const", params))
    return StatelessDet(Signature(()), TRUEC, (c,))


def _lib_div(params):
    ty = _numeric("Div", params)
    x, y = var("x", ty), var("y", ty)
    zero = Const(0, INT) if ty is INT else Const(Fraction(0), REAL)
    return StatelessDet(sig(("x", ty), ("y", ty)), atom("!=", y, zero), (App("/", (x, y)),))


def _lib_gain(params):
    ty = _numeric("Gain", params)
    k = _required(params, "Gain", "k", "a factor", ty)
    return StatelessDet(sig(("x", ty)), TRUEC, (mul(k, var("x", ty)),))


def _lib_integrator(params):
    dt = _required(params, "Integrator", "dt", "a step", REAL)
    x, s = var("x", REAL), var("s", REAL)
    zero = Const(Fraction(0), REAL)
    return Det(sig(("x", REAL)), sig(("s", REAL)), (zero,), TRUEC, (add(s, mul(x, dt)),), (s,))


def _lib_transfer_fcn(params):
    dt = _required(params, "TransferFcn", "dt", "a step", REAL)
    x = var("x", REAL)
    s1, s2 = var("s1", REAL), var("s2", REAL)

    def r(v):
        return Const(Fraction(v), REAL)

    next1 = add(s1, mul(add(add(mul(r(-4), s1), mul(r(-2), s2)), x), dt))
    next2 = add(s2, mul(s1, dt))
    out = add(mul(r(-8), s1), mul(r(2), x))
    states = sig(("s1", REAL), ("s2", REAL))
    return Det(sig(("x", REAL)), states, (r(0), r(0)), TRUEC, (next1, next2), (out,))


LIBRARY = {
    **{name: partial(_lib_stateless, name) for name in _STATELESS},
    "UnitDelay": _lib_unit_delay,
    "Const": _lib_const,
    "Div": _lib_div,
    "Gain": _lib_gain,
    "Integrator": _lib_integrator,
    "TransferFcn": _lib_transfer_fcn,
}


def library_block(name: str, params: dict = None) -> AtomicComponent:
    if not isinstance(name, str) or name not in LIBRARY:
        raise UnknownBlock(f"unknown library block {name!r}")
    return LIBRARY[name](dict(params or {}))


@dataclass(frozen=True)
class Block:
    id: str
    kind: Optional[str] = None
    params: dict = field(default_factory=dict)
    subsystem: Optional["BlockDiagram"] = None

    def __post_init__(self):
        if (self.kind is None) == (self.subsystem is None):
            raise BadParams(f"block {self.id}: exactly one of kind/subsystem required")


@dataclass(frozen=True)
class Wire:
    src: tuple[str, int]  # (block id, output port)
    dst: tuple[str, int]  # (block id, input port)


@dataclass(frozen=True)
class BlockDiagram:
    blocks: tuple[Block, ...]
    wires: tuple[Wire, ...]
    inputs: tuple[tuple[str, int], ...]  # external input -> (block, in port)
    outputs: tuple[tuple[str, int], ...]  # (block, out port) -> external output


def load_diagram(text: str) -> BlockDiagram:
    """JSON with keys blocks, wires, inputs, outputs; ports are 0-based.  A
    block is an object with a string id and either a library kind (with an
    object of params) or a subsystem; a port is a [block id, port] pair."""
    return _diagram(json.loads(text))


def _json(data, kind: type, what: str):
    if not isinstance(data, kind):
        raise BadParams(f"{what} must be a JSON {'object' if kind is dict else 'list'}")
    return data


def _port(ref) -> tuple[str, int]:
    if isinstance(ref, list) and len(ref) == 2 and isinstance(ref[0], str):
        if type(ref[1]) is int and ref[1] >= 0:
            return tuple(ref)
    raise PortMismatch(f"port {ref!r} is not a [block id, port >= 0] pair")


def _block(entry) -> Block:
    bid = _json(entry, dict, "a block").get("id")
    if not isinstance(bid, str):
        raise BadParams(f"a block needs a string id, not {bid!r}")
    if "subsystem" in entry:
        return Block(bid, subsystem=_diagram(entry["subsystem"]))
    params = _json(entry.get("params", {}), dict, f"block {bid}: params")
    return Block(bid, kind=entry.get("kind"), params=params)


def _diagram(data) -> BlockDiagram:
    data = _json(data, dict, "a diagram")
    blocks, wires, inputs, outputs = (
        _json(data.get(key, []), list, key) for key in ("blocks", "wires", "inputs", "outputs")
    )
    return BlockDiagram(
        tuple(map(_block, blocks)),
        tuple(Wire(_port(_json(w, dict, "a wire").get("src")), _port(w.get("dst"))) for w in wires),
        tuple(map(_port, inputs)),
        tuple(map(_port, outputs)),
    )


def flatten(d: BlockDiagram) -> BlockDiagram:
    """Inline subsystems bottom-up, prefixing inner block ids: each subsystem
    has one port map, and the outer wires, inputs and outputs are mapped
    through it once.  A reference to a missing subsystem port is reported
    after that subsystem's own flattening, before any later subsystem's."""
    sizes = {
        b.id: {"input": len(b.subsystem.inputs), "output": len(b.subsystem.outputs)}
        for b in d.blocks
        if b.subsystem is not None
    }
    refs = [r for w in d.wires for r in ((w.dst, "input"), (w.src, "output"))]
    refs += [(r, "input") for r in d.inputs] + [(r, "output") for r in d.outputs]
    missing: dict[str, str] = {}
    for (bid, port), side in refs:
        if bid in sizes and port >= sizes[bid][side]:
            missing.setdefault(bid, f"subsystem {bid} has no {side} port {port}")
    blocks, inner_wires, ports = [], [], {}
    for b in d.blocks:
        if b.subsystem is None:
            blocks.append(b)
            continue
        inner = flatten(b.subsystem)
        if b.id in missing:
            raise PortMismatch(missing[b.id])
        prefix = f"{b.id}/"
        blocks += (Block(prefix + ib.id, kind=ib.kind, params=ib.params) for ib in inner.blocks)
        inner_wires += (
            Wire((prefix + w.src[0], w.src[1]), (prefix + w.dst[0], w.dst[1])) for w in inner.wires
        )
        ports[b.id] = {
            side: tuple((prefix + bid, port) for bid, port in inner_refs)
            for side, inner_refs in (("input", inner.inputs), ("output", inner.outputs))
        }

    def mapped(ref, side):
        return ports[ref[0]][side][ref[1]] if ref[0] in ports else ref

    return BlockDiagram(
        tuple(blocks),
        tuple(Wire(mapped(w.src, "output"), mapped(w.dst, "input")) for w in d.wires)
        + tuple(inner_wires),
        tuple(mapped(r, "input") for r in d.inputs),
        tuple(mapped(r, "output") for r in d.outputs),
    )


# one router per bus types and route: the first _ROUTERS_KEPT made are kept
# and shared, and none is evicted
_ROUTERS_KEPT = 128
_routers: dict[tuple, Atomic] = {}


def _router(bus: list, route: list, types: dict) -> Atomic:
    """The routing component from the signals on `bus` to those of `route`:
    output j carries the bus signal route[j].  Routing a bus to itself gives
    the identity layer."""
    index = {s: i for i, s in enumerate(bus)}
    key = (tuple(types[s] for s in bus), tuple(index[s] for s in route))
    node = _routers.get(key)
    if node is None:
        vs = [Var(f"v{i}", ty) for i, ty in enumerate(key[0])]
        node = Atomic(StatelessDet(Signature(tuple(vs)), TRUEC, tuple(VarRef(vs[i]) for i in key[1])))
        if len(_routers) < _ROUTERS_KEPT:
            _routers.setdefault(key, node)
    return node


def translate(d: BlockDiagram) -> Component:
    """Translate a flattened diagram into a serial chain of `(block || Id)`
    layers glued with routing components, closing each feedback wire with one
    outermost feedback application."""
    d = flatten(d)
    duplicates = sorted(bid for bid, n in Counter(b.id for b in d.blocks).items() if n > 1)
    if duplicates:
        raise BadParams(f"duplicate block ids {duplicates}")
    atoms = {b.id: library_block(b.kind, b.params) for b in d.blocks}
    ins = {bid: a.inputs.types() for bid, a in atoms.items()}
    outs = {bid: tuple(type_of(t) for t in a.out) for bid, a in atoms.items()}

    # every input port: exactly one driver (a wire or an external input)
    driver: dict[tuple[str, int], Union[Wire, int]] = {}
    for w in d.wires:
        (sb, sp), (db, dp) = w.src, w.dst
        if sb not in atoms or db not in atoms:
            raise PortMismatch(f"wire {w} references an unknown block")
        if sp >= len(outs[sb]) or dp >= len(ins[db]):
            raise PortMismatch(f"wire {w} is out of port range")
        if outs[sb][sp] != ins[db][dp]:
            raise PortMismatch(f"wire {w} connects incompatible types")
        if (db, dp) in driver:
            raise PortMismatch(f"input port {(db, dp)} is driven twice")
        driver[(db, dp)] = w
    for i, (bid, port) in enumerate(d.inputs):
        if bid not in atoms or port >= len(ins[bid]):
            raise PortMismatch(f"external input {i} targets an unknown port")
        if (bid, port) in driver:
            raise PortMismatch(f"input port {(bid, port)} is driven twice")
        driver[(bid, port)] = i
    for bid in atoms:
        for port in range(len(ins[bid])):
            if (bid, port) not in driver:
                raise PortMismatch(f"input port {(bid, port)} is undriven")
    for bid, port in d.outputs:
        if bid not in atoms or port >= len(outs[bid]):
            raise PortMismatch("external output references an unknown port")
    if not d.blocks:
        return Atomic(StatelessDet(Signature(()), TRUEC, ()))

    # same-step dependency graph per each block's output-input relation
    combinational = {bid: {j - 1 for _, j in oi(Atomic(a))} for bid, a in atoms.items()}
    deps: dict[str, set[str]] = {bid: set() for bid in atoms}
    for w in d.wires:
        if w.dst[1] in combinational[w.dst[0]]:
            deps[w.dst[0]].add(w.src[0])
    order, placed, remaining = [], set(), sorted(atoms)
    while remaining:
        # ascending id tie-break
        nxt = next((bid for bid in remaining if deps[bid] <= placed), None)
        if nxt is None:
            raise AlgebraicLoop(f"same-step dependency cycle among {remaining}", cycle=remaining)
        order.append(nxt)
        placed.add(nxt)
        remaining.remove(nxt)
    position = {bid: i for i, bid in enumerate(order)}

    # wires arriving from later (or equal) positions loop back through fdbk
    loop_wires = [w for w in d.wires if position[w.src[0]] >= position[w.dst[0]]]
    loop_index = {w: i for i, w in enumerate(loop_wires)}
    # signals: ("loop", i) | ("ext", i) | ("out", block, port)
    types = {("loop", i): outs[w.src[0]][w.src[1]] for i, w in enumerate(loop_wires)}
    types.update((("ext", i), ins[bid][port]) for i, (bid, port) in enumerate(d.inputs))
    types.update((("out", bid, p), t) for bid, ts in outs.items() for p, t in enumerate(ts))

    def source(bid: str, port: int):
        drv = driver[(bid, port)]
        if isinstance(drv, int):
            return ("ext", drv)
        if drv in loop_index:
            return ("loop", loop_index[drv])
        return ("out", *drv.src)

    # stage k reads reads[k]; the final collection, stage len(order), reads
    # every loop wire's source and every external output
    reads = [[source(bid, p) for p in range(len(ins[bid]))] for bid in order]
    reads.append([("out", *w.src) for w in loop_wires] + [("out", *r) for r in d.outputs])
    last = {s: stage for stage, signals in enumerate(reads) for s in signals}

    bus = [("loop", i) for i in range(len(loop_wires))] + [("ext", i) for i in range(len(d.inputs))]
    stages: list[Component] = []
    for stage, bid in enumerate(order):
        live = [s for s in bus if last.get(s, -1) > stage]
        if reads[stage] + live != bus:
            stages.append(_router(bus, reads[stage] + live, types))
        block = Atomic(atoms[bid])
        stages.append(Parallel(block, _router(live, live, types)) if live else block)
        bus = [("out", bid, p) for p in range(len(outs[bid]))] + live
    if reads[-1] != bus:
        stages.append(_router(bus, reads[-1], types))
    term = reduce(Serial, stages)
    for _ in loop_wires:
        term = Fdbk(term)
    return term
