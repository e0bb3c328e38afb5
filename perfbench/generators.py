"""The benchmark's own seeded generators: temporal contract templates over
finite slots, and block diagrams for `rcrs.diagrams.translate`.

A template formula is a small tuple tree, such as `("G", ("atom", "x", "!=",
1))` or `("same", "y", "x")`, that renders to `.rcrs` text for the program
and is evaluated directly by `reference.lasso_holds` when a witness is
replayed.
"""

from __future__ import annotations

import json

# Two-valued slots: a template's lasso search then costs 0.1 to 15 ms.  With
# three values, or with an exhaustive search over two free slots (for
# example G (x = c -> y = d) refined by G (y = d), about 120 ms), a few
# percent of the queries form a class ten times slower than the rest, and
# the run's 90th percentile sits in the gap between the two classes.
SLOT_TYPES = ("bool", "int[0..1]", "Sw{on,off}")


def slot_values(ty: str) -> tuple:
    if ty == "bool":
        return (False, True)
    if ty.startswith("int["):
        lo, hi = ty[4:-1].split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(ty[ty.index("{") + 1 : -1].split(","))


def _literal(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def render(f) -> str:
    op = f[0]
    if op == "atom":
        _, name, pred, value = f
        return f"{name} {pred} {_literal(value)}"
    if op == "same":
        return f"{f[1]} = {f[2]}"
    if op in ("G", "F"):
        return f"{op} ({render(f[1])})"
    infix = {"implies": "->", "U": "U", "L": "L"}[op]
    return f"({render(f[1])}) {infix} ({render(f[2])})"


def _atom(name, pred, value):
    return ("atom", name, pred, value)


# Receptiveness templates: (name, has output y, formula, expected verdict).
# Contracts without outputs are receptive iff their formula is valid, so the
# invalid ones are refuted on a lasso.  Temporal validity is never proven,
# only refuted.  (G of a state formula is left out: it is decided as a
# first-order goal through the solver, which fo-queries covers.)
def _receptive_templates(c, d):
    x, y = "x", "y"
    return [
        ("copy", True, ("G", ("same", y, x)), "Proven"),
        ("recurrence", False, ("G", ("F", _atom(x, "=", c))), "Refuted"),
        ("eventually", False, ("F", _atom(x, "=", c)), "Refuted"),
        ("until", False, ("U", _atom(x, "=", c), _atom(x, "=", d)), "Refuted"),
        ("leads", False, ("L", _atom(x, "=", c), _atom(x, "=", d)), "Refuted"),
        ("response", True, ("G", ("implies", _atom(x, "=", c), ("F", _atom(y, "=", d)))), "Unknown"),
        ("fairness", True, ("G", ("implies", ("F", _atom(x, "=", c)), _atom(y, "=", d))), "Unknown"),
    ]


# Refinement templates over x -> y: (name, abstract, concrete, expected).
# The stronger contract refines the weaker one (not refuted, so Unknown);
# the reverse direction is refuted on a lasso.  always-by-cond is refuted
# early in a search over both slots; its Unknown converse is left out (see
# SLOT_TYPES).
def _refinement_templates(c, d):
    x, y = "x", "y"
    gf = ("G", ("F", _atom(y, "=", c)))
    f = ("F", _atom(y, "=", c))
    g = ("G", _atom(y, "=", c))
    cond = ("G", ("implies", _atom(x, "=", c), _atom(y, "=", d)))
    always = ("G", _atom(y, "=", d))
    return [
        ("gf-by-g", gf, g, "Unknown"),
        ("g-by-gf", g, gf, "Refuted"),
        ("f-by-g", f, g, "Unknown"),
        ("g-by-f", g, f, "Refuted"),
        ("always-by-cond", always, cond, "Refuted"),
    ]


def _qltl_text(ty, has_output, formula) -> str:
    outs = f"(y:{ty})" if has_output else "()"
    return f"qltl((x:{ty}), {outs}, {render(formula)})"


def receptive_template(rng, k: int) -> dict:
    """Template k mod 7 over slot type k // 7 mod 3 (both cyclic, so every run
    has the same mix of costs) and random constants."""
    ty = SLOT_TYPES[k // 7 % len(SLOT_TYPES)]
    c, d = rng.sample(slot_values(ty), 2)
    templates = _receptive_templates(c, d)
    name, has_output, formula, expected = templates[k % len(templates)]
    return {
        "template": f"receptive/{name}",
        "text": _qltl_text(ty, has_output, formula),
        "formula": formula,
        "expected": expected,
    }


def refinement_template(rng, k: int) -> dict:
    """Template k mod 5 over slot type k // 5 mod 3, and random constants."""
    ty = SLOT_TYPES[k // 5 % len(SLOT_TYPES)]
    c, d = rng.sample(slot_values(ty), 2)
    templates = _refinement_templates(c, d)
    name, abstract, concrete, expected = templates[k % len(templates)]
    return {
        "template": f"refine/{name}",
        "abstract_text": _qltl_text(ty, True, abstract),
        "concrete_text": _qltl_text(ty, True, concrete),
        "abstract": abstract,
        "concrete": concrete,
        "expected": expected,
    }


# --- block diagrams -----------------------------------------------------------

_ARITY = {
    "Add": (2, 1),
    "Sub": (2, 1),
    "Gain": (1, 1),
    "Split": (1, 2),
    "Swap": (2, 2),
    "UnitDelay": (1, 1),
    "Const": (0, 1),
    "Id": (1, 1),
}
_KINDS = ("Add", "Sub", "Gain", "Split", "Swap", "UnitDelay", "UnitDelay", "Const", "Id")


def random_diagram(rng, n_blocks: int, max_inputs: int = 2) -> dict:
    """An int-typed diagram of `n_blocks` library blocks.  Ports are driven by
    earlier blocks or by at most `max_inputs` external inputs; feedback wires
    start only at unit delays, so no same-step cycle arises."""
    blocks, wires, inputs = [], [], []
    produced = []  # (block id, output port) available to later blocks
    for j in range(n_blocks):
        kind = rng.choice(_KINDS)
        bid = f"b{j:02d}"
        params = {"ty": "int"}
        if kind == "Gain":
            params["k"] = rng.randint(-2, 3)
        elif kind == "Const":
            params["c"] = rng.randint(-2, 2)
        elif kind == "UnitDelay":
            params["init"] = rng.randint(-1, 1)
        blocks.append({"id": bid, "kind": kind, "params": params})
        n_in, n_out = _ARITY[kind]
        for p in range(n_in):
            if produced and (len(inputs) >= max_inputs or rng.random() < 0.7):
                wires.append({"src": list(rng.choice(produced)), "dst": [bid, p]})
            else:
                inputs.append([bid, p])
        produced.extend((bid, p) for p in range(n_out))
    # close some loops: an external input of an earlier block is fed back from
    # a later unit delay instead
    delays = [b["id"] for b in blocks if b["kind"] == "UnitDelay"]
    for port in list(inputs):
        later = [d for d in delays if d > port[0]]
        if later and len(inputs) > 1 and rng.random() < 0.5:
            inputs.remove(port)
            wires.append({"src": [rng.choice(later), 0], "dst": port})
    if not inputs:
        blocks.insert(0, {"id": "in", "kind": "Id", "params": {"ty": "int"}})
        inputs.append(["in", 0])
    n_outputs = min(len(produced), rng.randint(1, 2))
    outputs = [list(p) for p in produced[-n_outputs:]]
    return {"blocks": blocks, "wires": wires, "inputs": inputs, "outputs": outputs}


def diagram_json(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)
