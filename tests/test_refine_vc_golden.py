"""Refinement verification conditions, pinned.

`tests/data/refine_vc_golden.json` pins every goal of `refine_vc(abstract,
concrete)` as its fragment, provenance, `sufficient_only` flag and printed
formula, or the error `refine_vc` raises, for
- `random_det_composite(random.Random(s), 12, 2)` for seeds 0-119 against
  its atomic form, and against the next seed's composite whose atomic form
  has the same input, output and state types, in both orders;
- seeded block diagrams over int or real wires, with every library block,
  against their atomic forms, and against the next seed's diagram in the
  same way;
- mixed pairs of `random_det_atom`s with the same types: a `Det` against
  `det2sts` of another, and a `StatelessDet` against
  `stateless_det2stateless` of another, in both orders;
- QUANTIFIED below, deterministic atoms and composites whose formulas bind
  variables, some named like the fresh names the VC generator makes (q0),
  each against its atomic form and every ordered pair, and the same for
  EDGES below;
- every ordered pair of components of one file of `tests/data` and
  `perfbench/data`, and of the diagrams of `tests/data`.

It was computed before the step legality of a deterministic side was built
without quantifiers.  Regenerate it only for a deliberate change of the
verification conditions, with `python tests/test_refine_vc_golden.py
--write`.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from rcrs.analysis import refine_vc
from rcrs.components import Atomic, Det, StatelessDet
from rcrs.compose import atomic
from rcrs.corpus import random_det_atom, random_det_composite
from rcrs.diagrams import load_diagram, translate
from rcrs.errors import RcrsError
from rcrs.lattice import det2sts, stateless_det2stateless
from rcrs.syntax import formula_text, parse_rcrs

DATA = Path(__file__).parent / "data"
BENCH_DATA = Path(__file__).parent.parent / "perfbench" / "data"
GOLDEN = DATA / "refine_vc_golden.json"
SEEDS = range(120)
DIAGRAM_SEEDS = range(100)
ATOMS = 160

QUANTIFIED = """\
component A = stateless_det((x:int), true, (x + 1, x))
component Q = det((x:int, y:int), (s:int), (0), exists m0:int . m0 = x + s && m0 > y, (s + x), (s, x + y))
component R = stateless_det((x:int), forall v0:int . v0 > x -> v0 + 1 > x, (x))
component P = det((x:int, y:int), (v0:int, m0:int), (0, 1), exists x0:int . x0 = v0 + y, (x, m0 + y), (m0, v0))
component S = det((x:int), (s:int), (0), forall v0:int . v0 > s -> v0 + x > s, (s + x), (s))
component T = det((x:int), (s:int), (1), exists m0:int . m0 > x && m0 < s + x, (x), (s, x))
component AQ = A ; Q
component SST = S ; S ; T
component QP = Q ; P
component PQ = P ; Q
component LoopQ = fdbk(Q ; P)
component W = stateless_det((x0:int, x1:int), exists x1:int . x1 > x0 + 1, (x0 + x1))
component Echo = stateless_det((x:int, y:int), true, (x + y, y))
component Stuck = fdbk(Echo)
component Q0 = det((x:int), (s:int), (0), exists q0:int . q0 > x + s, (s + x), (s))
component Q1 = det((x:int), (s:int), (0), exists q0:int . q0 > x + s + 1, (s + x), (s))
component Plain = det((x:int), (s:int), (0), x > s, (s + x), (s))
"""

# deterministic atoms whose step legality the simplifier leaves quantified
# (an int next-state term of a real state) or that have no outputs
EDGES = """\
component Widen = det((x:int), (s:real), (0.0), x > 0, (x), (s))
component Widen1 = det((x:int), (s:real), (0.0), x > 1, (x + 1), (s))
component Mute = det((x:int), (s:int), (0), x > 0, (s + x), ())
component Mute1 = det((x:int), (s:int), (0), x > 0 && (x > 1 && x > s), (s + x), ())
component Sink = stateless_det((x:int), x > 0 && (x > 1 && x > 2), ())
component Sink1 = stateless_det((x:int), x > 1, ())
"""

# library block -> (input ports, output ports); a feedback wire starts only
# at a block whose output does not depend on its input in the same step
_PORTS = {
    "Add": (2, 1), "Sub": (2, 1), "Split": (1, 2), "Swap": (2, 2), "Id": (1, 1),
    "Const": (0, 1), "Gain": (1, 1), "Div": (2, 1), "UnitDelay": (1, 1),
    "Integrator": (1, 1), "TransferFcn": (1, 1),
}
_DELAYS = ("UnitDelay", "Integrator")


def diagram_spec(seed: int) -> dict:
    """A diagram of two to eight blocks over int wires (even seeds) or real
    wires (odd seeds), some external inputs fed back from a later delay."""
    rng = random.Random(seed)
    ty = ("int", "real")[seed % 2]
    kinds = sorted(k for k in _PORTS if ty == "real" or k not in ("Integrator", "TransferFcn"))
    blocks, wires, inputs, produced = [], [], [], []
    for j in range(rng.randint(2, 8)):
        kind = rng.choice(kinds)
        params = {"ty": ty, "k": rng.randint(-2, 3), "c": rng.randint(-2, 2), "init": 0, "dt": 0.5}
        blocks.append({"id": f"b{j}", "kind": kind, "params": params})
        n_in, n_out = _PORTS[kind]
        for p in range(n_in):
            if produced and rng.random() < 0.6:
                wires.append({"src": list(rng.choice(produced)), "dst": [f"b{j}", p]})
            else:
                inputs.append([f"b{j}", p])
        produced += [(f"b{j}", p) for p in range(n_out)]
    delays = [b["id"] for b in blocks if b["kind"] in _DELAYS]
    for port in list(inputs):
        later = [d for d in delays if int(d[1:]) > int(port[0][1:])]
        if later and len(inputs) > 1 and rng.random() < 0.5:
            inputs.remove(port)
            wires.append({"src": [rng.choice(later), 0], "dst": port})
    outputs = [list(p) for p in produced[-rng.randint(1, 2):]]
    return {"blocks": blocks, "wires": wires, "inputs": inputs, "outputs": outputs}


def vc_entry(abstract, concrete):
    try:
        vcs = refine_vc(abstract, concrete)
    except RcrsError as e:
        return f"error {type(e).__name__}: {e}"
    return [[vc.fragment, vc.provenance, vc.sufficient_only, formula_text(vc.goal)] for vc in vcs]


def _types(a) -> tuple:
    states = a.states.types() if hasattr(a, "states") else ()
    return a.inputs.types(), a.outputs.types(), states


def _seeded_pairs(what: str, components: dict):
    """Each seed's component against its atomic form, then against the next
    seed's with the same input, output and state types, in both orders."""
    forms = {s: atomic(c) for s, c in components.items()}
    for s, c in components.items():
        yield f"{what} {s} atomic", c, Atomic(forms[s])
    seeds = list(components)
    for i, s in enumerate(seeds):
        t = next((t for t in seeds[i + 1 :] if _types(forms[t]) == _types(forms[s])), None)
        if t is not None:
            yield f"{what} {s} {t}", components[s], components[t]
            yield f"{what} {t} {s}", components[t], components[s]


def _composite_pairs():
    return _seeded_pairs("composite", {s: random_det_composite(random.Random(s), 12, 2) for s in SEEDS})


def _diagram_pairs():
    diagrams = {}
    for s in DIAGRAM_SEEDS:
        try:
            diagrams[s] = translate(load_diagram(json.dumps(diagram_spec(s))))
        except RcrsError:
            continue
    return _seeded_pairs("diagram", diagrams)


def _mixed_pairs():
    """Each deterministic atom against the lifted form of the next atom with
    the same types, in both orders."""
    rng = random.Random(0)
    atoms = [random_det_atom(rng, 1 + i % 2) for i in range(ATOMS)]
    for i, a in enumerate(atoms):
        b = next((b for b in atoms[i + 1 :] if type(b) is type(a) and _types(b) == _types(a)), None)
        if b is None:
            continue
        lifted = det2sts(b) if isinstance(b, Det) else stateless_det2stateless(b)
        yield f"mixed {i} lifted", a, lifted
        yield f"mixed lifted {i}", lifted, a


def _definitions():
    """(source, definitions) of QUANTIFIED, of EDGES, of each data file,
    and of the diagrams of tests/data."""
    yield "quantified", parse_rcrs(QUANTIFIED)[0]
    yield "edges", parse_rcrs(EDGES)[0]
    for path in sorted(DATA.glob("*.rcrs")) + sorted(BENCH_DATA.glob("*.rcrs")):
        yield f"{path.parent.parent.name}/{path.name}", parse_rcrs(path.read_text())[0]
    diagrams = sorted(p for p in DATA.glob("*.json") if "golden" not in p.name)
    yield "diagrams", {p.name: translate(load_diagram(p.read_text())) for p in diagrams}


def _definition_pairs():
    for source, defs in _definitions():
        for name, c in defs.items():
            try:
                form = Atomic(atomic(c))
            except RcrsError:
                continue
            yield f"{source} {name} atomic", c, form
        for a, ca in defs.items():
            for b, cb in defs.items():
                yield f"{source} {a} {b}", ca, cb


def golden_entries():
    pairs = (_composite_pairs(), _diagram_pairs(), _mixed_pairs(), _definition_pairs())
    return [[label, vc_entry(a, c)] for group in pairs for label, a, c in group]


def dumps(entries) -> str:
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(GOLDEN.read_text())


def test_goals_are_pinned(pinned):
    got = golden_entries()
    assert [label for label, _ in got] == [label for label, _ in pinned]
    for (label, vcs), (_, want) in zip(got, pinned):
        assert vcs == want, label


def test_pinned_set_reaches_each_path(pinned):
    entries = dict(pinned)

    def provenances(prefix):
        return {
            vc[1] for label, vcs in entries.items() if label.startswith(prefix) and isinstance(vcs, list) for vc in vcs
        }

    stateless = "stateless refinement (sound and complete)"
    steps = "transition-system refinement (sufficient only)"
    assert {stateless, steps} <= provenances("composite")
    assert {stateless, steps} <= provenances("diagram")
    assert {stateless, steps} <= provenances("mixed")
    assert "temporal refinement: output containment" in provenances("quantified")
    # goals that are not true: the pinned texts are more than a tautology
    assert sum(vcs != [["first-order", steps, True, "true"]] for label, vcs in entries.items()
               if label.startswith("composite") and not label.endswith("atomic")) >= 100
    # a binder named like a fresh name of the quantified route
    assert "exists q0" in entries["quantified Q0 Q1"][0][3]
    assert "exists q0:real . q0 = x0" in entries["edges Widen Widen1"][0][3]
    assert any(isinstance(vcs, str) and "SignatureMismatch" in vcs for vcs in entries.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_refine_vc_golden.py --write")
    GOLDEN.write_text(dumps(golden_entries()))
