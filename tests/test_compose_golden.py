"""Composition to one atomic component, pinned.

`tests/data/compose_golden.json` pins the printed `atomic()` form of
- `random_det_composite(random.Random(s), 12, 2)` for seeds 0-199, long
  serial and parallel chains of deterministic atoms;
- every component defined in `tests/data` (files and diagrams), and the
  serial and parallel composition of each ordered pair of components of one
  file, where it is well formed, with the error where composition fails;
- the same for QUANTIFIED below: deterministic atoms whose legal-input
  formulas bind variables named like the slots composition creates (m0,
  v0, x1), so the right operand of a serial step is renamed before it is
  substituted, and a renaming of slots to themselves still renames the
  binder.

It was computed before a deterministic serial step became one substitution
and identity renamings returned their component.  Regenerate it only for a
deliberate change of composition, with
`python tests/test_compose_golden.py --write`.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from rcrs.components import Parallel, Serial, wf
from rcrs.compose import atomic
from rcrs.corpus import random_det_composite
from rcrs.diagrams import load_diagram, translate
from rcrs.errors import RcrsError
from rcrs.syntax import parse_rcrs, print_component

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "compose_golden.json"
SEEDS = range(200)

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
"""


def _atomic_text(c) -> str:
    try:
        return print_component(atomic(c))
    except RcrsError as e:
        return f"error {type(e).__name__}: {e}"


def _pairs(components: dict):
    for a, ca in components.items():
        for b, cb in components.items():
            for name, op in (("serial", Serial), ("parallel", Parallel)):
                c = op(ca, cb)
                if wf(c):
                    yield f"{name} {a} {b}", c


def _definitions():
    """(source, definitions) of tests/data and of QUANTIFIED."""
    yield "quantified", parse_rcrs(QUANTIFIED)[0]
    for path in sorted(DATA.glob("*.rcrs")):
        yield path.name, parse_rcrs(path.read_text())[0]
    diagrams = sorted(p for p in DATA.glob("*.json") if "golden" not in p.name)
    yield "diagrams", {p.name: translate(load_diagram(p.read_text())) for p in diagrams}


def golden_entries():
    entries = [
        [f"random {s}", _atomic_text(random_det_composite(random.Random(s), 12, 2))] for s in SEEDS
    ]
    for source, defs in _definitions():
        entries += [[f"{source} {name}", _atomic_text(c)] for name, c in defs.items()]
        entries += [[f"{source} {label}", _atomic_text(c)] for label, c in _pairs(defs)]
    return entries


def dumps(entries) -> str:
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(GOLDEN.read_text())


def test_atomic_forms_are_pinned(pinned):
    got = golden_entries()
    assert [label for label, _ in got] == [label for label, _ in pinned]
    for (label, text), (_, want) in zip(got, pinned):
        assert text == want, label


def test_pinned_set_reaches_each_path(pinned):
    texts = dict(pinned)
    assert sum(label.startswith("random") for label in texts) == len(SEEDS)
    # the rename-first serial step: S's binder v0 is renamed apart from the
    # state slot v0 the right operand's state becomes
    assert "forall v0" in texts["quantified S"]
    assert "(u0:int, v0:int)" in texts["quantified serial S S"]
    assert "forall v1:int . v1 > v0" in texts["quantified serial S S"]
    # renaming W's slots x0, x1 to themselves still renames its binder x1
    assert "exists x1:int . x1 > x0 + 1" in texts["quantified W"]
    assert "exists x2:int . x2 > x0 + 1" in texts["quantified parallel W A"]
    # compositions of every kind, and a feedback that fails
    for kind in ("stateless_det(", "det(", "stateless(", "sts(", "qltl("):
        assert any(t.startswith(kind) for t in texts.values()), kind
    assert any(t.startswith("error") for t in texts.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_compose_golden.py --write")
    GOLDEN.write_text(dumps(golden_entries()))
