"""Signatures, well-formedness, determinism, output-input dependency and
loop-freeness of component terms, pinned.

`tests/data/shape_golden.json` pins, per term, `sigma_in` and `sigma_out`
(the printed signature, or the exception), the `wf` reason, `determ`, the
sorted `oi` (or the exception) and `loop_free` (or the exception), for
- `random_det_composite(random.Random(s), 12, 2)` for seeds 0-199 and every
  subterm of each;
- `translate` of `random_diagram` of `perfbench/generators.py` for seeds
  0-49;
- every binding of the definition files of `tests/data` and
  `perfbench/data`, and every diagram of `tests/data`;
- ill-formed mutants: each serial step of the first 50 random composites
  with its operands swapped in place; feedback wrapped once, twice and three
  times around each random composite; and LOOPS below, atoms with no input,
  no output, a unit-typed or a mismatched first slot, or no determinism,
  and feedback over each, each alone, beside, before and after a random
  composite, and under a feedback beside one.

It was computed before signatures, well-formedness and the dependency facts
were derived in one pass each and kept on component terms.  Regenerate it
only for a deliberate change of these facts, with
`python tests/test_shape_golden.py --write`.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from rcrs.components import Fdbk, Parallel, Serial, as_component, sigma_in, sigma_out, subterms, wf
from rcrs.compose import determ, loop_free, oi
from rcrs.corpus import random_det_composite
from rcrs.diagrams import load_diagram, translate
from rcrs.errors import RcrsError
from rcrs.syntax import parse_rcrs

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"
BENCH_DATA = ROOT / "perfbench" / "data"
GOLDEN = DATA / "shape_golden.json"
SEEDS = range(200)
DIAGRAM_SEEDS = range(50)
MUTANT_SEEDS = range(50)

LOOPS = """\
component NoInput = stateless_det((), true, (1))
component NoOutput = stateless_det((x:int), x > 0, ())
component UnitSlot = stateless_det((u:unit, x:int), true, (u, x))
component Mismatch = stateless_det((b:bool, x:int), true, (x, b))
component Open = stateless((x:int), (y:int), y > x)
component LoopNoInput = fdbk(NoInput)
component LoopNoOutput = fdbk(NoOutput)
component LoopUnit = fdbk(UnitSlot)
component LoopMismatch = fdbk(Mismatch)
component LoopOpen = fdbk(Open)
"""


def _generators():
    spec = importlib.util.spec_from_file_location("generators", ROOT / "perfbench" / "generators.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outcome(f, c):
    try:
        return f(c)
    except RcrsError as e:
        return f"{type(e).__name__}: {e}"


def _facts(c) -> list:
    def sig_text(s):
        return s if isinstance(s, str) else s.short()

    def oi_text(rel):
        return rel if isinstance(rel, str) else [list(p) for p in sorted(rel)]

    return [
        sig_text(_outcome(sigma_in, c)),
        sig_text(_outcome(sigma_out, c)),
        wf(c).reason,
        determ(c),
        oi_text(_outcome(oi, c)),
        _outcome(loop_free, c),
    ]


def _replace(c, path, new):
    """c with its subterm at path replaced by new."""
    if not path:
        return new
    step, rest = path[0], path[1:]
    if step == "child":
        return Fdbk(_replace(c.child, rest, new))
    if step == "left":
        return type(c)(_replace(c.left, rest, new), c.right)
    return type(c)(c.left, _replace(c.right, rest, new))


def _terms():
    """(label, term) of every pinned term."""
    randoms = [random_det_composite(random.Random(s), 12, 2) for s in SEEDS]
    for s, c in zip(SEEDS, randoms):
        for path, sub in subterms(c):
            yield f"random {s} {'/'.join(path) or 'root'}", sub
    generators = _generators()
    for s in DIAGRAM_SEEDS:
        rng = random.Random(s)
        spec = generators.random_diagram(rng, rng.randint(3, 14))
        yield f"diagram {s}", translate(load_diagram(generators.diagram_json(spec)))
    for path in sorted(DATA.glob("*.rcrs")) + sorted(BENCH_DATA.glob("*.rcrs")):
        for name, c in parse_rcrs(path.read_text())[0].items():
            yield f"{path.parent.parent.name}/{path.name} {name}", as_component(c)
    for path in sorted(p for p in DATA.glob("*.json") if "golden" not in p.name):
        yield f"tests/{path.name}", translate(load_diagram(path.read_text()))
    # ill-formed mutants
    for s in MUTANT_SEEDS:
        for path, sub in subterms(randoms[s]):
            if isinstance(sub, Serial):
                label = "/".join(path) or "root"
                yield f"swapped {s} {label}", _replace(randoms[s], path, Serial(sub.right, sub.left))
    for s, c in zip(SEEDS, randoms):
        for depth in (1, 2, 3):
            c = Fdbk(c)
            yield f"fdbk{depth} random {s}", c
    loops = {name: as_component(c) for name, c in parse_rcrs(LOOPS)[0].items()}
    for name, c in loops.items():
        yield f"loops {name}", c
        for s in range(10):
            other = randoms[s]
            yield f"loops {name} || random {s}", Parallel(c, other)
            yield f"loops random {s} || {name}", Parallel(other, c)
            yield f"loops {name} ; random {s}", Serial(c, other)
            yield f"loops random {s} ; {name}", Serial(other, c)
            yield f"loops fdbk({name} || random {s})", Fdbk(Parallel(c, other))


def golden_entries():
    return [[label] + _facts(c) for label, c in _terms()]


def dumps(entries) -> str:
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(GOLDEN.read_text())


def test_facts_are_pinned(pinned):
    got = golden_entries()
    assert [e[0] for e in got] == [e[0] for e in pinned]
    for entry, want in zip(got, pinned):
        assert entry == want, entry[0]


def test_pinned_set_reaches_each_outcome(pinned):
    rows = {e[0]: e[1:] for e in pinned}
    sides = [r[0] for r in rows.values()] + [r[1] for r in rows.values()]
    reasons = {r[2] for r in rows.values()}
    for start in ("serial arity mismatch", "serial type mismatch", "feedback type mismatch"):
        assert any(r and r.startswith(start) for r in reasons), start
    assert "feedback over a unit-typed slot is rejected" in reasons
    assert "feedback child lacks an input or output slot" in reasons
    for side in ("input", "output"):
        assert f"EmptyFeedbackSignature: feedback child has no {side} slot" in sides
    # not deterministic, a feedback loop that closes a same-step dependency,
    # and a dependency relation that raises where loop-freeness does not
    assert any(r[3] is False and r[4].startswith("NotDeterministic") for r in rows.values())
    assert any(r[5] is False for r in rows.values())
    assert any(isinstance(r[4], str) and r[5] is True for r in rows.values())
    assert sum(label.startswith("random") and label.endswith("root") for label in rows) == len(SEEDS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_shape_golden.py --write")
    GOLDEN.write_text(dumps(golden_entries()))
