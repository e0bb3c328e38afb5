"""A miniature SMT-LIB 2 solver for quantified integer/rational difference
logic, suitable as an `RCRS_SMT_SOLVER` executable for desk-scale use.

Reads SMT-LIB on standard input and prints `sat`, `unsat`, or `unknown` for
each `(check-sat)` as soon as it is read; `(reset)` starts a fresh context, so
one process can answer one goal after another.

It reads the commands `declare-const`, `declare-datatypes` (enumerations),
`assert`, `check-sat` and `reset`, and skips every other command.  In a
formula it reads `and`, `or`, `not`, `=>`, `forall`, `exists`, `=` (over
numbers, over values of a finite sort, and over formulas as an iff), `<=`,
`<`, `>=`, `>`, and in terms `+`, `-`, `*` by a constant, `to_real` and
`ite`.  `Bool` is a finite sort like an enumeration, with the values `true`
and `false`.  It decides boolean combinations (with quantifiers) of
difference constraints x - y <= c, bounds +-x <= c and literals of finite
sorts; every other form (`let`, `distinct`, `ite` over formulas, ...) and
every atom outside that fragment degrades the answer to `unknown` rather
than a guess.  Quantifier elimination over integers and rationals is exact
for difference constraints, and quantifiers over finite sorts expand over
their values.

Usage: python3 -m rcrs.dlsolver < script.smt2
"""

from __future__ import annotations

import codecs
import re
import sys
from fractions import Fraction
from math import ceil, floor

ZERO = "$zero"
_DNF_CAP = 50000


# --- s-expression reader -----------------------------------------------------

# a comment, or a token: a quoted symbol, a parenthesis, a plain symbol, or an
# unclosed `|`
_TOKEN = re.compile(r";[^\n]*|(\|[^|]*\||[()]|[^\s();|][^\s();]*|\|)")


def tokenize(text: str):
    out = [t for t in _TOKEN.findall(text) if t]
    if "|" in out:
        raise ValueError("unclosed quoted symbol")
    return out


def read_sexprs(text: str):
    """The s-expressions of the text, as nested lists of tokens; ValueError
    when a parenthesis is unbalanced or unclosed."""
    stack = [[]]
    for tok in tokenize(text):
        if tok == "(":
            stack.append([])
        elif tok != ")":
            stack[-1].append(tok)
        elif len(stack) > 1:
            items = stack.pop()
            stack[-1].append(items)
        else:
            raise ValueError("unbalanced parenthesis")
    if len(stack) > 1:
        raise ValueError("unclosed parenthesis")
    return stack[0]


# --- formulas ----------------------------------------------------------------
# ("and", [fs]) | ("or", [fs]) | ("true",) | ("false",) | ("unk",)
# ("diff", u, v, c, strict)  meaning u - v <= c (strictly if strict)
# ("lit", var, value, positive)  var == value, a variable of a finite sort


TRUE = ("true",)
FALSE = ("false",)
UNK = ("unk",)
AND = (TRUE, FALSE)  # the unit and the zero of a conjunction
OR = (FALSE, TRUE)


def junction(fs, unit, zero):
    """The flattened conjunction (unit TRUE, zero FALSE) or disjunction (unit
    FALSE, zero TRUE) of fs."""
    op = "and" if unit == TRUE else "or"
    flat = []
    for f in fs:
        if f == zero:
            return zero
        if f[0] == op:
            flat.extend(f[1])
        elif f != unit:
            flat.append(f)
    if len(flat) == 1:
        return flat[0]
    return (op, flat) if flat else unit


def f_not(f):
    if f == TRUE:
        return FALSE
    if f == FALSE:
        return TRUE
    if f[0] == "and":
        return junction([f_not(g) for g in f[1]], *OR)
    if f[0] == "or":
        return junction([f_not(g) for g in f[1]], *AND)
    if f[0] == "diff":
        _, u, v, c, strict = f
        return ("diff", v, u, -c, not strict)
    if f[0] == "lit":
        _, var, value, positive = f
        return ("lit", var, value, not positive)
    return UNK


# comparison -> (sign, strict) per difference atom: sign * (a - b) <= 0
_COMPARISONS = {
    "=": ((1, False), (-1, False)),
    "<=": ((1, False),),
    "<": ((1, True),),
    ">=": ((-1, False),),
    ">": ((-1, True),),
}
_FORMULA_HEADS = {"and", "or", "not", "=>", "forall", "exists", *_COMPARISONS}


class Solver:
    def __init__(self):
        self.sorts: dict[str, tuple[str, ...]] = {}  # finite sort -> values
        self.values: set[str] = set()  # every value of a finite sort
        self.var_sort: dict[str, str] = {}
        self.assertions: list = []
        self.fresh = 0
        self.declare_enum("Bool", ("true", "false"))

    # --- declarations ---

    def declare_enum(self, name: str, values):
        self.sorts[name] = tuple(values)
        self.values.update(values)

    def declare_const(self, name: str, sort: str):
        self.var_sort[name] = sort

    # --- term linearization ---

    def linear(self, e, env):
        """Return (coeffs: dict, const: Fraction) or None outside the linear
        fragment."""
        if isinstance(e, str):
            e = env.get(e, e)
            if e in self.var_sort:
                return ({e: Fraction(1)}, Fraction(0)) if self.var_sort[e] in ("Int", "Real") else None
            try:
                return ({}, Fraction(e))
            except ValueError:
                return None
        op = _op(e)
        if op not in ("+", "-", "*", "/", "to_real"):
            return None
        args = [self.linear(a, env) for a in e[1:]]
        if None in args:
            return None
        if op == "-":  # the sum of the first argument and the negated rest
            first = args[:1] if len(args) > 1 else []
            op, args = "+", first + [_lin_scale(a, -1) for a in args[len(first) :]]
        if op == "+":
            acc = ({}, Fraction(0))
            for a in args:
                acc = _lin_add(acc, a)
            return acc
        if op == "to_real" and len(args) == 1:
            return args[0]
        if op == "*" and len(args) == 2:
            (ca, ka), (cb, kb) = args
            if not ca:
                return _lin_scale(args[1], ka)
            if not cb:
                return _lin_scale(args[0], kb)
        if op == "/" and len(args) == 2:
            # a quotient of two constants, such as `(/ 1.0 2.0)` for 1/2
            (ca, ka), (cb, kb) = args
            if not ca and not cb and kb:
                return ({}, ka / kb)
        return None

    # --- conversion with quantifier elimination ---

    def convert(self, e, env) -> tuple:
        if isinstance(e, str):
            return self.atom("=", [e, "true"], env)
        op = _op(e)
        if op in ("and", "or"):
            return junction([self.convert(a, env) for a in e[1:]], *(AND if op == "and" else OR))
        if op == "not":
            return f_not(self.convert(e[1], env))
        if op == "=>":
            parts = [self.convert(a, env) for a in e[1:]]
            return junction([f_not(p) for p in parts[:-1]] + [parts[-1]], *OR)
        if op in _COMPARISONS:
            return self.atom(op, e[1:], env)
        if op in ("forall", "exists"):
            return self.quantified(op, e[1], e[2], env)
        return UNK

    def quantified(self, op, binders, body, env) -> tuple:
        # innermost first: bind one variable, recur on the rest
        if not binders:
            return self.convert(body, env)
        (name, sort), rest = binders[0], binders[1:]
        if not isinstance(name, str) or not isinstance(sort, str):
            return UNK
        if sort in self.sorts:
            cases = [self.quantified(op, rest, body, {**env, name: v}) for v in self.sorts[sort]]
            return junction(cases, *(AND if op == "forall" else OR))
        if sort in ("Int", "Real"):
            self.fresh += 1
            fresh = f"{name}!{self.fresh}"
            self.var_sort[fresh] = sort
            inner = self.quantified(op, rest, body, {**env, name: fresh})
            if op == "exists":
                return self.eliminate(fresh, inner)
            return f_not(self.eliminate(fresh, f_not(inner)))
        return UNK

    def atom(self, op, args, env) -> tuple:
        if len(args) != 2:
            return UNK
        a, b = args
        if op == "=":
            ca, cb = self.cases(a, env), self.cases(b, env)
            if ca is not None and cb is not None:
                return junction([junction([ga, gb], *AND) for ga, va in ca for gb, vb in cb if va == vb], *OR)
        ite = _find_ite(a) or _find_ite(b)
        if ite is not None:
            cond, then_e, else_e = ite[1], ite[2], ite[3]
            c = self.convert(cond, env)
            then_atom = self.atom(op, [_replace(a, ite, then_e), _replace(b, ite, then_e)], env)
            else_atom = self.atom(op, [_replace(a, ite, else_e), _replace(b, ite, else_e)], env)
            return junction([junction([c, then_atom], *AND), junction([f_not(c), else_atom], *AND)], *OR)
        la = self.linear(a, env)
        lb = self.linear(b, env)
        if la is None or lb is None:
            return UNK
        diff = _lin_add(la, _lin_scale(lb, -1))
        return junction([self.le(_lin_scale(diff, s), strict) for s, strict in _COMPARISONS[op]], *AND)

    def le(self, diff, strict: bool) -> tuple:
        """diff (a linear form) <= 0 (or < 0) as a difference atom; a bound on
        one variable is a difference against ZERO."""
        coeffs = {k: v for k, v in diff[0].items() if v != 0}
        const = diff[1]
        if not coeffs:
            hold = const < 0 if strict else const <= 0
            return TRUE if hold else FALSE
        if len(coeffs) == 1:
            (c,) = coeffs.values()
            coeffs[ZERO] = -c
        if len(coeffs) == 2:
            (x, cx), (y, cy) = coeffs.items()
            if cx == 1 and cy == -1:
                return ("diff", x, y, -const, strict)
            if cx == -1 and cy == 1:
                return ("diff", y, x, -const, strict)
        return UNK

    def cases(self, e, env):
        """The (guard, value) pairs of a value of a finite sort or of a
        formula, as the value `true` or `false`; None for any other term, or
        for a formula outside the fragment."""
        if isinstance(e, str):
            e = env.get(e, e)
            if e in self.values:
                return [(TRUE, e)]
            values = self.sorts.get(self.var_sort.get(e))
            return None if values is None else [(("lit", e, v, True), v) for v in values]
        if _op(e) not in _FORMULA_HEADS:
            return None
        f = self.convert(e, env)
        return None if f == UNK else [(f, "true"), (f_not(f), "false")]

    # --- quantifier elimination over a numeric variable ---

    def eliminate(self, x: str, f) -> tuple:
        disjuncts = dnf(f)
        if disjuncts is None:
            return UNK
        out = []
        for conj in disjuncts:
            out.append(self.eliminate_conj(x, conj))
        return junction(out, *OR)

    def eliminate_conj(self, x: str, atoms) -> tuple:
        keep, lowers, uppers = [], [], []
        is_int = self.var_sort.get(x) == "Int"
        for a in atoms:
            if a == UNK:
                return UNK
            if a[0] == "lit":
                keep.append(a)
                continue
            _, u, v, c, strict = a
            if is_int and self.integral(u) and self.integral(v):  # as in diff_consistent
                c, strict = (ceil(c) - 1 if strict else floor(c)), False
                a = ("diff", u, v, c, False)
            if u == x and v == x:
                hold = c > 0 if strict else c >= 0
                if not hold:
                    return FALSE
                continue
            if u == x:
                uppers.append((v, c, strict))  # x - v <= c
            elif v == x:
                lowers.append((u, c, strict))  # u - x <= c
            else:
                keep.append(a)
        if is_int and lowers and uppers and not all(self.integral(w) for w, _, _ in lowers + uppers):
            return UNK  # an integer between real bounds is no difference constraint
        for (u, c1, s1) in lowers:
            for (v, c2, s2) in uppers:
                # u - x <= c1 and x - v <= c2  ==>  u - v <= c1 + c2
                keep.append(("diff", u, v, c1 + c2, s1 or s2))
        return junction(keep, *AND)

    def integral(self, w: str) -> bool:
        return w == ZERO or self.var_sort.get(w) == "Int"

    # --- satisfiability ---

    def check(self) -> str:
        f = junction([self.convert(a, {}) for a in self.assertions], *AND)
        disjuncts = dnf(f)
        if disjuncts is None:
            return "unknown"
        saw_unknown = False
        for conj in disjuncts:
            verdict = self.consistent(conj)
            if verdict is True:
                return "sat"
            if verdict is None:
                saw_unknown = True
        return "unknown" if saw_unknown else "unsat"

    def consistent(self, atoms):
        """True / False / None for a conjunction of atoms."""
        lits: dict[str, set] = {}
        neglits: dict[str, set] = {}
        diffs = []
        unknown = False
        for a in atoms:
            if a == UNK:
                unknown = True
            elif a[0] == "lit":
                _, var, value, positive = a
                (lits if positive else neglits).setdefault(var, set()).add(value)
            elif a[0] == "diff":
                diffs.append(a)
        for var, vals in lits.items():
            if len(vals) > 1:
                return False
            if var in neglits and vals & neglits[var]:
                return False
        for var, vals in neglits.items():
            if vals.issuperset(self.sorts[self.var_sort[var]]):
                return False
        numeric = self.diff_consistent(diffs)
        if numeric is False:
            return False
        if unknown or numeric is None:
            return None
        return True

    def diff_consistent(self, diffs):
        if not diffs:
            return True
        vars_ = {ZERO}
        sorts = set()
        for (_, u, v, c, strict) in diffs:
            for w in (u, v):
                vars_.add(w)
                if w != ZERO:
                    sorts.add(self.var_sort.get(w, "?"))
        if "?" in sorts or not sorts <= {"Int", "Real"}:
            return None
        if sorts == {"Int", "Real"}:
            return None  # mixed systems are outside the decided fragment
        is_int = sorts == {"Int"}
        edges = []
        for (_, u, v, c, strict) in diffs:
            if is_int:  # u - v < c is u - v <= ceil(c) - 1 over the integers
                c, strict = (ceil(c) - 1 if strict else floor(c)), False
            # strictness as an infinitesimal: weight (c, -1) for strict edges
            edges.append((u, v, (c, -1 if strict else 0)))
        # constraint u - v <= c gives dist(u) <= dist(v) + c
        dist = {w: (0, 0) for w in vars_}
        for _ in range(len(vars_)):
            changed = False
            for (u, v, w) in edges:
                cand = (dist[v][0] + w[0], dist[v][1] + w[1])
                if cand < dist[u]:
                    dist[u] = cand
                    changed = True
            if not changed:
                return True
        # one more relaxation round detects a lexicographically negative cycle
        for (u, v, w) in edges:
            cand = (dist[v][0] + w[0], dist[v][1] + w[1])
            if cand < dist[u]:
                return False
        return True


def _lin_add(a, b):
    coeffs = dict(a[0])
    for k, v in b[0].items():
        coeffs[k] = coeffs.get(k, Fraction(0)) + v
    return (coeffs, a[1] + b[1])


def _lin_scale(a, k: int | Fraction):
    return ({n: v * k for n, v in a[0].items()}, a[1] * k)


def _op(e):
    """The operator of an application, or None."""
    return e[0] if e and isinstance(e[0], str) else None


def _find_ite(e):
    if isinstance(e, list):
        if e and e[0] == "ite":
            return e
        for x in e:
            found = _find_ite(x)
            if found is not None:
                return found
    return None


def _replace(e, old, new):
    if e is old:
        return new
    if isinstance(e, list):
        return [_replace(x, old, new) for x in e]
    return e


def dnf(f):
    """List of conjunctions (lists of atoms), or None past the size cap."""
    if f == TRUE:
        return [[]]
    if f == FALSE:
        return []
    if f == UNK:
        return [[UNK]]
    if f[0] in ("diff", "lit"):
        return [[f]]
    if f[0] == "and":
        out = [[]]
        for g in f[1]:
            sub = dnf(g)
            if sub is None or len(out) * len(sub) > _DNF_CAP:
                return None
            out = [a + b for a in out for b in sub]
        return out
    if f[0] == "or":
        out = []
        for g in f[1]:
            sub = dnf(g)
            if sub is None:
                return None
            out.extend(sub)
            if len(out) > _DNF_CAP:
                return None
        return out
    return None


# the number of items of each command that is read, its name included
_ARITY = {"declare-const": 3, "declare-datatypes": 3, "assert": 2}


def _datatypes(heads, bodies):
    """The (sort name, value names) of each enumeration that
    `(declare-datatypes ((Name 0) ...) (((v1) (v2) ...) ...))` declares, or
    None when one of those names is not a symbol."""
    if not isinstance(heads, list) or not isinstance(bodies, list):
        return None
    out = []
    for head, ctors in zip(heads, bodies):
        if not isinstance(head, list) or not head or not isinstance(ctors, list):
            return None
        names = [head[0]] + [c[0] if isinstance(c, list) and c else c for c in ctors]
        if not all(isinstance(n, str) for n in names):
            return None
        out.append((names[0], names[1:]))
    return out


def run(script: str) -> list[str]:
    """The answer to each `(check-sat)` of the script.  A script that the
    reader rejects answers `unknown`, and so does every `(check-sat)` after a
    command with the wrong number of arguments, a command whose name is not
    a symbol, or a declaration of a name that is not a symbol."""
    solver = Solver()
    out = []
    try:
        cmds = read_sexprs(script)
    except ValueError:
        return ["unknown"]
    malformed = False
    for cmd in cmds:
        if not isinstance(cmd, list) or not cmd:
            continue
        head = cmd[0]
        if not isinstance(head, str) or len(cmd) != _ARITY.get(head, len(cmd)):
            malformed = True
        elif head == "declare-const" and isinstance(cmd[1], str):
            solver.declare_const(cmd[1], cmd[2] if isinstance(cmd[2], str) else "?")
        elif head == "declare-datatypes" and (sorts := _datatypes(cmd[1], cmd[2])) is not None:
            for name, values in sorts:
                solver.declare_enum(name, values)
        elif head in ("declare-const", "declare-datatypes"):
            malformed = True
        elif head == "assert":
            solver.assertions.append(cmd[1])
        elif head == "check-sat":
            try:
                out.append("unknown" if malformed else solver.check())
            except (ValueError, RecursionError):
                # the reader and negation reject what they cannot represent;
                # any other exception is a defect and propagates
                out.append("unknown")
    return out


_DELIMITER = re.compile(r"[();|]")


def commands(chunks):
    """The text of each complete top-level command in a stream of text
    chunks, as soon as its closing parenthesis arrives, with any atoms and
    comments before it; then whatever is left at the end of the stream."""
    buf, i, depth = "", 0, 0
    for chunk in chunks:
        buf += chunk
        while m := _DELIMITER.search(buf, i):
            c, i = m.group(), m.end()
            if c in ";|":  # a comment or a quoted symbol: skip it whole
                end = buf.find("\n" if c == ";" else "|", i)
                if end < 0:
                    i = m.start()  # wait for its end
                    break
                i = end + 1
            elif c == "(":
                depth += 1
            else:
                depth -= 1
                if depth <= 0:  # below zero, read_sexprs rejects the text
                    yield buf[:i]
                    buf, i, depth = buf[i:], 0, 0
    yield buf


def _text_chunks(stream):
    """The text of a byte stream, a chunk as soon as it arrives."""
    decoder = codecs.getincrementaldecoder("utf-8")(errors="replace")
    while data := stream.read1(65536):
        yield decoder.decode(data)
    yield decoder.decode(b"", final=True)


def main() -> int:
    """Answer each `(check-sat)` as soon as it is read, on its own flushed
    line, as `run` answers it on the commands before it; `(reset)` starts a
    fresh context.  A script without `(reset)` gets the answers of `run` on
    the whole script, or `unknown` when it has no `(check-sat)`.  A command
    that the reader rejects stays in the context, so every `(check-sat)`
    after it answers `unknown`."""
    context, answered = [], False
    for text in commands(_text_chunks(sys.stdin.buffer)):
        try:
            heads = [c[0] for c in read_sexprs(text) if isinstance(c, list) and c]
        except ValueError:
            heads = []
        if heads == ["check-sat"]:
            # `run` is looked up here, so that a wrapper installed on it sees
            # every goal
            for answer in run("".join(context) + text):
                sys.stdout.write(answer + "\n")
                answered = True
            sys.stdout.flush()
        elif heads == ["reset"]:
            context.clear()
        else:
            context.append(text)
    if not answered:
        print("unknown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
