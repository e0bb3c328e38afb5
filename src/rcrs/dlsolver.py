"""A miniature SMT-LIB 2 solver for quantified integer/rational difference
logic, suitable as an `RCRS_SMT_SOLVER` executable for desk-scale use.

Reads SMT-LIB on standard input and prints `sat`, `unsat`, or `unknown` for
each `(check-sat)` as soon as it is read; `(reset)` starts a fresh context, so
one process can answer one goal after another.

It decides boolean combinations (with quantifiers) of difference constraints
x - y <= c, bounds +-x <= c, boolean/enum literals, and if-then-else; every
atom outside that fragment degrades the answer to `unknown` rather than a
guess.  Quantifier elimination over integers and rationals is exact for
difference constraints, and boolean/enum quantifiers expand over their
finite domains.

Usage: python3 -m rcrs.dlsolver < script.smt2
"""

from __future__ import annotations

import codecs
import re
import sys
from fractions import Fraction
from math import floor

ZERO = "$zero"
_DNF_CAP = 50000


# --- s-expression reader -----------------------------------------------------


def tokenize(text: str):
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            out.append(c)
            i += 1
        elif c.isspace():
            i += 1
        elif c == "|":
            j = text.index("|", i + 1)
            out.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def read_sexprs(text: str):
    toks = tokenize(text)
    pos = 0

    def read():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            items = []
            while toks[pos] != ")":
                items.append(read())
            pos += 1
            return items
        if tok == ")":
            raise ValueError("unbalanced parenthesis")
        return tok

    out = []
    while pos < len(toks):
        out.append(read())
    return out


# --- formulas ----------------------------------------------------------------
# ("and", [fs]) | ("or", [fs]) | ("true",) | ("false",) | ("unk",)
# ("diff", u, v, c, strict)  meaning u - v <= c (strictly if strict)
# ("lit", var, value, positive)  boolean/enum literal var == value


TRUE = ("true",)
FALSE = ("false",)
UNK = ("unk",)


def f_and(fs):
    flat = []
    for f in fs:
        if f == FALSE:
            return FALSE
        if f == TRUE:
            continue
        if f[0] == "and":
            flat.extend(f[1])
        else:
            flat.append(f)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return ("and", flat)


def f_or(fs):
    flat = []
    for f in fs:
        if f == TRUE:
            return TRUE
        if f == FALSE:
            continue
        if f[0] == "or":
            flat.extend(f[1])
        else:
            flat.append(f)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return ("or", flat)


def f_not(f):
    if f == TRUE:
        return FALSE
    if f == FALSE:
        return TRUE
    if f == UNK:
        return UNK
    if f[0] == "and":
        return f_or([f_not(g) for g in f[1]])
    if f[0] == "or":
        return f_and([f_not(g) for g in f[1]])
    if f[0] == "diff":
        _, u, v, c, strict = f
        return ("diff", v, u, -c, not strict)
    if f[0] == "lit":
        _, var, value, positive = f
        return ("lit", var, value, not positive)
    raise ValueError(f"cannot negate {f!r}")


class Solver:
    def __init__(self):
        self.sorts: dict[str, tuple[str, ...]] = {}  # enum name -> values
        self.value_sort: dict[str, str] = {}  # enum value -> enum name
        self.var_sort: dict[str, str] = {}
        self.assertions: list = []
        self.fresh = 0

    # --- declarations ---

    def declare_enum(self, name: str, values):
        self.sorts[name] = tuple(values)
        for v in values:
            self.value_sort[v] = name

    def declare_const(self, name: str, sort: str):
        self.var_sort[name] = sort

    def fresh_name(self, base: str) -> str:
        self.fresh += 1
        return f"{base}!{self.fresh}"

    # --- term linearization ---

    def linear(self, e, env):
        """Return (coeffs: dict, const: Fraction) or None outside the linear
        fragment."""
        if isinstance(e, str):
            if e in env:
                return self.linear(env[e], env)
            if e in self.var_sort:
                if self.var_sort[e] in ("Int", "Real"):
                    return ({e: Fraction(1)}, Fraction(0))
                return None
            try:
                return ({}, Fraction(e))
            except ValueError:
                return None
        if not e:
            return None
        op = e[0]
        if op == "to_real" and len(e) == 2:
            return self.linear(e[1], env)
        if op == "+":
            acc = ({}, Fraction(0))
            for arg in e[1:]:
                nxt = self.linear(arg, env)
                if nxt is None:
                    return None
                acc = _lin_add(acc, nxt)
            return acc
        if op == "-":
            if len(e) == 2:
                inner = self.linear(e[1], env)
                return None if inner is None else _lin_scale(inner, Fraction(-1))
            acc = self.linear(e[1], env)
            if acc is None:
                return None
            for arg in e[2:]:
                nxt = self.linear(arg, env)
                if nxt is None:
                    return None
                acc = _lin_add(acc, _lin_scale(nxt, Fraction(-1)))
            return acc
        if op == "*":
            if len(e) != 3:
                return None
            a = self.linear(e[1], env)
            b = self.linear(e[2], env)
            if a is None or b is None:
                return None
            if not a[0]:
                return _lin_scale(b, a[1])
            if not b[0]:
                return _lin_scale(a, b[1])
            return None
        return None

    # --- conversion with quantifier elimination ---

    def convert(self, e, env) -> tuple:
        if isinstance(e, str):
            if e in env:
                return self.convert(env[e], env)
            if e == "true":
                return TRUE
            if e == "false":
                return FALSE
            if e in self.var_sort and self.var_sort[e] == "Bool":
                return ("lit", e, True, True)
            return UNK
        if not e:
            return UNK
        op = e[0]
        if op == "and":
            return f_and([self.convert(a, env) for a in e[1:]])
        if op == "or":
            return f_or([self.convert(a, env) for a in e[1:]])
        if op == "not":
            return self.negate(self.convert(e[1], env))
        if op == "=>":
            parts = [self.convert(a, env) for a in e[1:]]
            out = parts[-1]
            for p in reversed(parts[:-1]):
                out = f_or([self.negate(p), out])
            return out
        if op in ("=", "distinct", "<=", "<", ">=", ">"):
            return self.atom(op, e[1:], env)
        if op == "ite":
            c = self.convert(e[1], env)
            a = self.convert(e[2], env)
            b = self.convert(e[3], env)
            return f_or([f_and([c, a]), f_and([self.negate(c), b])])
        if op in ("forall", "exists"):
            return self.quantified(op, e[1], e[2], env)
        if op == "let":
            env2 = dict(env)
            for name, value in e[1]:
                env2[name] = _subst_env(value, env)
            return self.convert(e[2], env2)
        return UNK

    def negate(self, f):
        try:
            return f_not(f)
        except ValueError:
            return UNK

    def quantified(self, op, binders, body, env) -> tuple:
        # innermost first: bind one variable, recur on the rest
        if not binders:
            return self.convert(body, env)
        (name, sort), rest = binders[0], binders[1:]
        sort = sort if isinstance(sort, str) else None
        if sort is None:
            return UNK
        if sort == "Bool":
            cases = []
            for value in ("true", "false"):
                env2 = dict(env)
                env2[name] = value
                cases.append(self.quantified(op, rest, body, env2))
            return f_and(cases) if op == "forall" else f_or(cases)
        if sort in self.sorts:
            cases = []
            for value in self.sorts[sort]:
                env2 = dict(env)
                env2[name] = value
                cases.append(self.quantified(op, rest, body, env2))
            return f_and(cases) if op == "forall" else f_or(cases)
        if sort in ("Int", "Real"):
            fresh = self.fresh_name(name)
            self.var_sort[fresh] = sort
            env2 = dict(env)
            env2[name] = fresh
            inner = self.quantified(op, rest, body, env2)
            if op == "exists":
                return self.eliminate(fresh, inner)
            return self.negate(self.eliminate(fresh, self.negate(inner)))
        return UNK

    def atom(self, op, args, env) -> tuple:
        if len(args) != 2:
            return UNK
        a, b = args
        ite = _find_ite(a) or _find_ite(b)
        if ite is not None:
            cond, then_e, else_e = ite[1], ite[2], ite[3]
            c = self.convert(cond, env)
            then_atom = self.atom(op, [_replace(a, ite, then_e), _replace(b, ite, then_e)], env)
            else_atom = self.atom(op, [_replace(a, ite, else_e), _replace(b, ite, else_e)], env)
            return f_or([f_and([c, then_atom]), f_and([self.negate(c), else_atom])])
        kind_a = self.term_kind(a, env)
        kind_b = self.term_kind(b, env)
        if op in ("=", "distinct") and (kind_a in ("bool", "enum") or kind_b in ("bool", "enum")):
            base = self.flat_eq(a, b, env)
            return self.negate(base) if op == "distinct" else base
        la = self.linear(a, env)
        lb = self.linear(b, env)
        if la is None or lb is None:
            return UNK
        diff = _lin_add(la, _lin_scale(lb, Fraction(-1)))
        if op == "=":
            return f_and([self.le(diff, False), self.le(_lin_scale(diff, Fraction(-1)), False)])
        if op == "distinct":
            return f_or([self.lt(diff), self.lt(_lin_scale(diff, Fraction(-1)))])
        if op == "<=":
            return self.le(diff, False)
        if op == "<":
            return self.le(diff, True)
        if op == ">=":
            return self.le(_lin_scale(diff, Fraction(-1)), False)
        if op == ">":
            return self.le(_lin_scale(diff, Fraction(-1)), True)
        return UNK

    def lt(self, diff):
        return self.le(diff, True)

    def le(self, diff, strict: bool) -> tuple:
        """diff (a linear form) <= 0 (or < 0) as a difference atom."""
        coeffs = {k: v for k, v in diff[0].items() if v != 0}
        const = diff[1]
        if not coeffs:
            hold = const < 0 if strict else const <= 0
            return TRUE if hold else FALSE
        if len(coeffs) == 1:
            ((x, c),) = coeffs.items()
            if c == 1:
                return ("diff", x, ZERO, -const, strict)
            if c == -1:
                return ("diff", ZERO, x, -const, strict)
            return UNK
        if len(coeffs) == 2:
            (x, cx), (y, cy) = sorted(coeffs.items())
            if cx == 1 and cy == -1:
                return ("diff", x, y, -const, strict)
            if cx == -1 and cy == 1:
                return ("diff", y, x, -const, strict)
        return UNK

    def term_kind(self, e, env) -> str:
        if isinstance(e, str):
            if e in env:
                return self.term_kind(env[e], env)
            if e in ("true", "false"):
                return "bool"
            if e in self.value_sort:
                return "enum"
            if e in self.var_sort:
                s = self.var_sort[e]
                if s == "Bool":
                    return "bool"
                if s in self.sorts:
                    return "enum"
                return "num"
            return "num"
        if e and e[0] == "ite":
            return self.term_kind(e[2], env)
        return "num"

    def flat_eq(self, a, b, env) -> tuple:
        """Equality over booleans or enum values/variables."""

        def cases(x):
            # returns list of (guard-formula, value-string) or None
            if isinstance(x, str) and x in env:
                return cases(env[x])
            if x == "true" or x == "false":
                return [(TRUE, x)]
            if isinstance(x, str) and x in self.value_sort:
                return [(TRUE, x)]
            if isinstance(x, str) and x in self.var_sort:
                s = self.var_sort[x]
                if s == "Bool":
                    return [(("lit", x, True, True), "true"), (("lit", x, True, False), "false")]
                if s in self.sorts:
                    return [((("lit", x, v, True)), v) for v in self.sorts[s]]
            return None

        ca, cb = cases(a), cases(b)
        if ca is None or cb is None:
            # fall back: boolean equality of arbitrary subformulas (iff)
            fa = self.convert(a, env)
            fb = self.convert(b, env)
            if UNK in (fa, fb):
                return UNK
            return f_or([f_and([fa, fb]), f_and([self.negate(fa), self.negate(fb)])])
        out = []
        for ga, va in ca:
            for gb, vb in cb:
                if va == vb:
                    out.append(f_and([ga, gb]))
        return f_or(out)

    # --- quantifier elimination over a numeric variable ---

    def eliminate(self, x: str, f) -> tuple:
        disjuncts = dnf(f)
        if disjuncts is None:
            return UNK
        out = []
        for conj in disjuncts:
            out.append(self.eliminate_conj(x, conj))
        return f_or(out)

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
            if is_int and strict and self.is_int_atom(a):
                a = ("diff", u, v, c - 1, False)
                _, u, v, c, strict = a
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
        for (u, c1, s1) in lowers:
            for (v, c2, s2) in uppers:
                # u - x <= c1 and x - v <= c2  ==>  u - v <= c1 + c2
                keep.append(("diff", u, v, c1 + c2, s1 or s2))
        return f_and(keep) if keep else TRUE

    def is_int_atom(self, a) -> bool:
        _, u, v, c, _ = a
        for w in (u, v):
            if w != ZERO and self.var_sort.get(w) != "Int":
                return False
        return c.denominator == 1

    # --- satisfiability ---

    def check(self) -> str:
        f = f_and([self.convert(a, {}) for a in self.assertions])
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
                value = {True: "true", False: "false"}.get(value, value)
                (lits if positive else neglits).setdefault(var, set()).add(value)
            elif a[0] == "diff":
                diffs.append(a)
        for var, vals in lits.items():
            if len(vals) > 1:
                return False
            if var in neglits and vals & neglits[var]:
                return False
        for var, vals in neglits.items():
            domain = self.domain_of(var)
            if domain is not None and domain <= vals:
                return False
        numeric = self.diff_consistent(diffs)
        if numeric is False:
            return False
        if unknown or numeric is None:
            return None
        return True

    def domain_of(self, var):
        s = self.var_sort.get(var)
        if s == "Bool":
            return {"true", "false"}
        if s in self.sorts:
            return set(self.sorts[s])
        return None

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
            if is_int:
                if c.denominator != 1:
                    c = Fraction(floor(c) if not strict or c != floor(c) else c - 1)
                    strict = False
                elif strict:
                    c, strict = c - 1, False
            # strictness as an infinitesimal: weight (c, -1) for strict edges
            edges.append((u, v, (c, -1 if strict else 0)))
        # constraint u - v <= c gives dist(u) <= dist(v) + c
        dist = {w: (Fraction(0), 0) for w in vars_}
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


def _lin_scale(a, k: Fraction):
    return ({n: v * k for n, v in a[0].items()}, a[1] * k)


def _subst_env(e, env):
    if isinstance(e, str):
        return env.get(e, e)
    return [_subst_env(x, env) for x in e]


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
            if sub is None:
                return None
            out = [a + b for a in out for b in sub]
            if len(out) > _DNF_CAP:
                return None
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


def run(script: str) -> list[str]:
    solver = Solver()
    out = []
    for cmd in read_sexprs(script):
        if not isinstance(cmd, list) or not cmd:
            continue
        head = cmd[0]
        if head == "declare-const":
            solver.declare_const(cmd[1], cmd[2] if isinstance(cmd[2], str) else "?")
        elif head == "declare-fun" and cmd[2] == []:
            solver.declare_const(cmd[1], cmd[3] if isinstance(cmd[3], str) else "?")
        elif head == "declare-datatypes":
            # (declare-datatypes ((Name 0)) (((v1) (v2) ...)))
            names = [d[0] for d in cmd[1]]
            for name, ctors in zip(names, cmd[2]):
                solver.declare_enum(name, [c[0] if isinstance(c, list) else c for c in ctors])
        elif head == "assert":
            solver.assertions.append(cmd[1])
        elif head == "check-sat":
            try:
                out.append(solver.check())
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
    the whole script, or `unknown` when it has no `(check-sat)`."""
    context, answered = [], False
    for text in commands(_text_chunks(sys.stdin.buffer)):
        heads = [c[0] for c in read_sexprs(text) if isinstance(c, list) and c]
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
