"""Value types carried by component signatures, and typed variables."""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from operator import attrgetter


class SemType:
    """Base class of the closed set of value types."""

    def short(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class BoolType(SemType):
    def short(self) -> str:
        return "bool"


@dataclass(frozen=True)
class IntType(SemType):
    """Unbounded integers."""

    def short(self) -> str:
        return "int"


@dataclass(frozen=True)
class IntRange(SemType):
    """Integers restricted to the closed interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty integer range [{self.lo}, {self.hi}]")

    def short(self) -> str:
        return f"int[{self.lo}..{self.hi}]"


@dataclass(frozen=True)
class RealType(SemType):
    def short(self) -> str:
        return "real"


@dataclass(frozen=True)
class EnumType(SemType):
    name: str
    values: tuple[str, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"enum {self.name} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"enum {self.name} has duplicate values")

    def short(self) -> str:
        return f"{self.name}{{{','.join(self.values)}}}"


@dataclass(frozen=True)
class UnitType(SemType):
    def short(self) -> str:
        return "unit"


BOOL = BoolType()
INT = IntType()
REAL = RealType()
UNIT = UnitType()


def is_integer(ty: SemType) -> bool:
    return isinstance(ty, (IntType, IntRange))


def is_numeric(ty: SemType) -> bool:
    return is_integer(ty) or isinstance(ty, RealType)


def base_type(ty: SemType) -> SemType:
    """Collapse range refinements to their carrier for expression typing."""
    if isinstance(ty, IntRange):
        return INT
    return ty


def is_value(value, ty: SemType) -> bool:
    """Whether a value (bool, int, Fraction or enum value name) belongs to
    the type."""
    if isinstance(ty, BoolType):
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if isinstance(ty, IntRange):
        return isinstance(value, int) and ty.lo <= value <= ty.hi
    if isinstance(ty, IntType):
        return isinstance(value, int)
    if isinstance(ty, RealType):
        return isinstance(value, (int, Fraction))
    return isinstance(ty, EnumType) and value in ty.values


class Memo:
    """Base of the immutable values that keep facts derived from their fields
    on themselves: terms (but interned references, see Var) and formulas
    their hash, terms and formulas their free references, terms their type,
    simplified formulas their fixed-point mark, an And its conjunct set and
    clash flag, composite component terms their shape (signatures and
    well-formedness, see components.shape), component terms their dependency
    facts (output-input dependency and loop-freeness, see compose._deps) and
    their atomic form, deterministic atomic components their derived output
    signature, atomic components their printed text.  Each fact is computed at most once per value and stored in
    the instance dict under a name that starts with an underscore; it is not
    a field, so repr, ==, fields() and replace() do not see it.

    Facts never leave the process.  A hash depends on the process's hash
    seed, so pickling and copying drop every fact, but for an interned
    reference: a copy is the reference itself, facts and all."""

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


def keep_hash(*classes):
    """Make each dataclass keep its field hash after the first call.  The
    value is the one the dataclass computes, the hash of the tuple of its
    fields, so set and dict order stay as they were."""
    for cls in classes:
        cls.__hash__ = _kept_hash(tuple(f.name for f in fields(cls)))


def _kept_hash(names):
    # attrgetter of one name returns the value, not a 1-tuple
    get = attrgetter(*names) if names else (lambda self: ())
    one = len(names) == 1

    def __hash__(self):
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            key = get(self)
            h = d["_hash"] = hash((key,) if one else key)
        return h

    return __hash__


def intern(cls, key, **values):
    """The object of cls kept under key in its `_table`, made of the field
    values when there is none yet.  The insert is one `setdefault`, so two
    threads that make one key at once get the same object."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return cls._table.setdefault(key, obj)


@dataclass(frozen=True, eq=False, init=False)
class Var:
    """A named, typed variable, one object per (name, type): equal variables
    are the same object, so == and hash are identity, at C speed.  Copies,
    pickles and replace() give back that object."""

    name: str
    ty: SemType
    _table = {}

    def __new__(cls, name: str, ty: SemType):
        v = cls._table.get((name, ty))
        if v is None:
            if not name:
                raise ValueError("variable names must be nonempty")
            v = intern(cls, (name, ty), name=name, ty=ty)
        return v

    def __reduce__(self):
        return Var, (self.name, self.ty)

    def __repr__(self):
        return f"{self.name}:{self.ty.short()}"
