"""Value types carried by component signatures, and typed variables."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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


@dataclass(frozen=True)
class Var:
    """A named, typed variable.  Equality is (name, type) equality."""

    name: str
    ty: SemType

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable names must be nonempty")

    def __repr__(self):
        return f"{self.name}:{self.ty.short()}"
