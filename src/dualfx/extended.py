"""Points of the extended half line [0, inf] with exact rational values.

The exchange rate at a lattice node lives on [0, inf].  Finite values are
strictly positive rationals; zero and infinity have their own tags, so that
a reader can tell a devaluation or an explosion before any arithmetic takes
place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

ZERO = "zero"
FINITE = "finite"
INFINITE = "infinite"


@dataclass(frozen=True)
class ExtendedValue:
    """A point of [0, inf]: tag in {zero, finite, infinite}, value iff finite."""

    tag: str
    value: Fraction | None = None

    def __post_init__(self):
        if self.tag not in (ZERO, FINITE, INFINITE):
            raise ValueError(f"bad tag {self.tag!r}")
        if self.tag == FINITE:
            if self.value is None or self.value <= 0:
                raise ValueError("finite values must be strictly positive rationals")
        elif self.value is not None:
            raise ValueError(f"{self.tag} carries no value")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def infinite() -> "ExtendedValue":
        return ExtendedValue(INFINITE)

    @staticmethod
    def of(x: Rational) -> "ExtendedValue":
        """Build from a nonnegative rational; 0 maps to the zero tag."""
        f = x if type(x) is Fraction else Fraction(x)
        if f < 0:
            raise ValueError("extended values are nonnegative")
        return ExtendedValue(ZERO) if f == 0 else ExtendedValue(FINITE, f)

    @staticmethod
    def parse(s: str) -> "ExtendedValue":
        """Parse "p/q", "0" or "inf" (exact string forms used in JSON specs)."""
        s = s.strip()
        if s in ("inf", "Inf", "INF", "infinity"):
            return ExtendedValue.infinite()
        return ExtendedValue.of(Fraction(s))

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.tag == ZERO

    @property
    def is_finite(self) -> bool:
        return self.tag == FINITE

    @property
    def is_infinite(self) -> bool:
        return self.tag == INFINITE

    @property
    def fraction(self) -> Fraction:
        """Exact rational value; zero maps to 0, infinite raises."""
        if self.tag == INFINITE:
            raise OverflowError("infinite value has no rational representation")
        return Fraction(0) if self.tag == ZERO else self.value

    def __str__(self) -> str:
        if self.tag == ZERO:
            return "0"
        if self.tag == INFINITE:
            return "inf"
        return str(self.value)
