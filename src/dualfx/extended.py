"""Points of the extended half line [0, inf] with exact rational arithmetic.

The exchange rate and all payoffs live on [0, inf].  Multiplication follows
the convention inf * 0 = 0, and taking the reciprocal swaps the two absorbing
endpoints.  Finite values are strictly positive rationals; zero has its own
tag so that the convention can be applied before any arithmetic takes place.
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
    def zero() -> "ExtendedValue":
        return ExtendedValue(ZERO)

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

    # -- arithmetic under the inf * 0 = 0 convention -------------------------

    def reciprocal(self) -> "ExtendedValue":
        if self.tag == ZERO:
            return ExtendedValue.infinite()
        if self.tag == INFINITE:
            return ExtendedValue.zero()
        return ExtendedValue(FINITE, 1 / self.value)

    def __mul__(self, other: "ExtendedValue") -> "ExtendedValue":
        if not isinstance(other, ExtendedValue):
            other = ExtendedValue.of(other)
        # inf * 0 = 0 * inf = 0 takes precedence
        if self.tag == ZERO or other.tag == ZERO:
            return ExtendedValue.zero()
        if self.tag == INFINITE or other.tag == INFINITE:
            return ExtendedValue.infinite()
        return ExtendedValue(FINITE, self.value * other.value)

    __rmul__ = __mul__

    def __add__(self, other: "ExtendedValue") -> "ExtendedValue":
        if not isinstance(other, ExtendedValue):
            other = ExtendedValue.of(other)
        if self.tag == INFINITE or other.tag == INFINITE:
            return ExtendedValue.infinite()
        return ExtendedValue.of(self.fraction + other.fraction)

    def scale(self, a: Rational) -> "ExtendedValue":
        """Multiply by a nonnegative rational scalar (inf * 0 = 0 applies)."""
        return self * ExtendedValue.of(a)

    # -- total order Zero < Finite(v) < Infinite -----------------------------

    def _key(self):
        if self.tag == ZERO:
            return (0, Fraction(0))
        if self.tag == FINITE:
            return (1, self.value)
        return (2, Fraction(0))

    def __lt__(self, other: "ExtendedValue") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "ExtendedValue") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "ExtendedValue") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "ExtendedValue") -> bool:
        return self._key() >= other._key()

    def __str__(self) -> str:
        if self.tag == ZERO:
            return "0"
        if self.tag == INFINITE:
            return "inf"
        return str(self.value)

    def as_float(self) -> float:
        if self.tag == INFINITE:
            return float("inf")
        return float(self.fraction)
