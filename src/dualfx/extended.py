"""Points of the extended half line [0, inf], where the exchange rate at a
lattice node lives: 0 is a devaluation and inf an explosion."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_INF_SPELLINGS = ("inf", "Inf", "INF", "infinity")


@dataclass(frozen=True)
class ExtendedValue:
    """A point of [0, inf]: a Fraction >= 0, or None for inf."""

    value: Fraction | None

    def __post_init__(self):
        v = self.value
        if v is not None and not (type(v) is Fraction and v.numerator >= 0):
            raise ValueError(f"an extended value is a Fraction >= 0 or None, "
                             f"not {v!r}")

    @staticmethod
    def of(x: int | Fraction) -> "ExtendedValue":
        """Build from a nonnegative rational."""
        return ExtendedValue(x if type(x) is Fraction else Fraction(x))

    @staticmethod
    def parse(s: str) -> "ExtendedValue":
        """Parse "p/q", "0" or "inf" (exact string forms used in JSON specs)."""
        s = s.strip()
        if s in _INF_SPELLINGS:
            return ExtendedValue(None)
        return ExtendedValue.of(Fraction(s))

    # the predicates read None and the numerator: no Fraction comparison
    @property
    def is_zero(self) -> bool:
        return self.value is not None and self.value.numerator == 0

    @property
    def is_finite(self) -> bool:
        return self.value is not None and self.value.numerator != 0

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def fraction(self) -> Fraction:
        """Exact rational value; infinite raises."""
        if self.value is None:
            raise OverflowError("infinite value has no rational representation")
        return self.value

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)
