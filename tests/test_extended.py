"""Points of [0, inf]: one exact value each, and their string forms."""

from fractions import Fraction

import pytest

from dualfx.extended import ExtendedValue as EV


def test_predicates_and_values():
    assert EV.of(0).is_zero and EV.of(0) == EV(Fraction(0))
    assert EV.of(Fraction(3, 7)).is_finite
    assert EV.parse("inf").is_infinite and EV.parse("inf") == EV(None)
    for x, kinds in ((EV.of(0), (True, False, False)),
                     (EV.of(5), (False, True, False)),
                     (EV(None), (False, False, True))):
        assert (x.is_zero, x.is_finite, x.is_infinite) == kinds
    for bad in (-1, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            EV.of(bad)
    for bad in (Fraction(-1), 0.5, 1):
        with pytest.raises(ValueError):
            EV(bad)
    with pytest.raises(ValueError):
        EV.parse("-1/2")


def test_parse_and_str_roundtrip():
    for s in ("0", "inf", "3/7", "5"):
        assert str(EV.parse(s)) == s


def test_fraction_access():
    assert EV.of(0).fraction == 0
    assert EV.parse("3/7").fraction == Fraction(3, 7)
    with pytest.raises(OverflowError):
        EV.parse("inf").fraction
