"""Points of [0, inf]: tags, exact values and their string forms."""

from fractions import Fraction

import pytest

from dualfx import ExtendedValue as EV


def test_tags_and_values():
    assert EV.of(0).is_zero
    assert EV.of(Fraction(3, 7)).is_finite
    assert EV.infinite().is_infinite
    with pytest.raises(ValueError):
        EV("finite", None)
    with pytest.raises(ValueError):
        EV("finite", Fraction(-1))
    with pytest.raises(ValueError):
        EV.of(-1)


def test_parse_and_str_roundtrip():
    for s in ("0", "inf", "3/7", "5"):
        assert str(EV.parse(s)) == s


def test_fraction_access():
    assert EV.of(0).fraction == 0
    with pytest.raises(OverflowError):
        EV.infinite().fraction
