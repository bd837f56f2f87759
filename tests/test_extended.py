"""Arithmetic on [0, inf] with the inf * 0 = 0 convention."""

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


def test_inf_times_zero_is_zero():
    assert EV.infinite().scale(0).is_zero
    assert EV.zero().scale(5).is_zero
    assert EV.infinite().scale(Fraction(2, 3)).is_infinite
    assert EV.of(2).scale(Fraction(1, 2)).fraction == 1
    with pytest.raises(ValueError):
        EV.infinite().scale(-1)


def test_addition():
    assert (EV.of(1) + EV.infinite()).is_infinite
    assert (EV.of(1) + EV.of(2)).fraction == 3


def test_fraction_access():
    assert EV.zero().fraction == 0
    with pytest.raises(OverflowError):
        EV.infinite().fraction
