"""The numeric policy object: every field must be usable as given."""
from __future__ import annotations

import dataclasses
import math

import pytest

from conicsteps import DEFAULT, Tolerances

FLOAT_FIELDS = [f.name for f in dataclasses.fields(Tolerances) if isinstance(f.default, float)]


class TestTolerances:
    def test_default_is_valid(self):
        assert Tolerances() == DEFAULT
        assert FLOAT_FIELDS == ["on_curve", "confocal"]

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_float_fields_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            Tolerances(**{name: value})

    def test_has_a_written_docstring(self):
        assert not Tolerances.__doc__.startswith("Tolerances(")

    def test_nan_on_curve_rejected(self):
        # NaN would switch every on-curve check off: abs(r) > nan is False
        with pytest.raises(ValueError, match="on_curve"):
            dataclasses.replace(DEFAULT, on_curve=math.nan)

