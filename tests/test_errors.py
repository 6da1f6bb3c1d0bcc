"""The one bounds check, errors.require, and the fields declared with it.

The oracle table gives each kind of bound its bound itself, one step
outside it (1 for an int, one float ulp for a float), NaN and both
infinities, with the exact message or None where the value passes.
"""

import math
from dataclasses import dataclass, fields

import pytest

from conftest import load_schema
from phrasecritic.critic import CriticHyper
from phrasecritic.errors import (ConfigurationError, bounded, check_bounds,
                                 require)
from phrasecritic.worldsim import GrounderConfig

NAN, INF = math.nan, math.inf
BELOW_0 = math.nextafter(0.0, -1.0)  # -5e-324
ABOVE_0 = math.nextafter(0.0, 1.0)
ABOVE_1 = math.nextafter(1.0, 2.0)
BELOW_1 = math.nextafter(1.0, 0.0)

INT_LOW = {"low": 1}
FLOAT_LOW = {"low": 0}
OPEN_LOW = {"low": 0, "low_open": True}
CLOSED_HIGH = {"low": 0, "high": 1}
OPEN_HIGH = {"low": 0, "high": 1, "high_open": True}
BARE = {}

ORACLE = [
    # an int with a lower bound
    (INT_LOW, 1, None),
    (INT_LOW, 0, "x must be >= 1, got 0"),
    (INT_LOW, NAN, "x must be finite and >= 1, got nan"),
    (INT_LOW, INF, "x must be finite and >= 1, got inf"),
    (INT_LOW, -INF, "x must be finite and >= 1, got -inf"),
    # a float with a lower bound must also be finite
    (FLOAT_LOW, 0.0, None),
    (FLOAT_LOW, BELOW_0, "x must be finite and >= 0, got -5e-324"),
    (FLOAT_LOW, NAN, "x must be finite and >= 0, got nan"),
    (FLOAT_LOW, INF, "x must be finite and >= 0, got inf"),
    (FLOAT_LOW, -INF, "x must be finite and >= 0, got -inf"),
    # an open lower bound rejects the bound itself
    (OPEN_LOW, ABOVE_0, None),
    (OPEN_LOW, 0.0, "x must be finite and > 0, got 0.0"),
    (OPEN_LOW, 0, "x must be > 0, got 0"),
    (OPEN_LOW, NAN, "x must be finite and > 0, got nan"),
    (OPEN_LOW, INF, "x must be finite and > 0, got inf"),
    (OPEN_LOW, -INF, "x must be finite and > 0, got -inf"),
    # a closed upper bound
    (CLOSED_HIGH, 1.0, None),
    (CLOSED_HIGH, 1, None),
    (CLOSED_HIGH, ABOVE_1, "x must be <= 1, got 1.0000000000000002"),
    (CLOSED_HIGH, 2, "x must be <= 1, got 2"),
    (CLOSED_HIGH, NAN, "x must be finite and >= 0, got nan"),
    (CLOSED_HIGH, INF, "x must be finite and >= 0, got inf"),
    (CLOSED_HIGH, -INF, "x must be finite and >= 0, got -inf"),
    # an open upper bound rejects the bound itself
    (OPEN_HIGH, BELOW_1, None),
    (OPEN_HIGH, 1.0, "x must be < 1, got 1.0"),
    (OPEN_HIGH, NAN, "x must be finite and >= 0, got nan"),
    (OPEN_HIGH, INF, "x must be finite and >= 0, got inf"),
    (OPEN_HIGH, -INF, "x must be finite and >= 0, got -inf"),
    # a bare float need only be finite, and an int passes
    (BARE, 1e308, None),
    (BARE, -7, None),
    (BARE, NAN, "x must be finite, got nan"),
    (BARE, INF, "x must be finite, got inf"),
    (BARE, -INF, "x must be finite, got -inf"),
    # None, an unset flag, passes any bound
    (INT_LOW, None, None),
    (OPEN_HIGH, None, None),
    (BARE, None, None),
]


@pytest.mark.parametrize("bounds, value, message", ORACLE)
def test_require_oracle(bounds, value, message):
    if message is None:
        require("x", value, **bounds)
    else:
        with pytest.raises(ConfigurationError) as info:
            require("x", value, **bounds)
        assert str(info.value) == message


@dataclass
class _Record:
    count: int = bounded(1, 1)
    free: float = 0.5
    rate: float = bounded(0.5, 0, 1)


def test_check_bounds_checks_bounded_fields_in_order():
    check_bounds(_Record(free=math.nan))  # an unbounded field is not checked
    with pytest.raises(ConfigurationError, match="^count must be >= 1"):
        check_bounds(_Record(count=0, rate=2.0))
    with pytest.raises(ConfigurationError, match="^rate must be <= 1"):
        check_bounds(_Record(rate=2.0))


def _schema_bounds(bounds) -> dict:
    """A bounded field's bounds in JSON Schema's keywords."""
    keys = {}
    if bounds["low"] is not None:
        keys["exclusiveMinimum" if bounds["low_open"] else "minimum"] = \
            bounds["low"]
    if bounds["high"] is not None:
        keys["exclusiveMaximum" if bounds["high_open"] else "maximum"] = \
            bounds["high"]
    return keys


@pytest.mark.parametrize("record, schema, section, unbounded", [
    (GrounderConfig, "dataset", "grounder", []),
    # a margin of any sign trains; an infinite one diverges (exit 6)
    (CriticHyper, "checkpoint", "hyper", ["margin"]),
])
def test_bounded_fields_agree_with_schema(record, schema, section,
                                          unbounded):
    properties = load_schema(schema)["properties"][section]["properties"]
    keywords = ("minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum")
    assert [f.name for f in fields(record)
            if "bounds" not in f.metadata] == unbounded
    for f in fields(record):
        if "bounds" in f.metadata:
            stated = {k: v for k, v in properties[f.name].items()
                      if k in keywords}
            assert _schema_bounds(f.metadata["bounds"]) == stated, f.name
