"""Shared exception types, each mapped to a distinct CLI exit code, and the
one bounds check every input number goes through."""

import dataclasses
import math


class ConfigurationError(ValueError):
    """A configuration value is outside the supported range."""


class GenerationError(RuntimeError):
    """A bounded stochastic search failed to satisfy its constraints."""


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupt, or has an unsupported version."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss; carries the partial report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def require(name, value, low=None, high=None, low_open=False,
            high_open=False) -> None:
    """Raise ConfigurationError("<name> must be <condition>, got <value>")
    unless value is None or lies within the bounds (open ones exclusive).
    A float must also be finite: its lower condition reads "finite and
    >= low", or "finite" alone without a lower bound."""
    if value is None:
        return
    is_float = isinstance(value, float)
    if (is_float and not math.isfinite(value)) or low is not None and (
            value <= low if low_open else value < low):
        rule = [] if low is None else [f"{'>' if low_open else '>='} {low}"]
        condition = " and ".join((["finite"] if is_float else []) + rule)
    elif high is not None and (value >= high if high_open else value > high):
        condition = f"{'<' if high_open else '<='} {high}"
    else:
        return
    raise ConfigurationError(f"{name} must be {condition}, got {value}")


def bounded(default, low=None, high=None, low_open=False, high_open=False):
    """A dataclass field whose value check_bounds holds to these bounds."""
    bounds = {"low": low, "high": high, "low_open": low_open,
              "high_open": high_open}
    return dataclasses.field(default=default, metadata={"bounds": bounds})


def check_bounds(record) -> None:
    """require() each bounded field of a dataclass record, in field order;
    a record sets __post_init__ = check_bounds to check on construction."""
    for f in dataclasses.fields(record):
        if "bounds" in f.metadata:
            require(f.name, getattr(record, f.name), **f.metadata["bounds"])
