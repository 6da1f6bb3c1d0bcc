"""Canonical JSON helpers.

Every file the pipeline writes goes through write_json, whose bytes are
dumps_canonical's (sorted keys, two-space indent, trailing newline, floats
via repr round-trip), so reruns with the same seed are byte-identical.
Writes stream into a new <name>.tmp that then replaces a new or regular
file (behind any symlink) with its old mode, so a failed write leaves it;
a FIFO, a device, or a file in an unwritable directory is written through.

The record codec writes and reads a dataclass's init fields from their
annotations (records, X | None, and lists, tuples and dicts of either), each
under its name or its metadata={"json": key}. A list, tuple or dict of
strings is one constructor call, as strings are taken as they are;
_read_float reads numbers (an int too), _read_int integers (an integral
float too).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import os
import shutil
import types
import typing

_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


def dumps_canonical(obj) -> str:
    return _ENCODER.encode(obj) + "\n"


def write_json(path, obj) -> None:
    target = os.path.realpath(path)
    if os.path.exists(path) and not (
            os.path.isfile(path)
            and os.access(os.path.dirname(target), os.W_OK)):
        with open(path, "w", encoding="utf-8") as fh:  # through, in one piece
            fh.write(dumps_canonical(obj))
        return
    for n in itertools.count():  # <target>.tmp, or .tmp1, ... if taken
        tmp = f"{target}.tmp{n or ''}"
        with contextlib.suppress(FileExistsError):
            fh = open(tmp, "x", encoding="utf-8")  # mode from the umask
            break
    try:
        with fh:  # in blocks: one write per tiny chunk costs more
            chunks = itertools.chain(_ENCODER.iterencode(obj), "\n")
            while block := "".join(itertools.islice(chunks, 1024)):
                fh.write(block)
        if os.path.exists(target):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def record_to_json(record) -> dict:
    """A record's init fields as plain JSON types (tuples become lists)."""
    return _codec(type(record), False)(record)


def record_from_json(kind, obj):
    """Read obj as kind: a record class, or a list, tuple, dict or optional
    of records or scalars."""
    read = _codec(kind, True)
    return obj if read is None else read(obj)


@functools.cache
def record_fields(kind) -> tuple:
    """(attribute, JSON key, type) of each init field of a dataclass."""
    hints = typing.get_type_hints(kind)
    return tuple((f.name, f.metadata.get("json", f.name), hints[f.name])
                 for f in dataclasses.fields(kind) if f.init)


def _read_int(value) -> int:
    """An int or an integral float, never a bool, string or fraction."""
    whole = int(value) if type(value) is float else value  # inf: OverflowError
    if type(whole) is not int or whole != value:
        raise TypeError(f"{value!r} is not an integer")
    return whole


def _read_float(value) -> float:
    """An int or a float, never a bool, string or None."""
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"{value!r} is not a number")
    return float(value)


@functools.cache
def _codec(kind, reading: bool):
    """A function reading a JSON value as kind, or writing a kind value as
    JSON types; None takes the value as it is."""
    if dataclasses.is_dataclass(kind):
        # compiled, as dataclasses compiles __init__: a loop over the fields
        # per record made Dataset.to_json 1.6 times slower
        env, items = {"kind": kind}, []
        for i, (name, key, hint) in enumerate(record_fields(kind)):
            env[f"f{i}"] = convert = _codec(hint, reading)
            value = f"obj[{key!r}]" if reading else f"obj.{name}"
            value = value if convert is None else f"f{i}({value})"
            items.append(value if reading else f"{key!r}: {value}")
        template = "lambda obj: kind({})" if reading else "lambda obj: {{{}}}"
        return eval(template.format(", ".join(items)), env)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is None:  # a scalar
        readers = {int: _read_int, float: _read_float}
        return readers.get(kind) if reading else None
    if origin in (typing.Union, types.UnionType):  # X | None
        (inner,) = (a for a in args if a is not type(None))
        convert = _codec(inner, reading)
        return convert and (lambda v: None if v is None else convert(v))
    convert = _codec(args[-1] if origin is dict else args[0], reading)
    made = origin if reading or origin is dict else list
    if convert is None:
        return made
    if origin is dict:
        return lambda v: dict(zip(v, map(convert, v.values())))
    return lambda v: made(map(convert, v))
