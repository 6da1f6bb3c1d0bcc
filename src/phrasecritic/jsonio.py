"""Canonical JSON helpers.

Every file the pipeline writes goes through write_json, whose bytes are
dumps_canonical's (sorted keys, two-space indent, trailing newline, floats
via repr round-trip), so reruns with the same seed are byte-identical.
Writes stream into a new <name>.tmp that then replaces a new or regular
file (behind any symlink) with its old mode, so a failed write leaves it;
a FIFO, a device, or a file in an unwritable directory is written through.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil

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
