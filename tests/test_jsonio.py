import json
import os
import stat
import threading
import tracemalloc

import pytest

from phrasecritic import jsonio
from phrasecritic.jsonio import dumps_canonical, read_json, write_json


def test_keys_are_sorted_and_output_ends_with_newline():
    text = dumps_canonical({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("}\n")


def test_floats_round_trip_exactly():
    values = [0.1, 1e-17, 2.0 / 3.0, -5.0, 1234567.875]
    loaded = json.loads(dumps_canonical(values))
    assert loaded == values


def test_same_object_gives_identical_bytes():
    obj = {"x": [1, 2.5, "z"], "y": {"nested": True}}
    assert dumps_canonical(obj) == dumps_canonical(json.loads(
        dumps_canonical(obj)))


def test_write_then_read_round_trip(tmp_path):
    path = tmp_path / "obj.json"
    obj = {"name": "test", "values": [1.5, 2.25]}
    write_json(path, obj)
    assert read_json(path) == obj
    write_json(tmp_path / "again.json", read_json(path))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


# -- streamed, atomic writes ---------------------------------------------------

def _nested(depth):
    obj = {"leaf": [1, -0.0]}
    for i in range(depth):
        obj = {"level": i, "next": [obj, {}]}
    return obj


@pytest.mark.parametrize("obj", [
    {"special": [float("nan"), float("inf"), float("-inf"), -0.0, 1e-17,
                 0.1, 2.0 / 3.0, 1e300, -5, 0]},
    {"text": ["héllo", "日本", "\x00\x01\x1f\x7f\t\n\r",
              "quote \" backslash \\ slash /", " 😀", ""]},
    {"z": {}, "a": [], "m": [{}, [], [[]], {"": None}], "b": [True, False]},
    _nested(60),
    "a top-level string é",
    [1, "two", 3.5, None, [], {"k": "v"}],
    {}, [],
], ids=["floats", "strings", "empties", "deep", "str", "list", "dict0",
        "list0"])
def test_write_json_bytes_are_json_dumps(tmp_path, obj):
    path = tmp_path / "obj.json"
    write_json(path, obj)
    want = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert path.read_bytes() == want.encode("utf-8")
    assert dumps_canonical(obj) == want
    assert [p.name for p in tmp_path.iterdir()] == ["obj.json"]


def test_write_json_memory_does_not_grow_with_the_document(tmp_path):
    obj = {"rows": [[i / 7.0, f"token{i}", {"id": i}]
                    for i in range(30_000)]}
    size = len(dumps_canonical(obj))
    assert size >= 2_000_000
    tracemalloc.start()
    try:
        write_json(tmp_path / "big.json", obj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 4
    assert (tmp_path / "big.json").stat().st_size == size


def test_failed_write_leaves_the_old_target(tmp_path):
    path = tmp_path / "obj.json"
    write_json(path, {"kept": [1, 2, 3]})
    before = path.read_bytes()
    # sorted keys put the bad value last, after chunks reached the temp file
    with pytest.raises(TypeError):
        write_json(path, {"a": list(range(5000)), "z": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["obj.json"]


# -- what the target is --------------------------------------------------------

def test_rewrite_keeps_the_old_files_mode(tmp_path):
    path = tmp_path / "obj.json"
    write_json(path, {"v": 1})
    path.chmod(0o640)
    write_json(path, {"v": 2})
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert read_json(path) == {"v": 2}


def test_new_file_mode_follows_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_json(tmp_path / "obj.json", {"v": 1})
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "obj.json").stat().st_mode) == 0o640


def test_symlinked_target_is_replaced_behind_the_link(tmp_path):
    real = tmp_path / "real.json"
    real.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    write_json(link, {"v": 1})
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text() == dumps_canonical({"v": 1})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json",
                                                          "real.json"]


def test_an_existing_tmp_file_is_left_alone(tmp_path):
    path = tmp_path / "obj.json"
    (tmp_path / "obj.json.tmp").write_text("someone else's\n")
    write_json(path, {"v": 1})
    assert read_json(path) == {"v": 1}
    assert (tmp_path / "obj.json.tmp").read_text() == "someone else's\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["obj.json",
                                                          "obj.json.tmp"]


def test_fifo_is_written_through(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    write_json(fifo, {"v": [1, 2]})
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [dumps_canonical({"v": [1, 2]}).encode("utf-8")]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_file_in_an_unwritable_directory_is_written_through(tmp_path,
                                                            monkeypatch):
    path = tmp_path / "obj.json"
    path.write_text("old\n")
    inode = path.stat().st_ino
    # the process may run as root, which chmod cannot keep out
    monkeypatch.setattr(jsonio.os, "access", lambda *args: False)
    write_json(path, {"v": 1})
    assert path.stat().st_ino == inode
    assert path.read_text() == dumps_canonical({"v": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["obj.json"]
