import json
import os
import re
import stat
import threading
import tracemalloc

import pytest

from phrasecritic import jsonio
from phrasecritic.cli import EXIT_BAD_CONFIG, main
from phrasecritic.critic import CriticHyper
from phrasecritic.jsonio import dumps_canonical, read_json, write_json
from phrasecritic.metrics import MethodMetrics, MetricReport
from phrasecritic.worldsim import (GrounderConfig, Region, Scene, Sentence,
                                   Taxonomy)


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


# -- record codec --------------------------------------------------------------

def _records(dataset):
    """One record of every class the codec writes, from a tiny world."""
    scene = dataset.scenes[0]
    foiled = next(s for s in dataset.sentences if s.foil is not None)
    method = MethodMetrics(0.5, 0.25, {"wing": 0.75}, {"wing": 0.125}, 2)
    return [dataset, dataset.taxonomy, dataset.profiles[0], dataset.grounder,
            scene, scene.regions[0], dataset.sentences[0], foiled,
            foiled.foil, method, MetricReport("test", 3, {"fluency": method}),
            CriticHyper(epochs=3, lr=0.5)]


def test_every_record_round_trips(tiny_dataset):
    for record in _records(tiny_dataset):
        text = dumps_canonical(jsonio.record_to_json(record))
        assert jsonio.record_from_json(type(record), json.loads(text)) \
            == record


def _has_tuple(obj):
    if isinstance(obj, tuple):
        return True
    if isinstance(obj, dict):
        return any(map(_has_tuple, obj.values()))
    return isinstance(obj, list) and any(map(_has_tuple, obj))


def test_records_write_plain_json_types(tiny_dataset):
    for record in _records(tiny_dataset):
        assert not _has_tuple(jsonio.record_to_json(record))
    assert not _has_tuple(tiny_dataset.to_json())


def test_scene_writes_id_and_class(tiny_dataset):
    scene = tiny_dataset.scenes[3]
    out = jsonio.record_to_json(scene)
    assert set(out) == {"id", "class", "regions", "keypoints", "split"}
    assert (out["id"], out["class"]) == (scene.scene_id, scene.class_id)


def test_tuple_fields_read_back_as_tuples(tiny_dataset):
    written = dumps_canonical(tiny_dataset.to_json()["scenes"][0])
    scene = jsonio.record_from_json(Scene, json.loads(written))
    assert all(type(r.box) is tuple for r in scene.regions)
    assert all(type(k) is tuple for k in scene.keypoints.values())
    taxonomy = jsonio.record_from_json(
        Taxonomy, jsonio.record_to_json(tiny_dataset.taxonomy))
    assert type(taxonomy.parts) is tuple
    assert all(type(t) is tuple for t in taxonomy.categories.values())


def test_records_read_numbers_with_int_and_float():
    region = jsonio.record_from_json(
        Region, {"part": "wing", "box": [0, 1, 0.5, 0.25], "attrs": {}})
    assert region.box == (0.0, 1.0, 0.5, 0.25)
    assert all(type(v) is float for v in region.box)
    sentence = jsonio.record_from_json(
        Sentence, {"scene_id": 4.0, "tokens": ["a"],
                   "foil": {"index": 0.0, "original": "b"}})
    assert (sentence.scene_id, sentence.foil.index) == (4, 0)
    assert type(sentence.scene_id) is int


@pytest.mark.parametrize("value", [1.5, 0.2, True, False, "4", None])
def test_records_reject_numbers_that_are_not_integers(value):
    """An int field takes a JSON integer or an integral float, nothing that
    int() would truncate or convert."""
    with pytest.raises(TypeError, match=f"^{value!r} is not an integer$"):
        jsonio.record_from_json(Sentence, {"scene_id": value, "tokens": ["a"],
                                           "foil": None})


@pytest.mark.parametrize("value", [True, False, "0.1", None, []])
def test_records_reject_numbers_that_are_not_floats(value):
    """A float field takes a JSON number, nothing that float() would
    convert; in a box as in a record of its own."""
    expected = f"^{re.escape(repr(value))} is not a number$"
    with pytest.raises(TypeError, match=expected):
        jsonio.record_from_json(Region, {"part": "wing", "attrs": {},
                                         "box": [0.1, value, 0.5, 0.25]})
    with pytest.raises(TypeError, match=expected):
        jsonio.record_from_json(GrounderConfig, {"sigma": value,
                                                 "feature_noise": 0.0,
                                                 "seed": 0})


def test_missing_nested_key_exits_5(tmp_path, capsys):
    ds = tmp_path / "ds.json"
    assert main(["synth", "--out", str(ds), "--classes", "3",
                 "--scenes-per-class", "6", "--sentences-per-scene", "2"]) == 0
    payload = read_json(ds)
    del payload["scenes"][0]["regions"][0]["box"]
    write_json(ds, payload)
    capsys.readouterr()
    out = tmp_path / "critic.json"
    assert main(["train", "--dataset", str(ds), "--objective", "binary",
                 "--out", str(out)]) == EXIT_BAD_CONFIG
    message = json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
    assert message.startswith("malformed dataset 'scenes': KeyError")
    assert "'box'" in message
    assert not out.exists()
