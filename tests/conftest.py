import json
from pathlib import Path

import numpy as np
import pytest

from phrasecritic import Dataset, WorldConfig, generate_dataset, grounding

TINY = WorldConfig(num_classes=4, scenes_per_class=10, sentences_per_scene=3)

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / f"{name}.schema.json") as fh:
        return json.load(fh)


def assert_same_groundings(got, want):
    """Two grounded sequences agree field by field, arrays included."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.phrase == b.phrase
        assert (a.part, a.region_index, a.box, a.score) == \
            (b.part, b.region_index, b.box, b.score)
        for name in ("features", "mention", "match"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def record_grounders(monkeypatch) -> list:
    """The scene id of every grounding.ground_many call from now on, in
    order."""
    called = []
    ground_many = grounding.ground_many

    def recording(sentences, scene, taxonomy, config):
        called.append(scene.scene_id)
        return ground_many(sentences, scene, taxonomy, config)

    monkeypatch.setattr(grounding, "ground_many", recording)
    return called


@pytest.fixture(scope="session")
def tiny_config() -> WorldConfig:
    return TINY


@pytest.fixture(scope="session")
def tiny_dataset() -> Dataset:
    return generate_dataset(TINY, seed=0)


@pytest.fixture(scope="session")
def taxonomy(tiny_dataset):
    return tiny_dataset.taxonomy


@pytest.fixture(scope="session")
def scene_by_id(tiny_dataset):
    return {s.scene_id: s for s in tiny_dataset.scenes}
