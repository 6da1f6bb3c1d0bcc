"""SVG scene rendering: structure, determinism, highlighting."""

from phrasecritic.render import CANVAS, scene_to_svg, write_svg


def test_svg_structure(tiny_dataset):
    scene = tiny_dataset.scenes[0]
    svg = scene_to_svg(scene)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.endswith("</svg>\n")
    assert f'width="{CANVAS}"' in svg
    assert f"scene {scene.scene_id} (class {scene.class_id})" in svg
    # one rect per region plus the background, one circle per keypoint
    assert svg.count("<rect") == len(scene.regions) + 1
    assert svg.count("<circle") == len(scene.keypoints)
    assert svg.count("<text") == len(scene.regions)
    for region in scene.regions:
        assert f"{region.attrs['color']} " in svg


def test_svg_deterministic_and_order_independent(tiny_dataset):
    scene = tiny_dataset.scenes[0]
    assert scene_to_svg(scene) == scene_to_svg(scene)
    # region order is presentation-irrelevant: rendering sorts by part
    from phrasecritic.worldsim import Scene
    shuffled = Scene(scene.scene_id, scene.class_id,
                     list(reversed(scene.regions)), scene.keypoints,
                     scene.split)
    assert scene_to_svg(shuffled) == scene_to_svg(scene)


def test_svg_highlight(tiny_dataset):
    scene = tiny_dataset.scenes[0]
    plain = scene_to_svg(scene)
    marked = scene_to_svg(scene, highlight=("wing",))
    assert plain != marked
    assert 'stroke-width="3"' not in plain
    assert marked.count('stroke-width="3"') == 1
    both = scene_to_svg(scene, highlight=("wing", "head"))
    assert both.count('stroke-width="3"') == 2


def test_write_svg(tmp_path, tiny_dataset):
    scene = tiny_dataset.scenes[0]
    path = tmp_path / "scene.svg"
    write_svg(path, scene)
    assert path.read_text(encoding="utf-8") == scene_to_svg(scene)


def test_every_taxonomy_colour_has_a_fill():
    from phrasecritic.render import _PALETTE
    from phrasecritic.worldsim import _TOKEN_POOLS
    assert set(_TOKEN_POOLS["color"]) <= set(_PALETTE)
