"""Deterministic SVG rendering of scenes and grounded explanations.

Output is plain string assembly with fixed float formatting so the same
scene always yields byte-identical markup.
"""

from __future__ import annotations

from .worldsim import Scene

CANVAS = 480

_PALETTE = {
    "red": "#c0392b", "blue": "#2980b9", "green": "#27ae60",
    "yellow": "#f1c40f", "black": "#2c3e50", "white": "#ecf0f1",
    "brown": "#8e6e53", "grey": "#95a5a6", "orange": "#e67e22",
    "pink": "#e84393",
}
_FALLBACK_FILL = "#bdc3c7"


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _region_fill(region) -> str:
    color = region.attrs.get("color")
    return _PALETTE.get(color, _FALLBACK_FILL)


def scene_to_svg(scene: Scene, highlight: tuple[str, ...] = ()) -> str:
    """Render a scene's region boxes and keypoints as an SVG document.

    highlight names parts whose boxes get a thick outline (used to show
    which regions an explanation's phrases grounded to).
    """
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" '
        f'height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
        f'  <rect width="{CANVAS}" height="{CANVAS}" fill="#fdfefe"/>',
        f'  <title>scene {scene.scene_id} (class {scene.class_id})</title>',
    ]
    ordered = sorted(scene.regions, key=lambda r: r.part)
    for region in ordered:
        x, y, w, h = (v * CANVAS for v in region.box)
        stroke = "#e74c3c" if region.part in highlight else "#34495e"
        width = "3" if region.part in highlight else "1"
        label = " ".join(
            [region.attrs[c] for c in sorted(region.attrs)] + [region.part])
        lines.append(
            f'  <rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{_region_fill(region)}" '
            f'fill-opacity="0.45" stroke="{stroke}" stroke-width="{width}"/>')
        lines.append(
            f'  <text x="{_fmt(x + 2)}" y="{_fmt(y + 11)}" '
            f'font-size="10" font-family="monospace" '
            f'fill="#2c3e50">{label}</text>')
    for part in sorted(scene.keypoints):
        kx, ky = scene.keypoints[part]
        lines.append(
            f'  <circle cx="{_fmt(kx * CANVAS)}" cy="{_fmt(ky * CANVAS)}" '
            f'r="3" fill="#e74c3c"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_svg(path, scene: Scene, highlight: tuple[str, ...] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scene_to_svg(scene, highlight))
