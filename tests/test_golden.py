"""Every CLI artifact of two small worlds matches tests/golden/digests.json.

tools/update_golden.py holds the pipeline and rewrites the manifest; this
test reruns the pipeline in-process and names each artifact whose SHA-256
moved. The manifest records the Python and numpy versions it was made
with: under others the test fails, naming both, instead of skipping.
"""

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "update_golden.py"
_SPEC = importlib.util.spec_from_file_location("update_golden", _TOOL)
update_golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(update_golden)


def test_artifacts_match_golden_digests():
    with open(update_golden.MANIFEST, encoding="utf-8") as fh:
        want = json.load(fh)
    assert update_golden.versions() == want["versions"], (
        f"the golden digests were made under {want['versions']}, this is "
        f"{update_golden.versions()}; rerun tools/update_golden.py")
    got = update_golden.build_manifest()["digests"]
    moved = [f"{world}/{name}" for world, table in want["digests"].items()
             for name, digest in table.items()
             if got.get(world, {}).get(name) != digest]
    assert got == want["digests"], f"artifacts moved: {moved}"
