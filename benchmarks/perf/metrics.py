"""The benchmark's declared metrics.

``BENCHMARK.json`` at the repository root is the single source for names,
units, directions, regression bounds — and for which metrics are *exact*
(derived from counters, so they repeat bit-for-bit and compare by
equality) as opposed to *wall* (measured by a clock, compared through their
bound).  The manifest's schema is fixed, so exactness rides on the fields
it has: an end-to-end metric is exact when its bound is 0, a per-layer
metric (no bound) when its unit is not one of :data:`WALL_UNITS`.  A
counter added to the manifest with a unit such as ``count`` is therefore
equality-checked without any change here.
"""

from __future__ import annotations

import json
import re

from harness import ROOT

MANIFEST_PATH = ROOT / "BENCHMARK.json"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Units of quantities read from a clock or from the operating system.
#: ``wall_ratio`` is a ratio formed from wall times (``ratio`` is one
#: formed from counts); ``modeled_s`` / ``modeled_1/s`` are on the modeled
#: clock and hence exact.
WALL_UNITS = frozenset({"s", "us", "ns", "1/s", "ns/B", "MB", "wall_ratio",
                        "faults"})


def load_manifest() -> dict:
    return json.loads(MANIFEST_PATH.read_text())


class Declared:
    """Lookup tables over the manifest."""

    def __init__(self, manifest: dict | None = None) -> None:
        m = load_manifest() if manifest is None else manifest
        self.manifest = m
        self.workloads = [w["name"] for w in m["workloads"]]
        self.end_to_end = {e["name"]: e for e in m["end_to_end"]}
        self.per_layer = {e["name"]: e for e in m["per_layer"]}

    def entry(self, name: str) -> dict | None:
        return self.end_to_end.get(name) or self.per_layer.get(name)

    def is_exact(self, name: str) -> bool:
        spec = self.entry(name)
        if "bound" in spec:
            return spec["bound"] == 0
        return spec["unit"] not in WALL_UNITS
