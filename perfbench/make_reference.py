"""Write ``reference_points.json``: direct ``run_point`` pricing of the grid.

Every registered workload x the campaign relax levels at 64 MiB, priced
by :func:`repro.runtime.campaign.run_point` with no pool, no supervisor
and a harness of the serving geometry (1024-element tiles, seed 2017).
The pricing mix is a subset of this grid.  Run it from the repository
root when pricing is meant to change::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from common import (
    CAMPAIGN_LEVELS, DATASET_BYTES, PRICING_SEED, REFERENCE_PATH,
    TILE_ELEMENTS, import_program,
)


def main() -> None:
    import_program()
    from repro.runtime.campaign import point_key, run_point
    from repro.runtime.comparison import ComparisonHarness
    from repro.workloads import workload_by_name
    from repro.workloads.registry import workload_names

    points = {}
    for name in workload_names():
        harness = ComparisonHarness(tile_elements=TILE_ELEMENTS,
                                    rng_seed=PRICING_SEED)
        for level in CAMPAIGN_LEVELS:
            point = run_point(workload_by_name(name), level,
                              float(DATASET_BYTES), harness)
            points[point_key(name, level, DATASET_BYTES)] = (
                dataclasses.asdict(point))
    canonical = json.dumps(points, sort_keys=True).encode()
    document = {
        "meta": {
            "tile_elements": TILE_ELEMENTS,
            "seed": PRICING_SEED,
            "dataset_bytes": DATASET_BYTES,
            "levels": list(CAMPAIGN_LEVELS),
            "sha256": hashlib.sha256(canonical).hexdigest(),
        },
        "points": points,
    }
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(points)} points to {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
