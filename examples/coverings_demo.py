#!/usr/bin/env python3
"""Coverings demo: regenerate the paper's Figure 1 as GeoJSON.

Computes the covering (blue, candidate cells) and interior covering
(green, true-hit cells) of a single complex polygon, plus the super
covering of a multi-polygon bay-like area, and writes them as GeoJSON
FeatureCollections you can drop into geojson.io / QGIS.

Run:  python examples/coverings_demo.py [output_dir]
"""

import sys
from pathlib import Path

from repro.act.builder import ACTBuilder
from repro.datasets import neighborhoods
from repro.geometry import geojson
from repro.geometry.polygon import box_polygon
from repro.grid import cellid
from repro.grid.planar import PlanarGrid


def cell_feature(grid, cell, kind):
    return geojson.feature(
        box_polygon(grid.cell_rect(cell)),
        {"kind": kind, "level": cellid.level(cell),
         "cell": cellid.to_token(cell)},
    )


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    polygons = neighborhoods(30, seed=12)
    grid = PlanarGrid.for_polygons(polygons)
    builder = ACTBuilder(grid)

    # --- Figure 1a: covering + interior covering of one polygon --------
    polygon = polygons[0]
    level = builder.boundary_level_for(120.0)
    covering = builder._coverer.cover(polygon, boundary_level=level)
    features = [geojson.feature(polygon, {"kind": "polygon"})]
    features += [cell_feature(grid, c, "covering")
                 for c in covering.boundary]
    features += [cell_feature(grid, c, "interior")
                 for c in covering.interior]
    single = out_dir / "figure1a_single_covering.geojson"
    geojson.dump_features(single, features)
    print(f"figure 1a: {len(covering.boundary)} covering + "
          f"{len(covering.interior)} interior cells -> {single}")

    # --- Figure 1b: super covering of several neighborhoods ------------
    group = polygons[:6]
    result = builder.build(group, precision_meters=120.0)
    features = [geojson.feature(p, {"kind": "polygon", "id": pid})
                for pid, p in enumerate(group)]
    for cell, refs in result.super_covering.items():
        interior = all(r & 1 for r in refs)
        features.append(cell_feature(
            grid, cell, "interior" if interior else "covering"
        ))
    multi = out_dir / "figure1b_super_covering.geojson"
    geojson.dump_features(multi, features)
    print(f"figure 1b: {result.super_covering.num_cells} super-covering "
          f"cells ({result.stats.indexed_cells:,} after denormalization) "
          f"-> {multi}")
    print("open the files in geojson.io or QGIS; style by the "
          "'kind' property (covering=blue, interior=green).")


if __name__ == "__main__":
    main()
