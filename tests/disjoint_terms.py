"""A region file of 64 disjoint 3D terms, each 64 integer points near a
sphere of radius 1000, the centres 3000 apart on a 4 x 4 x 4 grid: every
pair of terms has boxes that are apart.  The budget test in
test_dsl_cli.py and the CLI timings step of CI both read it from here.

`overlapping_terms(k)` is the opposite case: k such terms, centres
(37i, 7i mod 13, 0), so every subset meets and the inclusion-exclusion
keeps 2^k - 1 distinct intersections, each clipped from the last.

    python tests/disjoint_terms.py OUT.json
"""

import json
import math
import sys
from itertools import product


def sphere_term(centre, r=1000, m=64):
    """m integer points near the sphere of radius r about centre, spread
    along a Fibonacci spiral; each is an extreme point of their hull."""
    pts = []
    for i in range(m):
        z = 1 - (2 * i + 1) / m
        a, s = i * math.pi * (3 - math.sqrt(5)), math.sqrt(1 - z * z)
        pts.append([c + round(r * u) for c, u in zip(centre, (s * math.cos(a), s * math.sin(a), z))])
    return {"vertices": pts, "mode": "closed", "weight": 1}


def disjoint_terms() -> dict:
    return {"dimension": 3,
            "terms": [sphere_term(c) for c in product(range(0, 12000, 3000), repeat=3)]}


def overlapping_terms(k: int) -> dict:
    return {"dimension": 3, "terms": [sphere_term((37 * i, 7 * i % 13, 0)) for i in range(k)]}


if __name__ == "__main__":
    with open(sys.argv[1], "w") as out:
        json.dump(disjoint_terms(), out)
