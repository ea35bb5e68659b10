"""Oracle for the canonical form of one-dimensional objects.

The library merges and sorts generators by integer keys over the common
denominator of their ends.  ``fraction_normalize`` is the same normal
form keyed by the Fraction intervals themselves, as it was first
written: a dict by (interval, shift), sorted by Generator.sort_key.
"""

from sheafconv.sheaf1 import Generator


def fraction_normalize(gens) -> tuple:
    """The canonical generator tuple of a list of generators."""
    merged: dict = {}
    for g in gens:
        key = (g.interval, g.shift)
        old = merged.get(key)
        merged[key] = g if old is None else Generator(g.interval, g.shift, old.mult + g.mult)
    return tuple(sorted(merged.values(), key=Generator.sort_key))
