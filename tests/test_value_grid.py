"""Every engine's values on fixed data, pinned bit for bit.

``tests/value_grid.json`` holds, for every registered family plus
``geks(wgm)``, three reference policies and every period pair of three
seeded churn markets and of the positive, finite degenerate tables, the
value, decomposition, series, components and fixed-point report as
float.hex, or the error's type and message. ``tests/value_grid.py`` wrote
it and recomputes it here.

The file pins the ``math.log``/``math.exp`` results of the CPython 3.11.7
build it was written with, as the pinned verdict-matrix witnesses do:
another libm may differ in the last bit.
"""

from value_grid import compute_grid, load


def test_every_cell_matches_the_pinned_grid():
    pinned = load()
    cells = compute_grid()
    assert list(cells) == list(pinned["cells"]), "the grid's cells changed"
    differing = [(key, pinned["cells"][key], cell) for key, cell in cells.items()
                 if cell != pinned["cells"][key]]
    shown = "\n".join(f"{key}:\n  pinned   {old}\n  computed {new}"
                      for key, old, new in differing[:10])
    assert not differing, (f"{len(differing)} of {len(cells)} cells differ "
                           f"(grid written by Python {pinned['python']}); first ones:\n{shown}")
