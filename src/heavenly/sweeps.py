"""The per-point store and the chunk loop of stacked passes.

A check run at many points reads, at its point, what one stacked pass
computed for its chunk of points: a field's u-jets and invariants, or the
resolving functions' checked pairs.  Each owner of such values
(`fields.SolutionField`, `resolving.ResolvingFunctions`) keeps them in one
`PointStore`, which `in_sweeps` fills chunk by chunk.  The per-point calls
are its only readers, so a loop gives the bits, the errors and the
exclusions of the per-point path.
"""

from __future__ import annotations

from functools import partial

from .errors import SWEEP_FALLBACK
from .jet import PASS_POINTS


class PointStore:
    """Values by point and name: those of the last `fill`, one row per
    point, or else those of the last point a value was put for.  A point's
    ``key`` holds the bits and types of its coordinates, so 0.0 and -0.0
    are two points, and so are 1 and 1.0.  A value is stored once it
    exists, and a point outside the store then replaces it: a build that
    raises leaves the store as it was.  Stored values are shared between
    calls and must be treated as immutable.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: dict = {}

    def stored(self, p, name):
        """The value stored for p under name, or None; never builds."""
        row = self._rows.get(p.key)
        return None if row is None else row.get(name)

    def put(self, p, name, value) -> None:
        """Store value for p under name; a p outside the store replaces it."""
        row = self._rows.get(p.key)
        if row is None:
            self._rows = {p.key: {name: value}}
        else:
            row[name] = value

    def get(self, p, name, build):
        """The value stored for p under name, built by build() and put on
        first use."""
        row = self._rows.get(p.key)
        if row is not None and name in row:
            return row[name]
        value = build()
        self.put(p, name, value)
        return value

    def fill(self, points, rows) -> None:
        """Replace the store with one stacked pass over points: rows()
        returns one dict per point (name -> value).  If it raises
        (`SWEEP_FALLBACK`), the store is left empty, and each point's calls
        raise or exclude exactly what they do alone."""
        self._rows = {}
        if not points:
            return
        try:
            named = rows()
        except SWEEP_FALLBACK:
            return
        filled = {}
        for p, values in zip(points, named):
            filled.setdefault(p.key, {}).update(values)
        self._rows = filled


def in_sweeps(points: list, passes):
    """Each of points, in chunks of at most PASS_POINTS: before a chunk's
    points are yielded, every (owner, points, build) of passes(chunk) fills
    owner's store from build(owner, points), one stacked pass, so the
    per-point calls of a loop over the chunk read what it computed.  A pass
    that raises costs its chunk alone: that chunk's points are built one by
    one."""
    for start in range(0, len(points), PASS_POINTS):
        chunk = points[start:start + PASS_POINTS]
        for owner, swept, build in passes(chunk):
            owner.store.fill(swept, partial(build, owner, swept))
        yield from chunk
