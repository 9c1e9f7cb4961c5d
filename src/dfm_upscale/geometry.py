"""Planar geometry primitives: rectangles, segment clipping and intersection,
supercover cell traversal on a pixel grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rect:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError(f"degenerate rectangle {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.width, self.height))

    def as_tuple(self):
        return (self.x0, self.y0, self.x1, self.y1)


def clip_segments(p0, p1, rect):
    """Liang-Barsky clip of the segments p0[k]-p1[k] to rect.

    p0 and p1 are (n, 2) arrays; rect is a Rect, or an (n, 4) array of
    per-row (x0, y0, x1, y1) bounds. Returns (kept, q0, q1): the indices of
    the segments whose clipped part has nonzero length, in input order, and
    that part's endpoints. Each row runs the per-segment steps: the four
    edges in order, then the t1 > t0 and nonzero-length tests; a row stops
    updating once it is rejected.
    """
    p0 = np.asarray(p0, float).reshape(-1, 2)
    d = np.asarray(p1, float).reshape(-1, 2) - p0
    x0, y0, x1, y1 = (rect.as_tuple() if isinstance(rect, Rect)
                      else np.asarray(rect, float).T)
    t0 = np.zeros(len(p0))
    t1 = np.ones(len(p0))
    alive = np.ones(len(p0), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p, q in (
            (-d[:, 0], p0[:, 0] - x0),
            (d[:, 0], x1 - p0[:, 0]),
            (-d[:, 1], p0[:, 1] - y0),
            (d[:, 1], y1 - p0[:, 1]),
        ):
            r = q / p
            enter = p < 0.0
            leave = p > 0.0
            alive &= ~(((p == 0.0) & (q < 0.0)) | (enter & (r > t1))
                       | (leave & (r < t0)))
            t0 = np.where(alive & enter & (r > t0), r, t0)
            t1 = np.where(alive & leave & (r < t1), r, t1)
    alive &= t1 > t0
    q0 = p0 + t0[:, None] * d
    q1 = p0 + t1[:, None] * d
    alive &= np.hypot(q1[:, 0] - q0[:, 0], q1[:, 1] - q0[:, 1]) != 0.0
    kept = np.flatnonzero(alive)
    return kept, q0[kept], q1[kept]


def runs(counts):
    """(run index, position within the run) of every item of consecutive
    runs with the given lengths."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - np.repeat(np.cumsum(counts) - counts,
                                                counts)


# pairs per broadcast chunk in segment_intersections; bounds its memory
_PAIR_CHUNK = 1 << 18


def segment_intersections(p0, p1, eps: float):
    """Intersections of every pair i < j of the segments p0[k]-p1[k].

    p0 and p1 are (n, 2) arrays. Returns (i, j, points) for the intersecting
    pairs in row-major (i, j) order. Touching within eps counts as
    intersection; parallel/collinear pairs do not (collinear overlap is
    handled by the caller).
    """
    p0 = np.asarray(p0, float).reshape(-1, 2)
    d = np.asarray(p1, float).reshape(-1, 2) - p0
    n = len(p0)
    length = np.hypot(d[:, 0], d[:, 1])
    rows = max(1, _PAIR_CHUNK // max(n, 1))
    found = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 2)))]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tol = eps / length
        for r0 in range(0, n, rows):
            a = np.arange(r0, min(r0 + rows, n))
            da, la, tol_a = d[a, None], length[a, None], tol[a, None]
            denom = da[..., 0] * d[:, 1] - da[..., 1] * d[:, 0]
            w = p0[None, :] - p0[a, None]
            t = (w[..., 0] * d[:, 1] - w[..., 1] * d[:, 0]) / denom
            s = (w[..., 0] * da[..., 1] - w[..., 1] * da[..., 0]) / denom
            hit = ((a[:, None] < np.arange(n)) & (la != 0.0) & (length != 0.0)
                   & ~(np.abs(denom) <= 1e-14 * la * length)
                   & (-tol_a <= t) & (t <= 1.0 + tol_a)
                   & (-tol <= s) & (s <= 1.0 + tol))
            i, j = np.nonzero(hit)
            t = np.clip(t[i, j], 0.0, 1.0)
            i = a[i]
            found.append((i, j, p0[i] + t[:, None] * d[i]))
    i, j, points = zip(*found)
    return np.concatenate(i), np.concatenate(j), np.concatenate(points)


def supercover_cells(a, b, nx: int, ny: int):
    """Grid cells traversed by the segments a[k]-b[k], in cell units.

    a and b are (m, 2) arrays. Each segment is split at its crossings of the
    grid lines; the cell of every piece is the one holding the piece's
    midpoint. Returns (seg, cells): per piece, in (segment, t) order, the
    segment index and the (ix, iy) cell, not deduplicated. A coordinate
    lying exactly on a cell edge is assigned to the larger-index cell, so a
    segment running along an edge marks a single row/column; cells are
    clamped to the grid.
    """
    a = np.asarray(a, float).reshape(-1, 2)
    b = np.asarray(b, float).reshape(-1, 2)
    d = b - a
    m = len(a)
    segs = [np.arange(m), np.arange(m)]
    ts = [np.zeros(m), np.ones(m)]
    for axis in range(2):
        lo = np.ceil(np.minimum(a[:, axis], b[:, axis]))
        hi = np.floor(np.maximum(a[:, axis], b[:, axis]))
        count = np.where(d[:, axis] != 0.0, hi - lo + 1, 0).astype(np.int64)
        seg, step = runs(count)
        t = (lo[seg] + step - a[seg, axis]) / d[seg, axis]
        inside = (0.0 < t) & (t < 1.0)
        segs.append(seg[inside])
        ts.append(t[inside])
    seg = np.concatenate(segs)
    t = np.concatenate(ts)
    # sort by (seg, t): the pieces depend only on the sorted values, so
    # equal breakpoints may come in any order
    order = np.argsort(t)
    order = order[np.argsort(seg[order], kind="stable")]
    seg, t = seg[order], t[order]
    # consecutive distinct breakpoints of one segment bound a piece
    piece = (seg[1:] == seg[:-1]) & (t[1:] != t[:-1])
    seg = seg[1:][piece]
    tm = 0.5 * (t[:-1][piece] + t[1:][piece])
    cells = np.floor(a[seg] + tm[:, None] * d[seg]).astype(np.int64)
    return seg, np.clip(cells, 0, [nx - 1, ny - 1], out=cells)
