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

    def contains(self, x, y, tol: float = 0.0) -> bool:
        return (self.x0 - tol <= x <= self.x1 + tol
                and self.y0 - tol <= y <= self.y1 + tol)

    def as_tuple(self):
        return (self.x0, self.y0, self.x1, self.y1)


def clip_segment(p0, p1, rect: Rect):
    """Liang-Barsky clip of segment p0-p1 to rect.

    Returns (q0, q1) as float arrays, or None if the segment misses the
    rectangle or the clipped part has zero length.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = p1 - p0
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-d[0], p0[0] - rect.x0),
        (d[0], rect.x1 - p0[0]),
        (-d[1], p0[1] - rect.y0),
        (d[1], rect.y1 - p0[1]),
    ):
        if p == 0.0:
            if q < 0.0:
                return None
            continue
        r = q / p
        if p < 0.0:
            if r > t1:
                return None
            t0 = max(t0, r)
        else:
            if r < t0:
                return None
            t1 = min(t1, r)
    if t1 <= t0:
        return None
    q0 = p0 + t0 * d
    q1 = p0 + t1 * d
    if np.hypot(*(q1 - q0)) == 0.0:
        return None
    return q0, q1


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
    with np.errstate(divide="ignore", invalid="ignore"):
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


def point_to_cell(x: float, n: int) -> int:
    """Cell index of coordinate x (in cell units); an exact edge hit is
    assigned to the larger-index cell; clamped to [0, n-1]."""
    i = int(np.floor(x))
    return min(max(i, 0), n - 1)


def supercover_cells(a, b, nx: int, ny: int):
    """Grid cells traversed by segment a-b, coordinates in cell units.

    Returns a deduplicated (m, 2) int array of (ix, iy). A coordinate lying
    exactly on a cell edge is assigned to the larger-index cell, so a segment
    running along an edge marks a single row/column.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    d = b - a
    ts = [0.0, 1.0]
    for axis in range(2):
        if d[axis] != 0.0:
            lo = int(np.ceil(min(a[axis], b[axis])))
            hi = int(np.floor(max(a[axis], b[axis])))
            for k in range(lo, hi + 1):
                t = (k - a[axis]) / d[axis]
                if 0.0 < t < 1.0:
                    ts.append(t)
    ts = np.unique(np.asarray(ts))
    cells = []
    for t0, t1 in zip(ts[:-1], ts[1:]):
        tm = 0.5 * (t0 + t1)
        p = a + tm * d
        cells.append((point_to_cell(p[0], nx), point_to_cell(p[1], ny)))
    if len(ts) == 1:  # degenerate: a == b
        cells.append((point_to_cell(a[0], nx), point_to_cell(a[1], ny)))
    return np.unique(np.asarray(cells, dtype=np.int64), axis=0)
