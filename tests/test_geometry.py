import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfm_upscale.geometry import (Rect, clip_segments, segment_intersections,
                                  supercover_cells)


class TestRect:
    def test_properties(self):
        r = Rect(1.0, 2.0, 4.0, 6.0)
        assert r.width == 3.0 and r.height == 4.0
        assert r.area == 12.0
        assert r.diameter == pytest.approx(5.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(0.0, 0.0, 0.0, 1.0)


def reference_clip(p0, p1, rect: Rect):
    """Scalar Liang-Barsky clip of one segment: the loop form of
    clip_segments, kept as its reference. None if the segment misses the
    rectangle or the clipped part has zero length."""
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


def clip_one(p0, p1, rect):
    kept, q0, q1 = clip_segments([p0], [p1], rect)
    return (q0[0], q1[0]) if len(kept) else None


def assert_clip_matches_reference(p0, p1, rect):
    """rect is one Rect, or a list of one Rect per row."""
    rows = [rect] * len(p0) if isinstance(rect, Rect) else rect
    with np.errstate(over="ignore"):
        expected = [(k, reference_clip(a, b, r))
                    for k, (a, b, r) in enumerate(zip(p0, p1, rows))]
    expected = [(k, q) for k, q in expected if q is not None]
    kept, q0, q1 = clip_segments(
        p0, p1, rect if isinstance(rect, Rect)
        else np.array([r.as_tuple() for r in rect]))
    assert kept.tolist() == [k for k, _ in expected]
    assert np.array_equal(q0, np.reshape([q[0] for _, q in expected],
                                         (-1, 2)))
    assert np.array_equal(q1, np.reshape([q[1] for _, q in expected],
                                         (-1, 2)))


# coordinates that often sit on the edges or corners of CLIP_RECTS, so
# drawn segments run along edges, pass through corners or have zero length
EDGE_VALUES = [-1.0, -0.3, 0.0, 0.2, 0.5, 0.7, 1.0, 1.7, 2.0]
CLIP_RECTS = [Rect(0.0, 0.0, 1.0, 1.0), Rect(-0.3, 0.2, 0.7, 1.7)]
coordinate = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(-2.0, 3.0, allow_nan=False, allow_infinity=False))
point = st.tuples(coordinate, coordinate)


class TestClipSegment:
    rect = Rect(0.0, 0.0, 1.0, 1.0)

    def test_inside_unchanged(self):
        q0, q1 = clip_one((0.2, 0.2), (0.8, 0.9), self.rect)
        assert np.allclose(q0, (0.2, 0.2)) and np.allclose(q1, (0.8, 0.9))

    def test_crossing_clipped(self):
        q0, q1 = clip_one((-1.0, 0.5), (2.0, 0.5), self.rect)
        assert np.allclose(q0, (0.0, 0.5)) and np.allclose(q1, (1.0, 0.5))

    def test_miss(self):
        assert clip_one((-1.0, 2.0), (2.0, 2.0), self.rect) is None

    def test_touch_at_corner_is_zero_length(self):
        assert clip_one((1.0, 1.0), (2.0, 2.0), self.rect) is None

    def test_empty_input(self):
        kept, q0, q1 = clip_segments(np.zeros((0, 2)), np.zeros((0, 2)),
                                     self.rect)
        assert len(kept) == 0 and q0.shape == q1.shape == (0, 2)

    @pytest.mark.parametrize("p0,p1", [
        ((0.5, -1.0), (0.5, 2.0)),    # axis-parallel, crossing
        ((0.0, 0.2), (0.0, 0.8)),     # lying on the left edge
        ((1.0, -1.0), (1.0, 2.0)),    # along the right edge, overhanging
        ((-0.5, 0.3), (0.2, 0.3)),    # horizontal, entering
        ((-1.0, -1.0), (2.0, 2.0)),   # the diagonal through both corners
        ((-1.0, 1.0), (1.0, -1.0)),   # touching the corner (0, 0) only
        ((0.4, 0.4), (0.4, 0.4)),     # zero length inside
        ((1.0, 1.0), (1.0, 1.0)),     # zero length on a corner
        ((2.0, 0.5), (3.0, 0.5)),     # fully outside
        ((0.5, 1.5), (0.5, 1.0)),     # ends on the top edge
    ])
    def test_degenerate_match_reference(self, p0, p1):
        assert_clip_matches_reference([p0], [p1], self.rect)

    @settings(max_examples=300, deadline=None)
    @given(segs=st.lists(st.tuples(point, point), min_size=1, max_size=12),
           rect=st.sampled_from(CLIP_RECTS))
    def test_matches_scalar_reference(self, segs, rect):
        p0 = np.array([a for a, _ in segs])
        p1 = np.array([b for _, b in segs])
        assert_clip_matches_reference(p0, p1, rect)

    @settings(max_examples=200, deadline=None)
    @given(segs=st.lists(st.tuples(point, point, st.sampled_from(CLIP_RECTS)),
                         min_size=1, max_size=12))
    def test_per_row_rects_match_scalar_reference(self, segs):
        p0 = np.array([a for a, _, _ in segs])
        p1 = np.array([b for _, b, _ in segs])
        assert_clip_matches_reference(p0, p1, [r for _, _, r in segs])


def reference_intersection(a0, a1, b0, b1, eps):
    """Scalar intersection of one segment pair: the loop form of
    segment_intersections, kept as its reference."""
    a0, a1, b0, b1 = (np.asarray(p, float) for p in (a0, a1, b0, b1))
    da = a1 - a0
    db = b1 - b0
    denom = da[0] * db[1] - da[1] * db[0]
    la = np.hypot(*da)
    lb = np.hypot(*db)
    if la == 0.0 or lb == 0.0:
        return None
    if abs(denom) <= 1e-14 * la * lb:
        return None
    w = b0 - a0
    t = (w[0] * db[1] - w[1] * db[0]) / denom
    s = (w[0] * da[1] - w[1] * da[0]) / denom
    tol_t = eps / la
    tol_s = eps / lb
    if -tol_t <= t <= 1.0 + tol_t and -tol_s <= s <= 1.0 + tol_s:
        t = min(max(t, 0.0), 1.0)
        return a0 + t * da
    return None


def pair_intersection(a0, a1, b0, b1, eps):
    i, j, pts = segment_intersections([a0, b0], [a1, b1], eps)
    if not len(pts):
        return None
    assert (i.tolist(), j.tolist()) == ([0], [1])
    return pts[0]


class TestSegmentIntersection:
    def test_crossing(self):
        pt = pair_intersection((0, 0), (1, 1), (0, 1), (1, 0), 1e-9)
        assert np.allclose(pt, (0.5, 0.5))

    def test_non_crossing(self):
        assert pair_intersection((0, 0), (1, 0), (0, 1), (1, 1),
                                 1e-9) is None

    def test_parallel_returns_none(self):
        assert pair_intersection((0, 0), (1, 0), (0, 0.0), (1, 0.0),
                                 1e-9) is None

    def test_endpoint_touch_within_eps(self):
        pt = pair_intersection((0, 0), (1, 0), (1.0, -1.0),
                               (1.0 + 1e-12, 1.0), 1e-9)
        assert pt is not None

    def test_all_pairs_match_scalar_reference(self):
        # random segments plus grid-snapped ones that touch, share
        # endpoints, overlap collinearly or have zero length, some moved
        # off the grid by less than eps
        rng = np.random.default_rng(0)
        p0 = rng.uniform(0.0, 1.0, (60, 2))
        p1 = rng.uniform(0.0, 1.0, (60, 2))
        p0[30:] = np.round(p0[30:] * 4) / 4
        p1[30:] = np.round(p1[30:] * 4) / 4
        p0[45:] += rng.uniform(-1e-10, 1e-10, (15, 2))
        p1[-1] = p0[-1]
        expected = []
        for a in range(len(p0)):
            for b in range(a + 1, len(p0)):
                pt = reference_intersection(p0[a], p1[a], p0[b], p1[b], 1e-9)
                if pt is not None:
                    expected.append((a, b, pt))
        i, j, pts = segment_intersections(p0, p1, 1e-9)
        assert list(zip(i.tolist(), j.tolist())) == [e[:2] for e in expected]
        assert np.array_equal(pts, np.array([e[2] for e in expected]))

    def test_pair_chunks_keep_row_major_order(self, monkeypatch):
        rng = np.random.default_rng(1)
        p0 = rng.uniform(0.0, 1.0, (30, 2))
        p1 = rng.uniform(0.0, 1.0, (30, 2))
        whole = segment_intersections(p0, p1, 1e-9)
        monkeypatch.setattr("dfm_upscale.geometry._PAIR_CHUNK", 70)
        chunked = segment_intersections(p0, p1, 1e-9)
        for a, b in zip(whole, chunked):
            assert np.array_equal(a, b)


def reference_supercover(a, b, nx: int, ny: int):
    """Deduplicated (m, 2) array of the (ix, iy) cells of
    reference_pieces."""
    return np.unique(reference_pieces(a, b, nx, ny), axis=0)


def reference_pieces(a, b, nx: int, ny: int):
    """Scalar supercover of one segment: the loop form of supercover_cells,
    kept as its reference. (m, 2) array of the (ix, iy) cell of every
    piece, in t order, not deduplicated."""
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
        p = a + 0.5 * (t0 + t1) * d
        cells.append((point_to_cell(p[0], nx), point_to_cell(p[1], ny)))
    return np.asarray(cells, dtype=np.int64).reshape(-1, 2)


def point_to_cell(x: float, n: int) -> int:
    """Cell of coordinate x in cell units: an exact edge hit goes to the
    larger-index cell; clamped to [0, n-1]."""
    return min(max(int(np.floor(x)), 0), n - 1)


def cells_of_one(a, b, nx, ny):
    seg, cells = supercover_cells([a], [b], nx, ny)
    assert np.all(seg == 0)
    return np.unique(cells, axis=0)


# cell-unit coordinates on an 8 x 8 grid: integers (edge ties), their
# neighbours outside the grid, and arbitrary values
cell_coordinate = st.one_of(
    st.integers(-1, 9).map(float),
    st.sampled_from([0.5, 3.5, 7.5, 8.0]),
    st.floats(-1.0, 9.0, allow_nan=False, allow_infinity=False))
cell_point = st.tuples(cell_coordinate, cell_coordinate)
# segments between integer points cross grid corners, where an x and a y
# crossing share one t
corner_point = st.tuples(st.integers(-1, 9).map(float),
                         st.integers(-1, 9).map(float))


class TestSupercover:
    def brute_force(self, a, b, nx, ny, samples=20001):
        """Oracle: dense point sampling along the segment."""
        a = np.asarray(a, float)
        b = np.asarray(b, float)
        t = np.linspace(0.0, 1.0, samples)
        pts = a + t[:, None] * (b - a)
        cells = {(point_to_cell(x, nx), point_to_cell(y, ny))
                 for x, y in pts}
        return np.array(sorted(cells))

    @pytest.mark.parametrize("a,b", [
        ((0.5, 0.5), (7.5, 3.2)),
        ((0.1, 6.9), (7.9, 0.3)),
        ((2.0, 2.1), (2.0, 5.9)),      # vertical on an edge
        ((0.5, 3.0), (7.5, 3.0)),      # horizontal on an edge
        ((1.3, 1.7), (1.3, 1.7)),      # degenerate point
        ((0.0, 0.0), (8.0, 8.0)),      # exact diagonal through corners
    ])
    def test_matches_point_sampling_oracle(self, a, b):
        ours = cells_of_one(a, b, 8, 8)
        oracle = self.brute_force(a, b, 8, 8)
        assert ours.shape == oracle.shape
        assert np.array_equal(ours, oracle)

    def test_edge_tie_rounds_up(self):
        # a segment running along the line y=4 marks row 4, not row 3
        cells = cells_of_one((0.5, 4.0), (7.5, 4.0), 8, 8)
        assert set(cells[:, 1]) == {4}

    def test_far_edge_clamped(self):
        # the line x = 8 is the grid's right edge: column 7, not 8
        cells = cells_of_one((8.0, 0.5), (8.0, 7.5), 8, 8)
        assert set(cells[:, 0]) == {7}

    def test_coverage_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.uniform(0, 16, 2)
            b = rng.uniform(0, 16, 2)
            length = np.hypot(*(b - a))
            n = len(cells_of_one(a, b, 16, 16))
            assert length / 1.0 <= n + 1  # n >= ceil(l) - 1 edge effects
            assert n <= 2 * length + 2

    def test_pieces_in_segment_order(self):
        seg, cells = supercover_cells([(0.5, 0.5), (3.5, 0.5)],
                                      [(2.5, 0.5), (3.5, 2.5)], 8, 8)
        assert seg.tolist() == [0, 0, 0, 1, 1, 1]
        assert cells.tolist() == [[0, 0], [1, 0], [2, 0],
                                  [3, 0], [3, 1], [3, 2]]

    @settings(max_examples=300, deadline=None)
    @given(segs=st.lists(st.tuples(cell_point, cell_point), min_size=1,
                         max_size=8))
    def test_matches_scalar_reference(self, segs):
        a = np.array([p for p, _ in segs])
        b = np.array([q for _, q in segs])
        seg, cells = supercover_cells(a, b, 8, 8)
        assert np.all(np.diff(seg) >= 0)
        for k in range(len(segs)):
            expected = reference_supercover(a[k], b[k], 8, 8)
            assert np.array_equal(np.unique(cells[seg == k], axis=0),
                                  expected)

    @settings(max_examples=300, deadline=None)
    @given(segs=st.lists(st.one_of(st.tuples(cell_point, cell_point),
                                   st.tuples(corner_point, corner_point)),
                         min_size=1, max_size=8))
    @example(segs=[((0.0, 0.0), (8.0, 8.0)), ((7.0, 1.0), (1.0, 4.0)),
                   ((2.0, 6.0), (2.0, 6.0)), ((-1.0, 9.0), (9.0, -1.0))])
    def test_pieces_match_scalar_reference(self, segs):
        a = np.array([p for p, _ in segs])
        b = np.array([q for _, q in segs])
        seg, cells = supercover_cells(a, b, 8, 8)
        pieces = [reference_pieces(a[k], b[k], 8, 8) for k in range(len(a))]
        assert seg.tolist() == [k for k, p in enumerate(pieces)
                                for _ in range(len(p))]
        assert np.array_equal(cells, np.concatenate(pieces))

    # segment counts on each side of the uint8 and uint16 limits of a
    # segment index
    @pytest.mark.parametrize("m", [255, 256, 65_535, 65_536])
    def test_many_segments_match_one_segment_calls(self, m):
        # the segments cycle through a pool of 257 (coprime with 256 and
        # 65 536, so a wrapped segment index would pair unequal segments);
        # equal inputs give equal one-segment calls, so each is made once
        rng = np.random.default_rng(m)
        pool = rng.uniform(-1.0, 9.0, (257, 2, 2))
        pool[::3] = np.round(pool[::3])  # edge and corner ties
        singles = [supercover_cells(p[:1], p[1:], 8, 8) for p in pool]
        k = np.arange(m) % len(pool)
        seg, cells = supercover_cells(pool[k, 0], pool[k, 1], 8, 8)
        assert seg.dtype == cells.dtype == np.int64
        assert np.array_equal(seg, np.repeat(
            np.arange(m), [len(singles[i][0]) for i in k]))
        assert np.array_equal(cells,
                              np.concatenate([singles[i][1] for i in k]))
