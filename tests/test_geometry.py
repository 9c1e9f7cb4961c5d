import numpy as np
import pytest

from dfm_upscale.geometry import (Rect, clip_segment, point_to_cell,
                                  segment_intersections, supercover_cells)


class TestRect:
    def test_properties(self):
        r = Rect(1.0, 2.0, 4.0, 6.0)
        assert r.width == 3.0 and r.height == 4.0
        assert r.area == 12.0
        assert r.diameter == pytest.approx(5.0)
        assert r.contains(2.0, 3.0)
        assert not r.contains(0.0, 3.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(0.0, 0.0, 0.0, 1.0)


class TestClipSegment:
    rect = Rect(0.0, 0.0, 1.0, 1.0)

    def test_inside_unchanged(self):
        q0, q1 = clip_segment((0.2, 0.2), (0.8, 0.9), self.rect)
        assert np.allclose(q0, (0.2, 0.2)) and np.allclose(q1, (0.8, 0.9))

    def test_crossing_clipped(self):
        q0, q1 = clip_segment((-1.0, 0.5), (2.0, 0.5), self.rect)
        assert np.allclose(q0, (0.0, 0.5)) and np.allclose(q1, (1.0, 0.5))

    def test_miss(self):
        assert clip_segment((-1.0, 2.0), (2.0, 2.0), self.rect) is None

    def test_touch_at_corner_is_zero_length(self):
        assert clip_segment((1.0, 1.0), (2.0, 2.0), self.rect) is None


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
        ours = supercover_cells(a, b, 8, 8)
        oracle = self.brute_force(a, b, 8, 8)
        assert ours.shape == oracle.shape
        assert np.array_equal(ours, oracle)

    def test_edge_tie_rounds_up(self):
        # a segment running along the line y=4 marks row 4, not row 3
        cells = supercover_cells((0.5, 4.0), (7.5, 4.0), 8, 8)
        assert set(cells[:, 1]) == {4}

    def test_coverage_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.uniform(0, 16, 2)
            b = rng.uniform(0, 16, 2)
            length = np.hypot(*(b - a))
            n = len(supercover_cells(a, b, 16, 16))
            assert length / 1.0 <= n + 1  # n >= ceil(l) - 1 edge effects
            assert n <= 2 * length + 2
