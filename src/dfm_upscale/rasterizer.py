"""Rasterize blocks' tensor field and fractures into the 4-channel surrogate
input image.

Image layout: image[row, col, ch] with row = y index (row 0 at the bottom of
the block), col = x index. Channels: k_xx, k_xy, k_yy, cross-section. Matrix
pixels carry the nearest field tensor and cross-section 1; fracture pixels
carry isotropic fracture conductivity (k_xy = 0) and the fracture aperture in
the cross-section channel. Pixel-edge ties round toward the larger index;
overlapping fractures resolve by larger aperture (then lower id).

A chunk of blocks is rasterized in one pass: one clip, one supercover trace
and one matrix gather for all of its blocks.
"""

from __future__ import annotations

import numpy as np

from .frac_geom import FractureNetwork
from .geometry import Rect, clip_segments, supercover_cells
from .random_field import TensorField


def rasterize_blocks(field_: TensorField, chunk,
                     resolution: int) -> np.ndarray:
    """The (n, R, R, 4) images of the n (block rect, candidate fractures)
    items of chunk (see homogenizer.block_candidates): nearest-cell matrix
    fill, then one-pixel-wide fracture lines of each block's candidates
    clipped to its rect (any that miss it are ignored)."""
    if resolution < 8:
        raise ValueError("raster resolution must be at least 8")
    r = resolution
    rects = np.array([rect.as_tuple() for rect, _ in chunk])
    width = rects[:, 2] - rects[:, 0]
    if np.any(np.abs(rects[:, 3] - rects[:, 1] - width) > 1e-9 * width):
        raise ValueError("raster blocks must be square")
    pitch = width / r

    # the nearest cell of a pixel center is separable: its x index follows
    # the column and its y index the row
    centers = rects[:, :2, None] + pitch[:, None, None] * (np.arange(r) + 0.5)
    ix, iy = field_.grid.cell_index(centers[:, 0], centers[:, 1])
    table = np.stack([field_.kxx, field_.kxy, field_.kyy,
                      np.ones(field_.grid.shape)], axis=-1).reshape(-1, 4)
    images = np.take(table, ix[:, None, :] * field_.grid.ny + iy[:, :, None],
                     axis=0)

    nets = [candidates for _, candidates in chunk]
    block = np.repeat(np.arange(len(nets)), [len(net) for net in nets])
    fid, aperture, conductivity, p0, p1 = (
        np.concatenate([getattr(net, name) for net in nets])
        for name in ("id", "aperture", "conductivity", "p0", "p1"))
    # draw rank in ascending (block, aperture, -id) order: where fractures
    # overlap in a block, the highest rank (the widest, then the lowest id)
    # owns the pixel
    order = np.lexsort((-fid, aperture, block))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    kept, q0, q1 = clip_segments(p0, p1, rects[block])
    row = block[kept]
    origin = rects[row, :2]
    scale = pitch[row, None]
    seg, cells = supercover_cells((q0 - origin) / scale,
                                  (q1 - origin) / scale, r, r)
    # owner and pixels are indexed flat, (block * R + row) * R + col
    owner = np.full(images.shape[0] * r * r, -1, dtype=np.int64)
    np.maximum.at(owner, (row[seg] * r + cells[:, 1]) * r + cells[:, 0],
                  rank[kept[seg]])
    hit = np.flatnonzero(owner >= 0)
    drawn = order[owner[hit]]
    images.reshape(-1, 4)[hit] = np.stack(
        [conductivity[drawn], np.zeros(len(drawn)), conductivity[drawn],
         aperture[drawn]], axis=1)
    return images


def rasterize_block(field_: TensorField, network: FractureNetwork,
                    block: Rect, resolution: int) -> np.ndarray:
    """The (R, R, 4) image of one block (see rasterize_blocks)."""
    return rasterize_blocks(field_, [(block, network)], resolution)[0]
