"""Rasterize blocks' tensor field and fractures into the 4-channel surrogate
input image.

Image layout: image[ch, row, col] with row = y index (row 0 at the bottom of
the block), col = x index. Channels: k_xx, k_xy, k_yy, cross-section. Matrix
pixels carry the nearest field tensor and cross-section 1; fracture pixels
carry isotropic fracture conductivity (k_xy = 0) and the fracture aperture in
the cross-section channel. Pixel-edge ties round toward the larger index;
overlapping fractures resolve by larger aperture (then lower id).

A chunk of blocks is rasterized in one pass from its clipped fracture table
(see frac_geom.clip_to_blocks): one supercover trace and one matrix gather
for all of its blocks.
"""

from __future__ import annotations

import numpy as np

from .frac_geom import BlockChunk
from .geometry import supercover_cells
from .random_field import TensorField


def rasterize_blocks(field_: TensorField, chunk: BlockChunk,
                     resolution: int) -> np.ndarray:
    """The (n, 4, R, R) images of the n blocks of chunk: nearest-cell
    matrix fill, then one-pixel-wide lines of each block's clipped
    fractures."""
    if resolution < 8:
        raise ValueError("raster resolution must be at least 8")
    r = resolution
    rects = chunk.rects
    width = rects[:, 2] - rects[:, 0]
    if np.any(np.abs(rects[:, 3] - rects[:, 1] - width) > 1e-9 * width):
        raise ValueError("raster blocks must be square")
    pitch = width / r

    # the nearest cell of a pixel center is separable: its x index follows
    # the column and its y index the row
    centers = rects[:, :2, None] + pitch[:, None, None] * (np.arange(r) + 0.5)
    ix, iy = field_.grid.cell_index(centers[:, 0], centers[:, 1])
    cell = ix[:, None, :] * field_.grid.ny + iy[:, :, None]
    images = np.empty((len(rects), 4, r, r))
    for c, table in enumerate(np.moveaxis(field_.k, -1, 0).reshape(3, -1)):
        np.take(table, cell, out=images[:, c])
    images[:, 3] = 1.0

    # draw rank in ascending (block, aperture, -id) order: where fractures
    # overlap in a block, the highest rank (the widest, then the lowest id)
    # owns the pixel
    blk = chunk.block
    order = np.lexsort((-chunk.id, chunk.aperture, blk))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    origin = rects[blk, :2]
    scale = pitch[blk, None]
    seg, cells = supercover_cells((chunk.p0 - origin) / scale,
                                  (chunk.p1 - origin) / scale, r, r)
    # owner is indexed by pixel, (block * R + row) * R + col; channel c of
    # pixel p of block b is element (4 * b + c) * R * R + p of the images
    owner = np.full(len(rects) * r * r, -1, dtype=np.int64)
    np.maximum.at(owner, (blk[seg] * r + cells[:, 1]) * r + cells[:, 0],
                  rank[seg])
    hit = np.flatnonzero(owner >= 0)
    drawn = order[owner[hit]]
    at = hit + 3 * r * r * (hit // (r * r))
    k = chunk.conductivity[drawn]
    for c, value in enumerate((k, 0.0, k, chunk.aperture[drawn])):
        images.reshape(-1)[at + c * r * r] = value
    return images
