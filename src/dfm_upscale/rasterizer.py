"""Rasterize a block's tensor field and fractures into the 4-channel surrogate
input image.

Image layout: image[row, col, ch] with row = y index (row 0 at the bottom of
the block), col = x index. Channels: k_xx, k_xy, k_yy, cross-section. Matrix
pixels carry the nearest field tensor and cross-section 1; fracture pixels
carry isotropic fracture conductivity (k_xy = 0) and the fracture aperture in
the cross-section channel. Pixel-edge ties round toward the larger index;
overlapping fractures resolve by larger aperture (then lower id).
"""

from __future__ import annotations

import numpy as np

from .frac_geom import FractureNetwork
from .geometry import Rect, clip_segments, supercover_cells
from .random_field import TensorField


def rasterize_block(field_: TensorField, network: FractureNetwork,
                    block: Rect, resolution: int) -> np.ndarray:
    """The (R, R, 4) image: nearest-cell matrix fill, then one-pixel-wide
    fracture lines of the network's fractures clipped to block (any that
    miss it are ignored)."""
    if resolution < 8:
        raise ValueError("raster resolution must be at least 8")
    r = resolution
    pitch = block.width / r
    if abs(block.height - block.width) > 1e-9 * block.width:
        raise ValueError("raster blocks must be square")

    centers = block.x0 + pitch * (np.arange(r) + 0.5)
    centers_y = block.y0 + pitch * (np.arange(r) + 0.5)
    cx, cy = np.meshgrid(centers, centers_y, indexing="xy")
    tensors = field_.tensor_at(cx, cy)  # (r, r, 2, 2), row-major in y

    image = np.empty((r, r, 4))
    image[:, :, 0] = tensors[:, :, 0, 0]
    image[:, :, 1] = tensors[:, :, 0, 1]
    image[:, :, 2] = tensors[:, :, 1, 1]
    image[:, :, 3] = 1.0

    # draw rank in ascending (aperture, -id) order: where fractures overlap,
    # the highest rank (the widest, then the lowest id) owns the pixel
    order = np.lexsort((-network.id, network.aperture))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    kept, q0, q1 = clip_segments(network.p0, network.p1, block)
    origin = np.array([block.x0, block.y0])
    seg, cells = supercover_cells((q0 - origin) / pitch, (q1 - origin) / pitch,
                                  r, r)
    owner = np.full((r, r), -1, dtype=np.int64)
    np.maximum.at(owner, (cells[:, 1], cells[:, 0]), rank[kept[seg]])
    hit = owner >= 0
    drawn = order[owner[hit]]
    image[hit, 0] = network.conductivity[drawn]
    image[hit, 1] = 0.0
    image[hit, 2] = network.conductivity[drawn]
    image[hit, 3] = network.aperture[drawn]

    return image
