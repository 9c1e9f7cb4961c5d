"""Rasterize a block's tensor field and clipped fractures into the 4-channel
surrogate input image.

Image layout: image[row, col, ch] with row = y index (row 0 at the bottom of
the block), col = x index. Channels: k_xx, k_xy, k_yy, cross-section. Matrix
pixels carry the nearest field tensor and cross-section 1; fracture pixels
carry isotropic fracture conductivity (k_xy = 0) and the fracture aperture in
the cross-section channel. Pixel-edge ties round toward the larger index;
overlapping fractures resolve by larger aperture (then lower id).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frac_geom import FractureNetwork
from .geometry import Rect, clip_segment, supercover_cells
from .random_field import TensorField


@dataclass
class RasterSample:
    image: np.ndarray                  # (R, R, 4)
    target: np.ndarray | None = None   # (3,) equivalent tensor components
    metadata: dict = field(default_factory=dict)

    @property
    def resolution(self) -> int:
        return self.image.shape[0]

    def matrix_mask(self) -> np.ndarray:
        return self.image[:, :, 3] == 1.0


def rasterize_block(field_: TensorField, network: FractureNetwork | None,
                    block: Rect, resolution: int,
                    metadata: dict | None = None) -> RasterSample:
    """Nearest-cell matrix fill, then one-pixel-wide fracture lines."""
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

    fracs = sorted(network.fractures, key=lambda f: (f.aperture, -f.id)) \
        if network is not None else []
    for fr in fracs:  # ascending aperture: the widest drawn last wins
        clipped = clip_segment(*fr.endpoints, block)
        if clipped is None:
            continue
        a = (clipped[0] - np.array([block.x0, block.y0])) / pitch
        b = (clipped[1] - np.array([block.x0, block.y0])) / pitch
        cells = supercover_cells(a, b, r, r)
        rows = cells[:, 1]
        cols = cells[:, 0]
        image[rows, cols, 0] = fr.conductivity
        image[rows, cols, 1] = 0.0
        image[rows, cols, 2] = fr.conductivity
        image[rows, cols, 3] = fr.aperture

    return RasterSample(image=image, metadata=dict(metadata or {}))
