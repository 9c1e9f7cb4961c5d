"""Inference path: rasters -> equivalent tensors in physical units."""

from __future__ import annotations

import numpy as np

from ..dataset_pipeline import inverse_preprocess, preprocess
from ..homogenizer import BlockResults
from ..rasterizer import rasterize_blocks
from .model import SurrogateModel


def predict_samples(model: SurrogateModel, images: np.ndarray) -> np.ndarray:
    """Raw-space (k_xx, k_xy, k_yy) per raster of the (n, 4, R, R) stack
    ``images``, shape (n, 3).

    The rasters are preprocessed with the model's statistics, the forward
    passes run in batches, and every prediction is mapped back through the
    exact inverse of its raster's preprocessing.
    """
    if model.stats is None:
        raise ValueError("the model has no preprocessing statistics")
    model.check_input(images)
    prepped, _, xbars = preprocess(images, None, model.stats)
    preds = model.forward(prepped)
    return inverse_preprocess(None, preds.astype(float), model.stats,
                              xbars)[1]


def surrogate_backend(model: SurrogateModel):
    """Chunk backend for upscaling (see homogenizer.block_tensors): the
    chunk's blocks are rasterized in one pass, then predicted in one
    forward pass."""
    res = model.architecture.resolution

    def run(field, chunk):
        images = rasterize_blocks(field, chunk, res)
        return BlockResults(predict_samples(model, images),
                            np.zeros(len(images)))

    return run
