"""Inference path: raster samples -> equivalent tensors in physical units."""

from __future__ import annotations

import numpy as np

from ..config import fingerprint
from ..dataset_pipeline import inverse_target, preprocess
from ..homogenizer import BlockResults
from .model import SurrogateModel
from .training import predict_in_batches


def predict_samples(model: SurrogateModel, samples, stats: dict) -> np.ndarray:
    """Raw-space (k_xx, k_xy, k_yy) per raster sample, shape (n, 3).

    Each sample is preprocessed with the given statistics, the forward
    passes run in batches, and every prediction is mapped back through the
    exact inverse of its sample's preprocessing.
    """
    if model.stats_hash and model.stats_hash != fingerprint(stats):
        raise ValueError("preprocessing statistics do not match the model")
    images, _, xbars = preprocess(np.stack([s.image for s in samples]),
                                  None, stats)
    preds = predict_in_batches(model, images.astype(np.float32))
    return inverse_target(preds.astype(float), stats, xbars[:, None])


def surrogate_backend(model: SurrogateModel, stats: dict):
    """Chunk backend for upscaling (see homogenizer.block_tensors): the
    chunk's blocks are rasterized, then predicted in one forward pass."""
    from ..rasterizer import rasterize_block

    res = model.architecture.resolution

    def run(field, chunk):
        samples = [rasterize_block(field, clipped, rect, res)
                   for rect, clipped in chunk]
        preds = predict_samples(model, samples, stats)
        return BlockResults(preds, np.zeros(len(preds)))

    return run
