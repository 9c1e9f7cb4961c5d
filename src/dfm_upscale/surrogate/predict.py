"""Inference path: raster samples -> equivalent tensors in physical units."""

from __future__ import annotations

import numpy as np

from ..config import fingerprint
from ..dataset_pipeline import inverse_target, preprocess
from ..homogenizer import EquivalentTensor
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
    images = []
    xbars = []
    for sample in samples:
        image, _, xbar = preprocess(sample.image, None, stats)
        images.append(image)
        xbars.append(xbar)
    preds = predict_in_batches(model, np.asarray(images, np.float32))
    return np.stack([inverse_target(p, stats, xb)
                     for p, xb in zip(preds.astype(float), xbars)])


def surrogate_backend(model: SurrogateModel, stats: dict):
    """Per-block backend for upscaling: rasterize then predict.

    Each block gets its own forward pass on purpose: batching all blocks
    would hold every raster and a larger activation cache at once and raise
    peak memory.
    """
    from ..rasterizer import rasterize_block

    res = model.architecture.resolution

    def run(field, clipped, block, block_id):
        sample = rasterize_block(field, clipped, block, res,
                                 metadata={"block_id": block_id})
        kxx, kxy, kyy = predict_samples(model, [sample], stats)[0]
        return EquivalentTensor(kxx=float(kxx), kxy=float(kxy),
                                kyy=float(kyy), block_id=block_id)

    return run
