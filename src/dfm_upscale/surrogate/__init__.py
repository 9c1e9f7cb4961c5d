from .metrics import Metrics, compute_metrics
from .model import Architecture, SurrogateModel
from .predict import predict_samples, surrogate_backend
from .training import (Adam, TrainResult, evaluate, predict_in_batches,
                       train, validation_loss, write_history_csv)

__all__ = [
    "Adam", "Architecture", "Metrics", "SurrogateModel", "TrainResult",
    "compute_metrics", "evaluate", "predict_in_batches", "predict_samples",
    "surrogate_backend", "train", "validation_loss", "write_history_csv",
]
