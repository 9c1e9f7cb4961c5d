from .metrics import Metrics, compute_metrics
from .model import Architecture, SurrogateModel
from .predict import predict_samples, surrogate_backend
from .training import Adam, TrainResult, evaluate, train, write_history_csv

__all__ = [
    "Adam", "Architecture", "Metrics", "SurrogateModel", "TrainResult",
    "compute_metrics", "evaluate", "predict_samples", "surrogate_backend",
    "train", "write_history_csv",
]
