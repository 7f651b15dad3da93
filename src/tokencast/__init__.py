"""Hierarchical auto-regressive time series forecasting with mixed-dataset
pretraining, heads-only fine-tuning, and sliding-window decoding."""

from .checkpoint import load_checkpoint, save_checkpoint
from .infer import ForecastRequest, ar_forecast
from .model import ModelConfig, init_model, model_forward, paper_preset
from .train import TrainConfig, finetune_heads, pretrain

__all__ = [
    "ModelConfig",
    "TrainConfig",
    "ForecastRequest",
    "init_model",
    "model_forward",
    "paper_preset",
    "pretrain",
    "finetune_heads",
    "ar_forecast",
    "load_checkpoint",
    "save_checkpoint",
]
