"""Out-of-order core: predictor, functional units, noise, trace-driven executor."""

from .core import DEFAULT_SQUASH_DELAY, NEVER, Core
from .fu import FU_ALU, FU_DIV, FU_MUL, FuPool, OccupancyTimeline, fu_for_op
from .noise import NoiseModel, campaign_noise
from .predictor import (
    STRONG_NOT_TAKEN,
    STRONG_TAKEN,
    WEAK_NOT_TAKEN,
    WEAK_TAKEN,
    BimodalPredictor,
    PredictorStats,
)
from .timing import InstructionTiming, RunResult, SquashEvent

__all__ = [
    "Core",
    "DEFAULT_SQUASH_DELAY",
    "NEVER",
    "BimodalPredictor",
    "PredictorStats",
    "STRONG_NOT_TAKEN",
    "WEAK_NOT_TAKEN",
    "WEAK_TAKEN",
    "STRONG_TAKEN",
    "FU_ALU",
    "FU_MUL",
    "FU_DIV",
    "fu_for_op",
    "FuPool",
    "OccupancyTimeline",
    "NoiseModel",
    "campaign_noise",
    "InstructionTiming",
    "RunResult",
    "SquashEvent",
]
