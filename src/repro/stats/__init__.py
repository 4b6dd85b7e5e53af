"""Measurement utilities for experiments and benchmarks."""

from .recorders import (LatencyHistogram, LatencyRecorder, ThroughputMeter,
                        percentile)
from .tables import ExperimentRow, ExperimentTable

__all__ = ["ExperimentRow", "ExperimentTable", "LatencyHistogram",
           "LatencyRecorder", "ThroughputMeter", "percentile"]
