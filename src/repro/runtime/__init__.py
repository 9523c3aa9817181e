"""Runtime layer: workloads, traffic-model records and kernels."""

from repro.runtime.traffic import (
    CHUNK,
    IterationProfile,
    ModelConfig,
    array_compressed_bytes,
    chunked_ids_values_compressed,
    rows_compressed_bytes_from,
)
from repro.runtime.workload import (
    SAMPLE_PERIOD,
    Iteration,
    Workload,
    sample_iterations,
)

__all__ = [
    "CHUNK",
    "Iteration",
    "IterationProfile",
    "ModelConfig",
    "SAMPLE_PERIOD",
    "Workload",
    "array_compressed_bytes",
    "chunked_ids_values_compressed",
    "rows_compressed_bytes_from",
    "sample_iterations",
]
