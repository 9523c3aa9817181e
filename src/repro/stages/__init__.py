"""Content-addressed stage-graph pricing pipeline.

The one pricing path: four pure stages — stream-gen → cache-replay →
compress → timing — whose artifacts persist in the result cache under
fingerprints of (stage code salt, upstream artifact digests,
stage-relevant config slice).  See docs/PIPELINE.md.
"""

from repro.stages.artifacts import (
    CompressArtifact,
    PartitionIterationStreams,
    ReplayArtifact,
    StreamArtifact,
    StreamPartition,
)
from repro.stages.pipeline import (
    ProfileBundle,
    StagePricer,
    load_workload,
    profile_bundle,
    reset_stage_counters,
    stage_counters,
)

__all__ = [
    "CompressArtifact",
    "PartitionIterationStreams",
    "ProfileBundle",
    "ReplayArtifact",
    "StagePricer",
    "StreamArtifact",
    "StreamPartition",
    "load_workload",
    "profile_bundle",
    "reset_stage_counters",
    "stage_counters",
]
