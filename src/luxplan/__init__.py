"""Sensor-placement planning for smart-lighting installations.

Simulates per-luminaire illuminance at candidate sensor locations across
door-position states, scores each location by how many on/off combinations
its summed reading can distinguish, and selects a minimal set of locations
covering every distinguishable state. Also infers on/off combinations from
summed readings (perfect-sum search) and calibrates against recorded logs.
"""
from .geometry import Point2, WallSegment, segments_cross, sightlines_blocked
from .photometry import PhotometricProfile, parse_ies, IESParseError
from .scene import (
    CandidatePoint,
    Door,
    DoorState,
    Grid,
    Luminaire,
    Scene,
    SceneError,
    SceneParseError,
    build_grid,
    door_leaf_segment,
    enumerate_door_states,
    load_scene,
    open_door_state_index,
    parse_scene,
    render_scene,
)
from .transport import (
    ContributionMatrix,
    ContributionVector,
    LightConfig,
    NoiseModel,
    contribution,
    contribution_vector,
    read_matrix_csv,
    reading,
    sweep,
    write_matrix_csv,
)
from .inference import (
    DecodeBatch,
    InferenceResult,
    PerfectSumQuery,
    fuse_candidates,
    fuse_votes,
    infer_reading,
    jaccard_accuracy,
    perfect_sum,
    sensor_votes,
)
from .planning import (
    CoverInstance,
    CoverSolution,
    DEFAULT_TAU,
    DistinctnessVector,
    StateSpace,
    build_cover_instance,
    config_sums_batch,
    distinctness_flags_batch,
    distinctness_vector,
    exact_min_cover,
    greedy_set_cover,
    harmonic_bound,
    heatmap_scores,
    restrict_cover_instance,
)
from .ingest import (
    BaselineTable,
    CalibratedContributions,
    CommandLog,
    LocationAccuracy,
    SampleLog,
    calibrate_contributions,
    evaluate_locations,
    extract_baselines,
    synthesize_logs,
)
from .heatmaps import heatmap_csv, heatmap_pgm, write_heatmap_set

__version__ = "0.1.0"

__all__ = [
    "Point2", "WallSegment", "segments_cross", "sightlines_blocked",
    "PhotometricProfile", "parse_ies", "IESParseError",
    "CandidatePoint", "Door", "DoorState", "Grid", "Luminaire", "Scene",
    "SceneError", "SceneParseError", "build_grid", "door_leaf_segment",
    "enumerate_door_states", "load_scene", "open_door_state_index",
    "parse_scene", "render_scene",
    "ContributionMatrix", "ContributionVector", "LightConfig", "NoiseModel",
    "contribution", "contribution_vector",
    "read_matrix_csv", "reading", "sweep", "write_matrix_csv",
    "DecodeBatch", "InferenceResult", "PerfectSumQuery", "fuse_candidates", "fuse_votes",
    "infer_reading", "jaccard_accuracy", "perfect_sum", "sensor_votes",
    "CoverInstance", "CoverSolution", "DEFAULT_TAU", "DistinctnessVector",
    "StateSpace", "build_cover_instance", "config_sums_batch",
    "distinctness_flags_batch", "distinctness_vector", "exact_min_cover",
    "greedy_set_cover", "harmonic_bound", "heatmap_scores",
    "restrict_cover_instance",
    "BaselineTable", "CalibratedContributions", "CommandLog",
    "LocationAccuracy", "SampleLog", "calibrate_contributions",
    "evaluate_locations", "extract_baselines", "synthesize_logs",
    "heatmap_csv", "heatmap_pgm", "write_heatmap_set",
]
