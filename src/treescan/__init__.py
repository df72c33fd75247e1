"""Synthetic tree point clouds with exact ground-truth skeletons.

Workflow: generate a skeleton, sweep a tube mesh along it, fit a blended
implicit surface to the mesh, virtual-scan the surface from a handful of
viewpoints, then optionally degrade the cloud (noise, occlusion, uneven
density, resolution variants). The skeleton is the ground truth against
which extracted skeletons are scored by Hausdorff distance.
"""

__version__ = "0.1.0"

from .cloud import PointCloud, read_ply, write_ply
from .degrade import (
    NoiseParams,
    OcclusionParams,
    UnevenParams,
    add_noise,
    default_region,
    density_variants,
    occlude,
    occlude_with_balls,
    occlusion_balls,
    uneven_density,
)
from .errors import (
    EmptyCloudError,
    EmptyMeshError,
    EmptyPointSetError,
    InsufficientTrianglesError,
    InvalidParameterError,
    MalformedHeaderError,
    MalformedPayloadError,
    MissingNormalsError,
    NonFiniteCoordinateError,
    ObjParseError,
    PipelineStageError,
    SkeletonInvariantError,
    SkeletonParseError,
    SurfaceCacheError,
    TooFewPointsError,
    TreescanError,
    TruncatedPayloadError,
    ZeroLengthEdgeError,
)
from .implicit import (
    FitConfig,
    ImplicitSurface,
    build_surface,
    load_surface,
    save_surface,
)
from .mesh import TriangleMesh, load_obj, save_obj, sweep_mesh
from .metrics import (
    SkeletonPointSet,
    directed_hausdorff,
    evaluate,
    hausdorff,
    sample_skeleton,
)
from .pipeline import (
    DatasetManifest,
    PipelineConfig,
    batch,
    load_config,
    run_pipeline,
    save_config,
)
from .primitives import icosphere
from .rng import Stream, derive_seed, normal, uniform, uniform_int
from .scanner import (
    Pose,
    ScanConfig,
    estimate_normals,
    orient_normals,
    scan_surface,
    scan_view,
    viewpoints,
)
from .skeleton import (
    SkeletonGraph,
    SkeletonNode,
    TreeParams,
    generate_skeleton,
    load_skeleton,
    save_skeleton,
)

__all__ = [
    "__version__",
    "PointCloud",
    "read_ply",
    "write_ply",
    "NoiseParams",
    "OcclusionParams",
    "UnevenParams",
    "add_noise",
    "default_region",
    "density_variants",
    "occlude",
    "occlude_with_balls",
    "occlusion_balls",
    "uneven_density",
    "TreescanError",
    "EmptyCloudError",
    "EmptyMeshError",
    "EmptyPointSetError",
    "InsufficientTrianglesError",
    "InvalidParameterError",
    "MalformedHeaderError",
    "MalformedPayloadError",
    "MissingNormalsError",
    "NonFiniteCoordinateError",
    "ObjParseError",
    "PipelineStageError",
    "SkeletonInvariantError",
    "SkeletonParseError",
    "SurfaceCacheError",
    "TooFewPointsError",
    "TruncatedPayloadError",
    "ZeroLengthEdgeError",
    "FitConfig",
    "ImplicitSurface",
    "build_surface",
    "load_surface",
    "save_surface",
    "TriangleMesh",
    "load_obj",
    "save_obj",
    "sweep_mesh",
    "SkeletonPointSet",
    "directed_hausdorff",
    "evaluate",
    "hausdorff",
    "sample_skeleton",
    "DatasetManifest",
    "PipelineConfig",
    "batch",
    "load_config",
    "run_pipeline",
    "save_config",
    "icosphere",
    "Stream",
    "derive_seed",
    "normal",
    "uniform",
    "uniform_int",
    "Pose",
    "ScanConfig",
    "estimate_normals",
    "orient_normals",
    "scan_surface",
    "scan_view",
    "viewpoints",
    "SkeletonGraph",
    "SkeletonNode",
    "TreeParams",
    "generate_skeleton",
    "load_skeleton",
    "save_skeleton",
]
