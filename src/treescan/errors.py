"""Exception types shared across the toolkit."""


class TreescanError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(TreescanError, ValueError):
    """A parameter violates its declared invariant."""


class SkeletonInvariantError(TreescanError, ValueError):
    """A skeleton graph violates a structural invariant (names which one)."""


class ParseError(TreescanError, ValueError):
    """Bad record in a text file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SkeletonParseError(ParseError):
    """Bad skeleton file."""


class ObjParseError(ParseError):
    """Bad OBJ mesh file."""


class ZeroLengthEdgeError(TreescanError, ValueError):
    """Sweep cannot build a tube over an edge of zero length."""


class EmptyMeshError(TreescanError, ValueError):
    """Surface fitting needs at least one non-degenerate triangle."""


class InsufficientTrianglesError(TreescanError, ValueError):
    """A fitted cell's member triangles are all degenerate (zero area)."""


class MissingNormalsError(TreescanError, ValueError):
    """Operation requires a point cloud with normals."""


class EmptyCloudError(TreescanError, ValueError):
    """Operation requires a non-empty point cloud."""


class TooFewPointsError(TreescanError, ValueError):
    """Not enough points for the requested neighborhood size."""


class EmptyPointSetError(TreescanError, ValueError):
    """Hausdorff distances are undefined for empty sets."""


class MalformedHeaderError(TreescanError, ValueError):
    """PLY header is missing or inconsistent."""


class TruncatedPayloadError(TreescanError, ValueError):
    """PLY payload ends before the declared element count."""


class MalformedPayloadError(TreescanError, ValueError):
    """An ASCII PLY payload holds a byte or a value that does not parse."""


class NonFiniteCoordinateError(TreescanError, ValueError):
    """A PLY vertex holds a NaN or infinite position or normal."""


class SurfaceCacheError(TreescanError, ValueError):
    """Fitted-surface cache file is malformed."""


class PipelineStageError(TreescanError, RuntimeError):
    """A pipeline stage failed; partial outputs were removed."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
