"""Point clouds and their PLY serialization.

Clouds are float64 in memory; files store 32-bit floats, binary
little-endian on write, with ASCII accepted on read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyCloudError,
    MalformedHeaderError,
    MalformedPayloadError,
    NonFiniteCoordinateError,
    TruncatedPayloadError,
)

_PLY_DTYPES = {
    "float": np.dtype("<f4"),
    "float32": np.dtype("<f4"),
    "double": np.dtype("<f8"),
    "float64": np.dtype("<f8"),
}


@dataclass
class PointCloud:
    points: np.ndarray  # (n, 3) float64
    normals: np.ndarray | None = None  # (n, 3) float64, unit length

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
            if len(self.normals) != len(self.points):
                raise ValueError("normals and points must have equal length")

    def __len__(self) -> int:
        return len(self.points)

    def has_normals(self) -> bool:
        return self.normals is not None

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self.points) == 0:
            raise EmptyCloudError("an empty cloud has no bbox")
        return self.points.min(axis=0), self.points.max(axis=0)


def write_ply(cloud: PointCloud, path) -> None:
    props = ["x", "y", "z"] + (["nx", "ny", "nz"] if cloud.has_normals() else [])
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(cloud)}"]
    header += [f"property float {p}" for p in props]
    header.append("end_header")

    data = cloud.points if not cloud.has_normals() else np.hstack([cloud.points, cloud.normals])
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(data.astype("<f4").tobytes())


def read_ply(path) -> PointCloud:
    """Read a vertex-only PLY. Raises on malformed headers, short payloads,
    ASCII payloads that do not parse and non-finite coordinates."""
    with open(path, "rb") as fh:
        blob = fh.read()

    end = blob.find(b"end_header\n")
    if not blob.startswith(b"ply") or end < 0:
        raise MalformedHeaderError(f"{path}: not a PLY file (missing ply/end_header)")
    header_lines = blob[:end].decode("ascii", errors="replace").splitlines()
    payload = blob[end + len(b"end_header\n"):]

    fmt = None
    count = None
    props: list[tuple[str, np.dtype]] = []
    in_vertex = False
    for line in header_lines[1:]:
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if len(tokens) < 2 or tokens[1] not in ("ascii", "binary_little_endian"):
                raise MalformedHeaderError(f"unsupported PLY format: {line!r}")
            fmt = tokens[1]
        elif tokens[0] == "element":
            in_vertex = len(tokens) == 3 and tokens[1] == "vertex"
            if in_vertex:
                if not tokens[2].isdecimal():
                    raise MalformedHeaderError(f"bad vertex count: {line!r}")
                count = int(tokens[2])
            elif count is None:
                raise MalformedHeaderError(f"unsupported leading element: {line!r}")
        elif tokens[0] == "property" and in_vertex:
            if len(tokens) != 3 or tokens[1] not in _PLY_DTYPES:
                raise MalformedHeaderError(f"unsupported property: {line!r}")
            props.append((tokens[2], _PLY_DTYPES[tokens[1]]))
    if fmt is None or count is None:
        raise MalformedHeaderError("header lacks format or vertex element")
    names = [p[0] for p in props]
    if any(axis not in names for axis in ("x", "y", "z")):
        raise MalformedHeaderError(f"vertex element lacks x/y/z, has {names}")

    dtype = np.dtype([(name, dt) for name, dt in props])
    if fmt == "binary_little_endian":
        if len(payload) < count * dtype.itemsize:
            raise TruncatedPayloadError(
                f"payload holds {len(payload)} bytes, need {count * dtype.itemsize}"
            )
        rows = np.frombuffer(payload[: count * dtype.itemsize], dtype=dtype)
    else:
        try:
            text_rows = payload.decode("ascii").split()
        except UnicodeDecodeError as exc:
            byte, offset = payload[exc.start], end + len(b"end_header\n") + exc.start
            raise MalformedPayloadError(f"{path}: byte {byte:#04x} at offset {offset} is not ASCII") from None
        needed = count * len(props)
        if len(text_rows) < needed:
            raise TruncatedPayloadError(f"payload holds {len(text_rows)} values, need {needed}")
        try:
            flat = np.array(text_rows[:needed], dtype=np.float64).reshape(count, len(props))
        except ValueError as exc:  # numpy's message quotes the value
            raise MalformedPayloadError(f"{path}: {exc}") from None
        rows = np.rec.fromarrays(
            [flat[:, i].astype(dt) for i, (_, dt) in enumerate(props)], dtype=dtype
        )

    points = np.stack([rows["x"], rows["y"], rows["z"]], axis=1).astype(np.float64)
    normals = None
    if all(axis in names for axis in ("nx", "ny", "nz")):
        normals = np.stack([rows["nx"], rows["ny"], rows["nz"]], axis=1).astype(np.float64)
    finite = np.isfinite(points).all(axis=1) & (normals is None or np.isfinite(normals).all(axis=1))
    if not finite.all():
        raise NonFiniteCoordinateError(f"{path}: vertex {np.argmin(finite)} has a non-finite position or normal")
    return PointCloud(points, normals)
