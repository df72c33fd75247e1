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


# payload bytes decoded and split at a time by `_read_ascii`: a chunk's
# values then take a few MB as Python strings
_ASCII_CHUNK = 1 << 18

# the ASCII bytes str.split() splits at
_ASCII_SPACE = [bytes([c]) for c in b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"]


def _read_ascii(path, blob: bytes, start: int, needed: int) -> np.ndarray:
    """The first `needed` values of the ASCII payload blob[start:], float64.

    The payload is decoded, split and parsed a chunk of about _ASCII_CHUNK
    bytes at a time, each chunk ending at whitespace, so it holds whole
    values and gives the values and errors of one split of the whole
    payload: the first byte that is not ASCII anywhere in it, then too few
    values, then the first of the needed values that does not parse.
    """
    flat = np.empty(needed)
    found = 0  # values split so far, counted until `needed`
    error = None
    pos = start
    while pos < len(blob):
        stop = len(blob)
        if pos + _ASCII_CHUNK < len(blob):
            # after the window's last whitespace, or else the first one past it
            cut = max(blob.rfind(c, pos, pos + _ASCII_CHUNK) for c in _ASCII_SPACE)
            if cut < 0:
                cut = min((i for c in _ASCII_SPACE if (i := blob.find(c, pos + _ASCII_CHUNK)) >= 0), default=stop - 1)
            stop = cut + 1
        try:
            text = blob[pos:stop].decode("ascii")
        except UnicodeDecodeError as exc:
            offset = pos + exc.start
            raise MalformedPayloadError(f"{path}: byte {blob[offset]:#04x} at offset {offset} is not ASCII") from None
        pos = stop
        if found >= needed:
            continue  # past the needed values, only the bytes are checked
        values = text.split()[: needed - found]
        if error is None:
            try:
                flat[found : found + len(values)] = np.array(values, dtype=np.float64)
            except ValueError as exc:  # numpy's message quotes the value
                error = exc
        found += len(values)
    if found < needed:
        raise TruncatedPayloadError(f"payload holds {found} values, need {needed}")
    if error is not None:
        raise MalformedPayloadError(f"{path}: {error}")
    return flat


def read_ply(path) -> PointCloud:
    """Read a vertex-only PLY. Raises on malformed headers, short payloads,
    ASCII payloads that do not parse and non-finite coordinates."""
    with open(path, "rb") as fh:
        blob = fh.read()

    end = blob.find(b"end_header\n")
    if not blob.startswith(b"ply") or end < 0:
        raise MalformedHeaderError(f"{path}: not a PLY file (missing ply/end_header)")
    header_lines = blob[:end].decode("ascii", errors="replace").splitlines()
    start = end + len(b"end_header\n")

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
        payload = blob[start:]
        if len(payload) < count * dtype.itemsize:
            raise TruncatedPayloadError(
                f"payload holds {len(payload)} bytes, need {count * dtype.itemsize}"
            )
        rows = np.frombuffer(payload[: count * dtype.itemsize], dtype=dtype)
    else:
        flat = _read_ascii(path, blob, start, count * len(props)).reshape(count, len(props))
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
