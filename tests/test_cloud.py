"""PointCloud container and PLY serialization."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from treescan import (
    EmptyCloudError,
    MalformedHeaderError,
    MalformedPayloadError,
    NonFiniteCoordinateError,
    PointCloud,
    TruncatedPayloadError,
    read_ply,
    write_ply,
)

f32able = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=32)


def random_cloud(n, seed, with_normals=True):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 3))
    if not with_normals:
        return PointCloud(pts)
    nrm = rng.standard_normal((n, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointCloud(pts, nrm)


def test_length_and_normals_flag():
    c = random_cloud(5, 0)
    assert len(c) == 5 and c.has_normals()
    assert not random_cloud(5, 0, with_normals=False).has_normals()


def test_mismatched_normals_rejected():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), np.zeros((2, 3)))


def test_binary_round_trip_is_exact_at_f32(tmp_path):
    cloud = random_cloud(257, 1)
    path = tmp_path / "c.ply"
    write_ply(cloud, path)
    back = read_ply(path)
    assert np.array_equal(back.points, cloud.points.astype(np.float32).astype(np.float64))
    assert np.array_equal(back.normals, cloud.normals.astype(np.float32).astype(np.float64))


@settings(max_examples=20)
@given(arrays(np.float64, (7, 3), elements=f32able))
def test_round_trip_any_values(tmp_path_factory, pts):
    cloud = PointCloud(pts)
    path = tmp_path_factory.mktemp("ply") / "h.ply"
    write_ply(cloud, path)
    assert np.array_equal(read_ply(path).points, pts.astype(np.float32).astype(np.float64))


def test_handwritten_ascii_fixture(tmp_path):
    path = tmp_path / "fixture.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n"
        "0 0 0\n1.5 -2 3\n0.25 0.5 0.75\n"
    )
    cloud = read_ply(path)
    assert len(cloud) == 3
    assert np.allclose(cloud.points[1], [1.5, -2.0, 3.0])


def test_truncated_binary_payload(tmp_path):
    cloud = random_cloud(10, 3, with_normals=False)
    path = tmp_path / "t.ply"
    write_ply(cloud, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(TruncatedPayloadError):
        read_ply(path)


def test_truncated_ascii_payload(tmp_path):
    path = tmp_path / "t.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 10\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n1 1 1\n"
    )
    with pytest.raises(TruncatedPayloadError):
        read_ply(path)


def test_malformed_ascii_payload_is_refused(tmp_path):
    # a value that is not a number, or a byte that is not ASCII, names the file and what it holds
    header = b"ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\nproperty float z\n"
    header += b"end_header\n"
    path = tmp_path / "bad.ply"
    named = re.escape(str(path))
    path.write_bytes(header + b"0 0 0\n1 abc 1\n")
    with pytest.raises(MalformedPayloadError, match=f"^{named}: could not convert string to float: 'abc'$"):
        read_ply(path)
    path.write_bytes(header + b"0 0 0\n1 \xff 1\n")
    offset = len(header) + len(b"0 0 0\n1 ")
    with pytest.raises(MalformedPayloadError, match=f"^{named}: byte 0xff at offset {offset} is not ASCII$"):
        read_ply(path)


def ascii_outcome(path):
    """read_ply's points, or its error type and message."""
    try:
        return read_ply(path).points.tolist()
    except (MalformedPayloadError, TruncatedPayloadError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_ascii_payload_reads_the_same_in_any_chunk(tmp_path, monkeypatch, chunk):
    # the payload is parsed in chunks that end at whitespace, so the values,
    # and which error wins, are those of one split of the whole payload:
    # a byte that is not ASCII, then too few values, then a bad value
    header = b"ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
    header += b"end_header\n"
    path = tmp_path / "c.ply"
    named = str(path)
    bad_value = ("MalformedPayloadError", f"{named}: could not convert string to float: 'abc'")
    not_ascii = ("MalformedPayloadError", f"{named}: byte 0xff at offset {len(header) + 20} is not ASCII")
    cases = {
        # every ASCII separator of str.split(), and a long value past the needed ones
        b"0 0 0\n1.5\t-2 3\r\n0.25\x0b0.5\x0c0.75\x1c9 " + b"7" * 80: [[0, 0, 0], [1.5, -2, 3], [0.25, 0.5, 0.75]],
        b"0 0 0\n1 abc 1\n2 2 2\n" + b"x" * 80: bad_value,
        b"0 0 0\n1 abc 1\n": ("TruncatedPayloadError", "payload holds 6 values, need 9"),
        b"0 0 0\n1 abc 1\n2 2 2 \xff": not_ascii,
    }
    monkeypatch.setattr("treescan.cloud._ASCII_CHUNK", chunk)
    for payload, want in cases.items():
        path.write_bytes(header + payload)
        assert ascii_outcome(path) == want


def test_ascii_read_memory_is_bounded(tmp_path):
    # splitting the whole payload into one str per value peaked at 68.9 MB
    # on this 7.3 MB file
    data = random_cloud(100_000, 9)
    path = tmp_path / "big.ply"
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\nelement vertex 100000\n")
        fh.write("".join(f"property float {p}\n" for p in ("x", "y", "z", "nx", "ny", "nz")) + "end_header\n")
        np.savetxt(fh, np.hstack([data.points, data.normals]).astype(np.float32), fmt="%.9g")
    tracemalloc.start()
    try:
        back = read_ply(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.points, data.points.astype(np.float32).astype(np.float64))
    assert np.array_equal(back.normals, data.normals.astype(np.float32).astype(np.float64))
    assert peak <= 30e6


def test_negative_vertex_count_is_refused(tmp_path):
    header = "ply\nformat {}\nelement vertex -2\nproperty float x\nproperty float y\nproperty float z\nend_header\n"
    payloads = {
        "binary_little_endian 1.0": np.arange(9, dtype="<f4").tobytes(),
        "ascii 1.0": " ".join(str(v) for v in range(9)).encode("ascii"),
    }
    for fmt, payload in payloads.items():
        path = tmp_path / "negative.ply"
        path.write_bytes(header.format(fmt).encode("ascii") + payload)
        with pytest.raises(MalformedHeaderError, match="vertex count"):
            read_ply(path)


def test_malformed_headers(tmp_path):
    cases = {
        "not_ply.ply": "plx\nformat ascii 1.0\nend_header\n",
        "no_end.ply": "ply\nformat ascii 1.0\nelement vertex 1\n",
        "bad_format.ply": "ply\nformat big_endian 1.0\nelement vertex 0\nend_header\n",
        "no_xyz.ply": (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nend_header\n0 0\n"
        ),
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(MalformedHeaderError):
            read_ply(path)


def test_non_finite_coordinates_are_refused(tmp_path):
    # a NaN or infinite position or normal, binary or ASCII, names the file and the vertex row
    path = tmp_path / "c.ply"
    for array, row, value in [("points", 3, np.nan), ("points", 1, np.inf), ("normals", 4, -np.inf)]:
        cloud = random_cloud(5, 2)
        getattr(cloud, array)[row, 1] = value
        write_ply(cloud, path)
        with pytest.raises(NonFiniteCoordinateError, match=f"^{re.escape(str(path))}: vertex {row} has a non-finite"):
            read_ply(path)
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n1 nan 1\n"
    )
    with pytest.raises(NonFiniteCoordinateError, match="vertex 1 has a non-finite"):
        read_ply(path)


def test_double_precision_properties_accepted(tmp_path):
    path = tmp_path / "d.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property double x\nproperty double y\nproperty double z\n"
        "end_header\n0.1 0.2 0.3\n"
    )
    cloud = read_ply(path)
    assert np.allclose(cloud.points[0], [0.1, 0.2, 0.3], atol=1e-12)


def test_bbox():
    cloud = PointCloud(np.array([[0.0, 1.0, 2.0], [-1.0, 5.0, 0.0]]))
    lo, hi = cloud.bbox()
    assert np.array_equal(lo, [-1.0, 1.0, 0.0])
    assert np.array_equal(hi, [0.0, 5.0, 2.0])
    with pytest.raises(EmptyCloudError):
        PointCloud(np.zeros((0, 3))).bbox()
