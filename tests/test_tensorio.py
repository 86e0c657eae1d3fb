"""Tensor container and response-CSV format tests."""

import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snapspec import load_response_csv, load_tensor, save_response_csv, save_tensor
from snapspec.errors import FormatError, ValidationError


def test_round_trip_f64_2x2(tmp_path):
    path = tmp_path / "t.htns"
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    save_tensor(arr, path)
    blob = path.read_bytes()
    # header: magic + version/dtype/ndim + two u64 extents, then 4 f64 values
    assert blob[:4] == b"HTNS"
    assert struct.unpack("<HBB", blob[4:8]) == (1, 2, 2)
    assert struct.unpack("<2Q", blob[8:24]) == (2, 2)
    assert len(blob) == 24 + 4 * 8
    back = load_tensor(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_round_trip_zero_cube(tmp_path):
    path = tmp_path / "z.htns"
    save_tensor(np.zeros((4, 4, 5)), path)
    back = load_tensor(path)
    assert back.shape == (4, 4, 5)
    assert not back.any()


def test_round_trip_f32(tmp_path):
    path = tmp_path / "f.htns"
    arr = np.random.default_rng(3).standard_normal((8, 8, 3)).astype(np.float32)
    save_tensor(arr, path)
    back = load_tensor(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_non_float_input_coerced_to_f64(tmp_path):
    path = tmp_path / "i.htns"
    save_tensor(np.arange(6).reshape(2, 3), path)
    back = load_tensor(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, np.arange(6).reshape(2, 3))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    use_f32=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_round_trip_property(shape, use_f32, seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(tuple(shape))
    if use_f32:
        arr = arr.astype(np.float32)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.htns")
        save_tensor(arr, path)
        back = load_tensor(path)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.htns"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FormatError, match="bad magic"):
        load_tensor(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v.htns"
    path.write_bytes(b"HTNS" + struct.pack("<HBB", 9, 2, 1) + struct.pack("<Q", 1) + b"\x00" * 8)
    with pytest.raises(FormatError, match="version"):
        load_tensor(path)


def test_unknown_dtype_code(tmp_path):
    path = tmp_path / "d.htns"
    path.write_bytes(b"HTNS" + struct.pack("<HBB", 1, 7, 1) + struct.pack("<Q", 1) + b"\x00" * 8)
    with pytest.raises(FormatError, match="dtype"):
        load_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.htns"
    save_tensor(np.ones((3, 3)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError, match="unexpected end of payload"):
        load_tensor(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "h.htns"
    path.write_bytes(b"HTNS\x01")
    with pytest.raises(FormatError, match="unexpected end of header"):
        load_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "x.htns"
    save_tensor(np.ones(4), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_tensor(path)


def test_zero_extent_rejected(tmp_path):
    path = tmp_path / "e.htns"
    path.write_bytes(b"HTNS" + struct.pack("<HBB", 1, 2, 2) + struct.pack("<2Q", 2, 0))
    with pytest.raises(FormatError, match="extent"):
        load_tensor(path)


def test_nan_payload_rejected(tmp_path):
    path = tmp_path / "n.htns"
    arr = np.ones(3)
    arr[1] = np.nan
    header = b"HTNS" + struct.pack("<HBB", 1, 2, 1) + struct.pack("<Q", 3)
    path.write_bytes(header + arr.astype("<f8").tobytes())
    with pytest.raises(ValidationError, match="non-finite"):
        load_tensor(path)


def test_overflowing_extents_rejected(tmp_path):
    # 2**32 * 2**32 wraps to 0 in int64; the element count must not
    path = tmp_path / "o.htns"
    path.write_bytes(b"HTNS" + struct.pack("<HBB", 1, 2, 2) + struct.pack("<2Q", 2**32, 2**32))
    with pytest.raises(FormatError, match="unexpected end of payload"):
        load_tensor(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_non_finite_rejected_without_file(tmp_path, bad):
    path = tmp_path / "n.htns"
    arr = np.ones((2, 3))
    arr[1, 2] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        save_tensor(arr, path)
    assert not path.exists()


def _htns_blob(ndim, dims, code, payload):
    return (
        b"HTNS" + struct.pack("<HBB", 1, code, ndim)
        + struct.pack("<%dQ" % len(dims), *dims) + payload
    )


@settings(max_examples=200, deadline=None)
@given(
    ndim=st.integers(0, 255),
    dims=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1)), max_size=70),
    code=st.integers(0, 255),
    payload=st.binary(max_size=96),
)
@example(ndim=2, dims=[2**32, 2**32], code=2, payload=b"")
@example(ndim=65, dims=[1] * 65, code=2, payload=struct.pack("<d", 1.0))
@example(ndim=1, dims=[2], code=1, payload=struct.pack("<2f", 1.0, float("inf")))
def test_arbitrary_header_fails_closed(ndim, dims, code, payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.htns")
        with open(path, "wb") as fh:
            fh.write(_htns_blob(ndim, dims, code, payload))
        try:
            arr = load_tensor(path)
        except (FormatError, ValidationError):
            return
    assert arr.ndim == ndim
    assert np.all(np.isfinite(arr))


# response CSV


def _write(tmp_path, text):
    path = tmp_path / "r.csv"
    path.write_text(text)
    return path


def test_identity_response(tmp_path):
    path = _write(
        tmp_path,
        "wavelength,r,g,b\n450,1,0,0\n550,0,1,0\n650,0,0,1\n",
    )
    resp = load_response_csv(path)
    assert resp.shape == (3, 3)
    assert np.array_equal(resp, np.eye(3))


def test_all_ones_response(tmp_path):
    rows = "\n".join("%d,1,1,1" % wl for wl in (450, 500, 550, 600, 650))
    resp = load_response_csv(_write(tmp_path, "wavelength,r,g,b\n" + rows + "\n"))
    assert resp.shape == (3, 5)
    assert np.array_equal(resp, np.ones((3, 5)))


def test_negative_response_rejected_with_row(tmp_path):
    path = _write(tmp_path, "wavelength,r,g,b\n500,1,0,0\n510,-0.1,0,0\n")
    with pytest.raises(ValidationError, match="row 2"):
        load_response_csv(path)


def test_non_monotone_wavelengths_rejected(tmp_path):
    path = _write(tmp_path, "wavelength,r,g,b\n500,1,0,0\n500,0,1,0\n")
    with pytest.raises(ValidationError, match="increasing"):
        load_response_csv(path)


def test_bad_header_rejected(tmp_path):
    path = _write(tmp_path, "lambda,r,g,b\n500,1,0,0\n")
    with pytest.raises(FormatError, match="header"):
        load_response_csv(path)


def test_malformed_number_rejected(tmp_path):
    path = _write(tmp_path, "wavelength,r,g,b\n500,one,0,0\n")
    with pytest.raises(FormatError, match="row 1"):
        load_response_csv(path)


@pytest.mark.parametrize("text, error, message", [
    ("", FormatError, "empty response file"),
    ("wavelength,r,g,b\n500,1,0\n", FormatError, "row 1: expected 4 fields, got 3"),
    # a blank row is skipped, and counted in the row numbers
    ("wavelength,r,g,b\n\n500,1,0\n", FormatError, "row 2: expected 4 fields, got 3"),
    ("wavelength,r,g,b\n500,nan,0,0\n", ValidationError, "row 1: non-finite value"),
    ("wavelength,r,g,b\n", FormatError, "no data rows"),
], ids=["empty", "three-fields", "blank-row", "nan", "header-only"])
def test_refused_response_file_raises_its_type(tmp_path, text, error, message):
    # the CLI's exit code for each: test_refused_system_file_exit_2_naming_it
    with pytest.raises(error) as info:
        load_response_csv(_write(tmp_path, text))
    assert type(info.value) is error and str(info.value) == message


def test_response_shape_mismatch_writes_nothing(tmp_path):
    path = tmp_path / "r.csv"
    with pytest.raises(ValidationError) as info:
        save_response_csv(path, [450.0, 550.0, 650.0], np.ones((3, 2)))
    assert type(info.value) is ValidationError
    assert str(info.value) == "response shape (3, 2) does not match 3 wavelengths"
    assert not path.exists()


def test_response_csv_round_trip(tmp_path):
    path = tmp_path / "rt.csv"
    wavelengths = np.linspace(420.0, 680.0, 7)
    response = np.random.default_rng(5).uniform(size=(3, 7))
    save_response_csv(path, wavelengths, response)
    assert np.array_equal(load_response_csv(path), response)
