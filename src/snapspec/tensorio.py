"""Binary tensor container ("HTNS") and spectral-response CSV handling.

The HTNS container is deliberately minimal and endianness-pinned so that a
file written on any platform reloads bit-exactly on any other:

    offset  size        field
    0       4           magic bytes ``HTNS``
    4       2           version, u16 little-endian (currently 1)
    6       1           dtype code, u8: 1 = f32, 2 = f64
    7       1           number of dimensions, u8
    8       8 * ndim    extents, u64 little-endian, row-major order
    ...     payload     raw little-endian values, last index fastest

Spectral cubes are stored as (H, W, bands), PSF stacks as (bands, k, k),
coded images as (H, W, 3).
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

MAGIC = b"HTNS"
VERSION = 1

_DTYPE_BY_CODE = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_BY_KIND = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}


def save_tensor(array: np.ndarray, path: str | Path) -> None:
    """Write ``array`` to ``path`` as an HTNS file.

    float32 is stored as f32; everything else is coerced to f64.  The
    round trip through :func:`load_tensor` is bit-exact.  Raises
    :class:`ValidationError` on a non-finite value, which the loader would
    reject, before the file is opened.
    """
    arr = np.ascontiguousarray(array)
    if arr.dtype not in _CODE_BY_KIND:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("non-finite value in payload")
    code = _CODE_BY_KIND[arr.dtype]
    header = MAGIC + struct.pack("<HBB", VERSION, code, arr.ndim)
    header += struct.pack("<%dQ" % arr.ndim, *arr.shape)
    payload = arr.astype(_DTYPE_BY_CODE[code], copy=False).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_tensor(path: str | Path) -> np.ndarray:
    """Read an HTNS file back into an ndarray (inverse of :func:`save_tensor`).

    Raises :class:`FormatError` for structural problems (bad magic, truncation)
    and :class:`ValidationError` if the payload contains non-finite values.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise FormatError("unexpected end of header")
    if blob[:4] != MAGIC:
        raise FormatError("bad magic: %r" % blob[:4])
    version, code, ndim = struct.unpack("<HBB", blob[4:8])
    if version != VERSION:
        raise FormatError("unsupported version: %d" % version)
    if code not in _DTYPE_BY_CODE:
        raise FormatError("unknown dtype code: %d" % code)
    dims_end = 8 + 8 * ndim
    if len(blob) < dims_end:
        raise FormatError("unexpected end of header")
    dims = struct.unpack("<%dQ" % ndim, blob[8:dims_end])
    if any(d == 0 for d in dims):
        raise FormatError("non-positive extent in dims %r" % (dims,))
    dtype = _DTYPE_BY_CODE[code]
    # Python ints: a u64 product must not wrap to a plausible count
    count = math.prod(dims)
    expected = dims_end + count * dtype.itemsize
    if len(blob) < expected:
        raise FormatError("unexpected end of payload")
    if len(blob) > expected:
        raise FormatError("trailing bytes after payload")
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=dims_end)
    try:
        arr = data.reshape(dims).copy()
    except ValueError:
        raise FormatError("rank %d exceeds what numpy supports" % ndim) from None
    if not np.all(np.isfinite(arr)):
        raise ValidationError("non-finite value in payload")
    return arr


def load_response_csv(path: str | Path) -> np.ndarray:
    """Load a 3 x N_bands spectral response matrix.

    The file must have a ``wavelength,r,g,b`` header followed by one row per
    band with strictly increasing wavelengths and non-negative responses.
    Text that is not UTF-8, or that the CSV reader refuses (such as a field
    over its size limit), raises :class:`FormatError`.
    Returns the response with rows (r, g, b) and one column per band.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise FormatError("not UTF-8 text (%s)" % exc) from None
        except csv.Error as exc:
            raise FormatError(str(exc)) from None
    if not rows:
        raise FormatError("empty response file")
    header = [cell.strip() for cell in rows[0]]
    if header != ["wavelength", "r", "g", "b"]:
        raise FormatError("bad header %r, expected wavelength,r,g,b" % (rows[0],))
    wavelengths = []
    response = []
    for num, row in enumerate(rows[1:], start=1):
        if not row:
            continue
        if len(row) != 4:
            raise FormatError("row %d: expected 4 fields, got %d" % (num, len(row)))
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise FormatError("row %d: malformed number in %r" % (num, row)) from None
        if not all(np.isfinite(values)):
            raise ValidationError("row %d: non-finite value" % num)
        if wavelengths and values[0] <= wavelengths[-1]:
            raise ValidationError("row %d: wavelengths not strictly increasing" % num)
        if min(values[1:]) < 0:
            raise ValidationError("row %d: negative response" % num)
        wavelengths.append(values[0])
        response.append(values[1:])
    if not response:
        raise FormatError("no data rows")
    return np.asarray(response, dtype=np.float64).T


def save_response_csv(path: str | Path, wavelengths, response: np.ndarray) -> None:
    """Write a response matrix (rows r,g,b; one column per band) as CSV."""
    response = np.asarray(response, dtype=np.float64)
    wavelengths = np.asarray(wavelengths, dtype=np.float64)
    if response.shape != (3, wavelengths.size):
        raise ValidationError(
            "response shape %r does not match %d wavelengths"
            % (response.shape, wavelengths.size)
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wavelength", "r", "g", "b"])
        for i, wl in enumerate(wavelengths):
            writer.writerow(["%.17g" % wl] + ["%.17g" % v for v in response[:, i]])
