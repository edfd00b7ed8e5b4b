"""Binary time-tag file format.

Little-endian layout:

    offset 0   magic   4 bytes  "TTAG"
    offset 4   version u16      currently 1
    offset 6   resolution u64   femtoseconds per tick
    offset 14  count   u64      number of records
    offset 22  records          count x (channel u8, timestamp u64)

Channels are 1 (i1), 2 (s2) or 3 (i2).  Timestamps are ticks since run start,
below 2**63 and non-decreasing; the header resolution makes files
self-describing.  `atomic_write` writes a temp file beside the target and
renames it into place; `write_ttag` and every file the command line writes
go through it.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import TtagFormatError
from .simulate import CHANNEL_I1, CHANNEL_I2, TimeTagStream

__all__ = ["atomic_write", "read_ttag", "write_ttag", "TTAG_MAGIC", "TTAG_VERSION"]

TTAG_MAGIC = b"TTAG"
TTAG_VERSION = 1
_HEADER = struct.Struct("<4sHQQ")
_RECORD_DTYPE = np.dtype([("channel", "<u1"), ("timestamp", "<u8")])
RECORD_SIZE = _RECORD_DTYPE.itemsize  # 9 bytes
# Records per read; the file passes through one such buffer, never held whole.
_READ_CHUNK = 1 << 16


def atomic_write(path, *chunks) -> None:
    """Write str (as UTF-8) and bytes-like chunks to path, replacing it atomically.

    The temp file is created beside path with mode 0o666, so the umask gives it
    the mode open() would give a new file, also where it replaces one with
    another mode; on any error it is removed and path is left as it was.
    """
    path = os.fspath(path)
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _first(mask) -> int:
    """Index of the first True in a boolean array; -1 if none."""
    bad = np.flatnonzero(mask)
    return int(bad[0]) if bad.size else -1


def _first_fault(channels, timestamps) -> TtagFormatError | None:
    """The error naming the first bad record, None if there is none.

    A channel outside 1 (i1), 2 (s2), 3 (i2) comes first, then a u64 tick
    >= 2**63 (a negative int64), then a decrease, wherever each lies.
    """
    k = _first((channels < CHANNEL_I1) | (channels > CHANNEL_I2))
    if k >= 0:
        what = f"channel {int(channels[k])} at record {k} is not 1 (i1), 2 (s2) or 3 (i2)"
    elif (k := _first(timestamps < 0)) >= 0:
        what = f"timestamp {int(timestamps[k]) + 2**64} at record {k} exceeds the int64 range"
    elif (k := _first(timestamps[1:] < timestamps[:-1])) >= 0:
        k += 1
        what = f"timestamps decrease at record {k}"
    else:
        return None
    offset = _HEADER.size + k * RECORD_SIZE
    return TtagFormatError(f"{what} (byte offset {offset})", byte_offset=offset)


def write_ttag(path, stream: TimeTagStream) -> None:
    """Serialize a stream; atomic (see `atomic_write`) and byte-deterministic.

    The stream's constructor has checked its records; only the resolution,
    which the header stores in whole femtoseconds, is checked here.
    """
    resolution_fs = int(round(stream.resolution_s * 1e15))
    if resolution_fs <= 0:
        raise ValueError("resolution below 1 fs cannot be stored")
    records = np.empty(len(stream.timestamps), dtype=_RECORD_DTYPE)
    records["channel"] = stream.channels
    records["timestamp"] = stream.timestamps  # cast on assignment, no temporary copy
    header = _HEADER.pack(TTAG_MAGIC, TTAG_VERSION, resolution_fs, len(records))
    atomic_write(path, header, records)  # the array's own buffer, not a copy of it


def read_ttag(path) -> TimeTagStream:
    """Parse a file back into a stream, validating structure and ordering."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        size = os.fstat(fh.fileno()).st_size
        if len(head) < _HEADER.size:
            raise TtagFormatError(
                f"truncated header: file ends at byte {len(head)}, need {_HEADER.size}",
                byte_offset=len(head),
            )
        magic, version, resolution_fs, count = _HEADER.unpack(head)
        if magic != TTAG_MAGIC:
            raise TtagFormatError(f"bad magic {magic!r} at byte offset 0", byte_offset=0)
        if version != TTAG_VERSION:
            raise TtagFormatError(
                f"unsupported format version {version} at byte offset 4", byte_offset=4
            )
        if resolution_fs == 0:
            raise TtagFormatError("zero tick resolution at byte offset 6", byte_offset=6)
        payload = size - _HEADER.size
        expected = count * RECORD_SIZE
        if payload != expected:
            bad = _HEADER.size + (payload // RECORD_SIZE) * RECORD_SIZE
            raise TtagFormatError(
                f"payload holds {payload} bytes but header promises {count} records "
                f"({expected} bytes); file breaks at byte offset {min(bad, size)}",
                byte_offset=min(bad, size),
            )
        channels = np.empty(count, dtype=np.uint8)
        timestamps = np.empty(count, dtype=np.int64)
        chunk = np.empty(min(count, _READ_CHUNK), dtype=_RECORD_DTYPE)
        for a in range(0, count, _READ_CHUNK):
            n = min(_READ_CHUNK, count - a)
            if fh.readinto(chunk.view(np.uint8)[: n * RECORD_SIZE]) != n * RECORD_SIZE:
                off = _HEADER.size + a * RECORD_SIZE
                raise TtagFormatError(f"file shrank at byte offset {off}", byte_offset=off)
            channels[a : a + n] = chunk["channel"][:n]
            timestamps[a : a + n] = chunk["timestamp"][:n]
        del chunk
    try:
        return TimeTagStream(resolution_fs * 1e-15, channels, timestamps)
    except ValueError:
        # the stream checks the records; the first fault is located only when that fails
        error = _first_fault(channels, timestamps)
        if error is None:
            raise
    raise error
