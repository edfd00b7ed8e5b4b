import struct
import tracemalloc

import numpy as np
import pytest

from tripletsim import ttag
from tripletsim.errors import TtagFormatError
from tripletsim.simulate import TimeTagStream
from tripletsim.ttag import RECORD_SIZE, TTAG_MAGIC, read_ttag, write_ttag

TICK = 82.3125e-12


def sample_stream(n=100, seed=0):
    rng = np.random.default_rng(seed)
    channels = rng.integers(1, 4, n).astype(np.uint8)
    ticks = np.sort(rng.integers(0, 10_000, n)).astype(np.int64)
    return TimeTagStream(TICK, channels, ticks)


def raw_file(path, records):
    """A TTAG file of (channel, tick) records written byte by byte, faults included."""
    header = struct.pack("<4sHQQ", TTAG_MAGIC, 1, 82312, len(records))
    path.write_bytes(header + b"".join(struct.pack("<BQ", c, t) for c, t in records))
    return path


def fault(path):
    with pytest.raises(TtagFormatError) as err:
        read_ttag(path)
    return str(err.value), err.value.byte_offset


def twelve_records(changes=None):
    """Records 0..11 on channels 1, 2, 3, 1, ... at ticks 0, 10, 20, ...

    changes[k] replaces record k.
    """
    records = [(k % 3 + 1, 10 * k) for k in range(12)]
    for k, record in (changes or {}).items():
        records[k] = record
    return records


class TestRoundTrip:
    def test_records_preserved_exactly(self, tmp_path):
        stream = sample_stream(1000)
        path = tmp_path / "run.ttag"
        write_ttag(path, stream)
        back = read_ttag(path)
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.timestamps, stream.timestamps)

    def test_resolution_survives_to_femtosecond(self, tmp_path):
        stream = sample_stream(10)
        path = tmp_path / "run.ttag"
        write_ttag(path, stream)
        back = read_ttag(path)
        # header stores integer femtoseconds; 82.3125 ps rounds to 82312 fs
        assert abs(back.resolution_s - TICK) / TICK < 1e-4

    def test_empty_stream_is_header_only(self, tmp_path):
        stream = TimeTagStream(TICK, np.empty(0, np.uint8), np.empty(0, np.int64))
        path = tmp_path / "empty.ttag"
        write_ttag(path, stream)
        assert path.stat().st_size == 22
        back = read_ttag(path)
        assert len(back) == 0

    def test_write_is_deterministic(self, tmp_path):
        stream = sample_stream(500, seed=3)
        a = tmp_path / "a.ttag"
        b = tmp_path / "b.ttag"
        write_ttag(a, stream)
        write_ttag(b, stream)
        assert a.read_bytes() == b.read_bytes()


class TestFormatErrors:
    def write_good(self, tmp_path):
        path = tmp_path / "good.ttag"
        write_ttag(path, sample_stream(20, seed=1))
        return path

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.ttag"
        path.write_bytes(b"TTAG\x01")
        with pytest.raises(TtagFormatError) as err:
            read_ttag(path)
        assert "byte" in str(err.value)

    def test_bad_magic_names_offset_zero(self, tmp_path):
        path = self.write_good(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(TtagFormatError) as err:
            read_ttag(path)
        assert err.value.byte_offset == 0

    def test_bad_version_names_offset_four(self, tmp_path):
        path = self.write_good(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(TtagFormatError) as err:
            read_ttag(path)
        assert err.value.byte_offset == 4

    def test_truncated_payload_names_offset(self, tmp_path):
        path = self.write_good(tmp_path)
        blob = path.read_bytes()
        cut = blob[: 22 + 5 * RECORD_SIZE + 3]
        path.write_bytes(cut)
        with pytest.raises(TtagFormatError) as err:
            read_ttag(path)
        assert err.value.byte_offset == 22 + 5 * RECORD_SIZE

    def test_decreasing_timestamps_rejected(self, tmp_path):
        path = tmp_path / "bad_order.ttag"
        header = struct.pack("<4sHQQ", TTAG_MAGIC, 1, 82312, 2)
        records = struct.pack("<BQ", 1, 50) + struct.pack("<BQ", 2, 10)
        path.write_bytes(header + records)
        with pytest.raises(TtagFormatError) as err:
            read_ttag(path)
        assert err.value.byte_offset == 22 + RECORD_SIZE

    @pytest.mark.parametrize("ticks, bad_record", [([10, 2**63, 2**63 + 5], 1), ([2**64 - 1, 10], 0)])
    def test_timestamp_beyond_int64_names_offset(self, tmp_path, ticks, bad_record):
        # a u64 tick >= 2**63 would wrap to a negative int64; it is named before any order check
        path = tmp_path / "huge.ttag"
        header = struct.pack("<4sHQQ", TTAG_MAGIC, 1, 82312, len(ticks))
        path.write_bytes(header + b"".join(struct.pack("<BQ", 1, t) for t in ticks))
        with pytest.raises(TtagFormatError, match="int64") as err:
            read_ttag(path)
        assert err.value.byte_offset == 22 + bad_record * RECORD_SIZE

    @pytest.mark.parametrize("channel", [0, 4, 7])
    @pytest.mark.parametrize("side", ["write", "read"])
    def test_channel_outside_one_to_three_rejected(self, tmp_path, side, channel):
        # records 0, 1 and 3 are valid; record 2 carries the bad channel byte
        channels = [1, 3, channel, 2]
        path = tmp_path / "bad_channel.ttag"
        if side == "write":
            # the stream's constructor owns the check, so no such stream reaches the writer
            with pytest.raises(ValueError, match=f"channel {channel} at record 2"):
                TimeTagStream(TICK, np.array(channels, dtype=np.uint8), np.arange(4))
            return
        header = struct.pack("<4sHQQ", TTAG_MAGIC, 1, 82312, len(channels))
        records = b"".join(struct.pack("<BQ", c, t) for t, c in enumerate(channels))
        path.write_bytes(header + records)
        with pytest.raises(TtagFormatError, match=f"channel {channel} at record 2") as err:
            read_ttag(path)
        assert err.value.byte_offset == 22 + 2 * RECORD_SIZE

    @pytest.mark.parametrize(
        "records, bad_record, what",
        [
            # a bad channel outranks an earlier beyond-int64 tick and an earlier decrease
            (twelve_records({2: (3, 2**63), 5: (3, 3), 8: (4, 80)}), 8, "channel 4 at record 8"),
            # a beyond-int64 tick outranks an earlier decrease
            (twelve_records({3: (1, 5), 7: (2, 2**63 + 7)}), 7, "timestamp 9223372036854775815"),
            # ticks that all lie beyond int64 are non-decreasing as int64; record 0 is named
            ([(1, 2**63 + 10 * k) for k in range(12)], 0, "timestamp 9223372036854775808"),
        ],
    )
    def test_several_faults_name_the_first_by_precedence(self, tmp_path, records, bad_record, what):
        message, offset = fault(raw_file(tmp_path / "bad.ttag", records))
        assert what in message
        assert offset == 22 + bad_record * RECORD_SIZE

    def test_zero_resolution_rejected(self, tmp_path):
        path = tmp_path / "zero_res.ttag"
        path.write_bytes(struct.pack("<4sHQQ", TTAG_MAGIC, 1, 0, 0))
        with pytest.raises(TtagFormatError) as err:
            read_ttag(path)
        assert err.value.byte_offset == 6


class TestChunkedReader:
    """With a four-record buffer every fault is named as by a single whole-file read."""

    @pytest.mark.parametrize(
        "records, bad_record",
        [
            (twelve_records({5: (9, 50)}), 5),  # bad channel byte in the second chunk
            (twelve_records({6: (1, 2**63 + 1)}), 6),  # beyond int64 in the second chunk
            (twelve_records({6: (1, 49)}), 6),  # decrease inside a chunk
            (twelve_records({4: (2, 29)}), 4),  # decrease exactly at a chunk boundary
            # a bad channel in a later chunk outranks earlier timestamp faults
            (twelve_records({1: (2, 2**63), 2: (3, 5), 10: (0, 100)}), 10),
            (twelve_records({1: (2, 2**63), 9: (1, 5)}), 1),  # beyond int64 outranks order
        ],
    )
    def test_fault_named_as_in_one_read(self, tmp_path, monkeypatch, records, bad_record):
        path = raw_file(tmp_path / "bad.ttag", records)
        whole = fault(path)
        monkeypatch.setattr(ttag, "_READ_CHUNK", 4)
        assert fault(path) == whole
        assert whole[1] == 22 + bad_record * RECORD_SIZE

    def test_truncated_payload_named_as_in_one_read(self, tmp_path, monkeypatch):
        path = raw_file(tmp_path / "cut.ttag", twelve_records())
        path.write_bytes(path.read_bytes()[: 22 + 9 * RECORD_SIZE + 4])
        whole = fault(path)
        monkeypatch.setattr(ttag, "_READ_CHUNK", 4)
        assert fault(path) == whole
        assert whole[1] == 22 + 9 * RECORD_SIZE

    @pytest.mark.parametrize("n", [0, 12, 1001])
    def test_round_trip_across_chunks(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(ttag, "_READ_CHUNK", 4)
        stream = sample_stream(n, seed=n)
        path = tmp_path / "run.ttag"
        write_ttag(path, stream)
        back = read_ttag(path)
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.timestamps, stream.timestamps)
        assert back.channels.dtype == np.uint8 and back.timestamps.dtype == np.int64

    def test_peak_memory_is_the_stream_plus_one_buffer(self, tmp_path, monkeypatch):
        # a whole-file read with copies peaks near 26 bytes per record
        monkeypatch.setattr(ttag, "_READ_CHUNK", 1 << 12)
        n = 100_000
        path = tmp_path / "run.ttag"
        write_ttag(path, sample_stream(n))
        tracemalloc.start()
        try:
            stream = read_ttag(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream) == n
        assert peak <= 9 * n + 9 * ttag._READ_CHUNK + 2**20
