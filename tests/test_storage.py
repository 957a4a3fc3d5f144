"""Loose sample-file naming and loading (the unified storage surface).

Everything goes through the :class:`IntervalStore` primitives
(``append``/``scan``/``streams``).
"""

import pytest

from repro.gprof.gmon import GmonData
from repro.store.loose import LooseStore
from repro.util.errors import CollectorError, FormatError, SampleFileError


def snap(rank: int, ticks: int, t: float) -> GmonData:
    data = GmonData(rank=rank, timestamp=t)
    data.add_ticks("f", ticks)
    return data


def test_path_naming(tmp_path):
    store = LooseStore(tmp_path)
    assert store.path_for(3, 12).name == "gmon-r003-i00012.gmon"


def test_append_and_scan_ordering(tmp_path):
    store = LooseStore(tmp_path)
    # Append out of order: scan must return interval order.
    store.append("0", 2, snap(0, 30, 3.0))
    store.append("0", 0, snap(0, 10, 1.0))
    store.append("0", 1, snap(0, 20, 2.0))
    assert [s.hist["f"] for _, s in store.scan("0")] == [10, 20, 30]


def test_multiple_streams(tmp_path):
    store = LooseStore(tmp_path)
    store.append("0", 0, snap(0, 1, 1.0))
    store.append("2", 0, snap(2, 1, 1.0))
    assert store.streams() == ["0", "2"]


def test_scan_missing_stream_empty(tmp_path):
    assert list(LooseStore(tmp_path).scan("7")) == []


def test_nonexistent_dir_rejected(tmp_path):
    with pytest.raises(CollectorError):
        LooseStore(tmp_path / "nope", create=False)


def test_negative_indices_rejected(tmp_path):
    store = LooseStore(tmp_path)
    with pytest.raises(CollectorError):
        store.path_for(-1, 0)


def test_foreign_files_ignored(tmp_path):
    (tmp_path / "README.txt").write_text("hello")
    (tmp_path / "gmon-rxxx-iyyyyy.gmon").write_text("junk")
    assert LooseStore(tmp_path).streams() == []


def test_scan_matches_per_stream_loads(tmp_path):
    store = LooseStore(tmp_path)
    for rank in (0, 1, 3):
        for index in range(3):
            store.append(str(rank), index,
                         snap(rank, 10 * (index + 1), float(index)))
    assert store.streams() == ["0", "1", "3"]
    for stream in ("0", "1", "3"):
        assert [s.hist["f"] for _, s in store.scan(stream)] == [10, 20, 30]


def test_scan_watermark(tmp_path):
    """The --follow polling primitive: only dumps past the watermark."""
    store = LooseStore(tmp_path)
    for i in range(4):
        store.append("0", i, snap(0, (i + 1) * 10, float(i + 1)))
    assert [i for i, _ in store.scan("0")] == [0, 1, 2, 3]
    fresh = list(store.scan("0", since=1))
    assert [i for i, _ in fresh] == [2, 3]
    assert [s.hist["f"] for _, s in fresh] == [30, 40]
    assert list(store.scan("0", since=3)) == []
    assert list(store.scan("7", since=-1)) == []  # unknown stream
    # a dump landing between polls is picked up by the next poll
    store.append("0", 4, snap(0, 50, 5.0))
    assert [i for i, _ in store.scan("0", since=3)] == [4]


# ----------------------------------------------------------------------
# corrupt/truncated sample files (the service ingest contract)
# ----------------------------------------------------------------------
def test_corrupt_sample_file_raises_typed_error(tmp_path):
    store = LooseStore(tmp_path)
    store.append("0", 0, snap(0, 10, 1.0))
    bad = store.path_for(0, 1)
    bad.write_bytes(b"NOTAGMON" * 4)
    with pytest.raises(SampleFileError) as excinfo:
        list(store.scan("0"))
    assert excinfo.value.path == bad
    # the typed error is still a FormatError, so existing handlers work
    assert isinstance(excinfo.value, FormatError)


def test_truncated_sample_file_raises_typed_error(tmp_path):
    store = LooseStore(tmp_path)
    store.append("0", 0, snap(0, 10, 1.0))
    path = store.path_for(0, 0)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    # scan is lazy: the typed error surfaces when the corrupt file's
    # iterator is consumed, not at call time.
    with pytest.raises(SampleFileError):
        list(store.scan("0"))


def test_empty_sample_file_raises_typed_error(tmp_path):
    store = LooseStore(tmp_path)
    store.path_for(2, 0).write_bytes(b"")
    with pytest.raises(SampleFileError) as excinfo:
        list(store.scan("2"))
    assert "gmon-r002-i00000.gmon" in str(excinfo.value)


def test_append_is_atomic_no_temp_residue(tmp_path):
    """A completed append leaves exactly the sample file — the temp
    file used for the atomic rename never survives."""
    store = LooseStore(tmp_path)
    for i in range(5):
        store.append("0", i, snap(0, 10 * (i + 1), float(i)))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"gmon-r000-i{i:05d}.gmon" for i in range(5)]


def test_interrupted_append_preserves_previous_sample(tmp_path, monkeypatch):
    """A crash mid-write (simulated at the temp-file stage) must leave
    the previously saved bytes intact — a concurrent analysis pass can
    never observe a torn sample."""
    import repro.util.atomicio as atomicio

    store = LooseStore(tmp_path)
    store.append("0", 0, snap(0, 10, 1.0))
    before = store.path_for(0, 0).read_bytes()

    real_replace = atomicio.os.replace

    def exploding_replace(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(atomicio.os, "replace", exploding_replace)
    with pytest.raises(OSError):
        store.append("0", 0, snap(0, 999, 2.0))
    monkeypatch.setattr(atomicio.os, "replace", real_replace)

    assert store.path_for(0, 0).read_bytes() == before  # old bytes intact
    leftovers = [p.name for p in tmp_path.iterdir()
                 if p.name != "gmon-r000-i00000.gmon"]
    assert leftovers == []  # temp file cleaned up on failure


def test_sample_file_error_importable_from_errors_module(tmp_path):
    """SampleFileError sits under the shared FormatError branch in
    repro.util.errors, next to the other artifact-format errors."""
    assert issubclass(SampleFileError, FormatError)
