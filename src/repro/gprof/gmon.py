"""The gmon profile snapshot and its binary serialization.

:class:`GmonData` is the cumulative state a gprof runtime holds for one
process: a sampling histogram (sample-tick counts per function) and call
arcs (``(caller, callee) -> count``).  IncProf periodically serializes this
state to per-interval files; we define a compact versioned binary format
(magic ``IGMON``) with a string table, histogram records, and arc records.

The format is self-contained and round-trips exactly; corrupt or truncated
files raise :class:`~repro.util.errors.FormatError`.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, List, NamedTuple, Tuple, Union

import numpy as np

from repro.util.errors import FormatError, ValidationError

MAGIC = b"IGMON"
VERSION = 1

#: Pseudo-caller at the root of the call tree: gprof's name for the
#: parent of a function entered from outside the profiled code.
SPONTANEOUS = "<spontaneous>"

_HEADER = struct.Struct("<5sHddi")  # magic, version, sample_period, timestamp, rank
_U32 = struct.Struct("<I")
_HIST_REC = struct.Struct("<IQ")  # name index, tick count
_ARC_REC = struct.Struct("<IIQ")  # caller index, callee index, count

# Packed-record views of the fixed-size sections ("<" structs carry no
# padding, so explicit offsets reproduce the wire layout exactly).
_HIST_DTYPE = np.dtype({"names": ["i", "t"], "formats": ["<u4", "<u8"],
                        "offsets": [0, 4], "itemsize": _HIST_REC.size})
_ARC_DTYPE = np.dtype({"names": ["s", "d", "c"],
                       "formats": ["<u4", "<u4", "<u8"],
                       "offsets": [0, 4, 8], "itemsize": _ARC_REC.size})


def check_sample_period(period: float, error: type = ValidationError) -> None:
    """The one sample-period check: raise ``error`` unless ``period`` is
    finite and positive.  A NaN or infinite period would poison every
    interval differenced against it."""
    if not (math.isfinite(period) and period > 0):
        raise error(f"sample_period must be finite and positive, got {period!r}")


@dataclass
class GmonData:
    """Cumulative gprof-style profile state for one process.

    Attributes
    ----------
    sample_period:
        Seconds represented by one histogram tick (gprof uses 0.01 s).
    hist:
        Function name -> cumulative sample-tick count.
    arcs:
        ``(caller, callee)`` -> cumulative call count.
    timestamp:
        Time (virtual or wall) at which this snapshot was taken.
    rank:
        Originating MPI rank.
    """

    sample_period: float = 0.01
    hist: Dict[str, int] = field(default_factory=dict)
    arcs: Dict[Tuple[str, str], int] = field(default_factory=dict)
    timestamp: float = 0.0
    rank: int = 0

    def __post_init__(self) -> None:
        check_sample_period(self.sample_period)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def add_ticks(self, func: str, ticks: int) -> None:
        """Add histogram ticks for ``func``."""
        if ticks < 0:
            raise ValidationError("tick count must be non-negative")
        if ticks:
            self.hist[func] = self.hist.get(func, 0) + ticks

    def add_arc(self, caller: str, callee: str, count: int = 1) -> None:
        """Record ``count`` calls along the arc ``caller -> callee``."""
        if count < 0:
            raise ValidationError("arc count must be non-negative")
        if count:
            key = (caller, callee)
            self.arcs[key] = self.arcs.get(key, 0) + count

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def self_seconds(self, func: str) -> float:
        """Cumulative sampled self-time of ``func`` in seconds."""
        return self.hist.get(func, 0) * self.sample_period

    def total_seconds(self) -> float:
        """Total sampled time across all functions."""
        return sum(self.hist.values()) * self.sample_period

    def calls_into(self, func: str) -> int:
        """Total call count into ``func`` summed over all callers."""
        return sum(c for (_caller, callee), c in self.arcs.items() if callee == func)

    def functions(self) -> List[str]:
        """All function names present in the histogram or arcs."""
        names = set(self.hist)
        for caller, callee in self.arcs:
            names.add(caller)
            names.add(callee)
        return sorted(names)

    def copy(self) -> "GmonData":
        """Deep copy (snapshots must be independent of live state)."""
        return GmonData(
            sample_period=self.sample_period,
            hist=dict(self.hist),
            arcs=dict(self.arcs),
            timestamp=self.timestamp,
            rank=self.rank,
        )

    def subtract(self, earlier: "GmonData") -> "GmonData":
        """Return this snapshot minus an ``earlier`` one (interval profile).

        Counts are clamped at zero: gprof histograms are monotone in
        principle, but defensive clamping matches what the paper's
        differencing step must do with any sampling artifacts.
        """
        if abs(earlier.sample_period - self.sample_period) > 1e-12:
            raise ValidationError("cannot subtract snapshots with different sample periods")
        out = GmonData(sample_period=self.sample_period, timestamp=self.timestamp, rank=self.rank)
        for func, ticks in self.hist.items():
            delta = ticks - earlier.hist.get(func, 0)
            if delta > 0:
                out.hist[func] = delta
        for key, count in self.arcs.items():
            delta = count - earlier.arcs.get(key, 0)
            if delta > 0:
                out.arcs[key] = delta
        return out


# ----------------------------------------------------------------------
# binary serialization
# ----------------------------------------------------------------------
def write_gmon(data: GmonData, target: Union[str, Path, BinaryIO]) -> None:
    """Serialize ``data`` to a path or binary stream."""
    if isinstance(target, (str, Path)):
        with open(target, "wb") as fh:
            write_gmon(data, fh)
        return
    stream = target
    parts: List[bytes] = [
        _HEADER.pack(MAGIC, VERSION, data.sample_period, data.timestamp, data.rank)
    ]

    names = sorted(set(data.hist) | {n for arc in data.arcs for n in arc})
    index = {name: i for i, name in enumerate(names)}
    parts.append(_U32.pack(len(names)))
    for name in names:
        encoded = name.encode("utf-8")
        parts.append(_U32.pack(len(encoded)))
        parts.append(encoded)

    # Fixed-size sections are packed in one struct call each; with "<"
    # there is no alignment padding, so the bytes are identical to a
    # record-at-a-time stream (the IGMON format is unchanged).
    hist = data.hist
    flat_hist: List[int] = []
    for name in sorted(hist):
        flat_hist.append(index[name])
        flat_hist.append(hist[name])
    parts.append(_U32.pack(len(hist)))
    parts.append(struct.pack("<" + "IQ" * len(hist), *flat_hist))

    arcs = data.arcs
    flat_arcs: List[int] = []
    for caller, callee in sorted(arcs):
        flat_arcs.append(index[caller])
        flat_arcs.append(index[callee])
        flat_arcs.append(arcs[(caller, callee)])
    parts.append(_U32.pack(len(arcs)))
    parts.append(struct.pack("<" + "IIQ" * len(arcs), *flat_arcs))

    stream.write(b"".join(parts))


def read_gmon(source: Union[str, Path, BinaryIO]) -> GmonData:
    """Deserialize one gmon snapshot from a path or binary stream."""
    if isinstance(source, (str, Path)):
        return loads_gmon(Path(source).read_bytes())
    return loads_gmon(source.read())


def dumps_gmon(data: GmonData) -> bytes:
    """Serialize to bytes."""
    buf = io.BytesIO()
    write_gmon(data, buf)
    return buf.getvalue()


class GmonColumns(NamedTuple):
    """One decoded gmon snapshot, still in columns.

    ``table`` is the raw string-table section (its name count included):
    a stream repeats it verbatim interval after interval, so consumers
    key per-table work by it.  The ``hist_*`` and ``arc_*`` columns are
    NumPy views of the record fields in the decoded buffer; every name
    index in them is already checked against ``names``.
    """

    sample_period: float
    timestamp: float
    rank: int
    table: bytes
    names: List[str]
    hist_name: np.ndarray
    hist_ticks: np.ndarray
    arc_caller: np.ndarray
    arc_callee: np.ndarray
    arc_count: np.ndarray

    def to_gmon(self) -> GmonData:
        names = self.names
        data = GmonData(sample_period=self.sample_period,
                        timestamp=self.timestamp, rank=self.rank)
        data.hist = dict(zip([names[i] for i in self.hist_name.tolist()],
                             self.hist_ticks.tolist()))
        data.arcs = dict(zip(zip([names[i] for i in self.arc_caller.tolist()],
                                 [names[i] for i in self.arc_callee.tolist()]),
                             self.arc_count.tolist()))
        return data


class GmonBlob:
    """A still-serialized gmon snapshot: raw bytes plus decode-on-demand.

    The service wire path admits binary snapshots without paying the
    decode on the connection's reader thread.  The classify thread
    differences the bytes straight from :meth:`columns` (decoded once,
    cached) and the archive keeps them as they are, so neither builds a
    :class:`GmonData`; :meth:`load` builds one for callers that want
    dicts.  A blob also rides *encoding* untouched — both codecs emit
    its bytes directly, so a publisher holding pre-serialized gmon
    files never re-serializes, and a router relaying a snapshot never
    parses it.

    ``raw`` may be any buffer (``memoryview`` included); a corrupt blob
    raises :class:`FormatError` from :meth:`columns` and :meth:`load`,
    not from construction.
    """

    __slots__ = ("raw", "_columns")

    def __init__(self, raw) -> None:
        self.raw = raw
        self._columns: "GmonColumns | None" = None

    def columns(self) -> GmonColumns:
        if self._columns is None:
            self._columns = decode_gmon(self.raw)
        return self._columns

    def load(self) -> GmonData:
        return self.columns().to_gmon()


#: Decoded string tables keyed by their raw section bytes; cleared
#: wholesale at the cap (tables are small and the set of distinct
#: function universes a process sees is, too).
_NAMES_CACHE: Dict[bytes, List[str]] = {}
_NAMES_CACHE_MAX = 256


def decode_gmon(blob) -> GmonColumns:
    """Decode a serialized gmon into columns: the one gmon parser.

    Parses in place with ``unpack_from`` offsets and NumPy record views
    — no stream object, no intermediate copies, no dicts — so the
    service wire path can hand in a ``memoryview`` carved straight out
    of a received frame.  Truncation, bad magic, an unsupported
    version, a sample period that is not finite and positive, a name
    that is not UTF-8, and name indices out of range raise
    :class:`FormatError`.
    """
    buf = memoryview(blob)
    total = buf.nbytes

    def need(offset: int, n: int) -> None:
        if offset + n > total:
            raise FormatError(f"truncated gmon data: wanted {n} bytes, "
                              f"got {max(0, total - offset)}")

    need(0, _HEADER.size)
    magic, version, period, timestamp, rank = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise FormatError(f"bad gmon magic {bytes(magic)!r}")
    if version != VERSION:
        raise FormatError(f"unsupported gmon version {version}")
    check_sample_period(period, FormatError)

    # A stream's snapshots carry the same function set interval after
    # interval, so the string table's raw bytes repeat verbatim; cache
    # the decoded table keyed by those bytes and the per-interval decode
    # skips every UTF-8 decode.  First pass walks lengths only.
    off = _HEADER.size
    need(off, 4)
    (n_names,) = _U32.unpack_from(buf, off)
    off += 4
    for _ in range(n_names):
        need(off, 4)
        (length,) = _U32.unpack_from(buf, off)
        off += 4
        need(off, length)
        off += length
    table = bytes(buf[_HEADER.size:off])
    names = _NAMES_CACHE.get(table)
    if names is None:
        names = []
        pos = 4
        for _ in range(n_names):
            (length,) = _U32.unpack_from(table, pos)
            pos += 4
            try:
                names.append(table[pos:pos + length].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise FormatError(f"gmon function name is not UTF-8: {exc}") from exc
            pos += length
        if len(_NAMES_CACHE) >= _NAMES_CACHE_MAX:
            _NAMES_CACHE.clear()
        _NAMES_CACHE[table] = names

    need(off, 4)
    (n_hist,) = _U32.unpack_from(buf, off)
    off += 4
    need(off, n_hist * _HIST_REC.size)
    hist = np.frombuffer(buf, dtype=_HIST_DTYPE, count=n_hist, offset=off)
    hist_name = hist["i"]
    if n_hist and int(hist_name.max()) >= len(names):
        bad = int(hist_name[hist_name >= len(names)][0])
        raise FormatError(f"histogram name index {bad} out of range")
    off += n_hist * _HIST_REC.size

    need(off, 4)
    (n_arcs,) = _U32.unpack_from(buf, off)
    off += 4
    need(off, n_arcs * _ARC_REC.size)
    arcs = np.frombuffer(buf, dtype=_ARC_DTYPE, count=n_arcs, offset=off)
    caller, callee = arcs["s"], arcs["d"]
    if n_arcs and max(int(caller.max()), int(callee.max())) >= len(names):
        raise FormatError("arc name index out of range")

    return GmonColumns(period, timestamp, rank, table, names,
                       hist_name, hist["t"], caller, callee, arcs["c"])


def loads_gmon(blob) -> GmonData:
    """Deserialize from bytes or any buffer (``memoryview`` included):
    :func:`decode_gmon`, then the columns as dicts."""
    return decode_gmon(blob).to_gmon()
