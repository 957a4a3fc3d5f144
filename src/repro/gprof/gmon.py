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

import math
import struct
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import (Any, BinaryIO, Callable, Dict, List, NamedTuple, Sequence,
                    Tuple, Union)

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

#: Byte offset of the string table: right after the header.
_TABLE_OFFSET = _HEADER.size

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
        Path(target).write_bytes(dumps_gmon(data))
    else:
        target.write(dumps_gmon(data))


def read_gmon(source: Union[str, Path, BinaryIO]) -> GmonData:
    """Deserialize one gmon snapshot from a path or binary stream."""
    if isinstance(source, (str, Path)):
        return loads_gmon(Path(source).read_bytes())
    return loads_gmon(source.read())


class _EncodePlan(NamedTuple):
    """Everything :func:`dumps_gmon` derives from a snapshot's keys.

    Each section packs in one ``struct.pack`` of its format: the record
    count, then the records, whose name indices already sit in
    ``*_flat`` in record (sorted-key) order, with a slot after them for
    each count.  ``*_order`` permutes counts from the dict's order into
    record order.
    """

    table: bytes
    hist_format: str
    hist_flat: List[Any]
    hist_order: Callable[[List[Any]], Sequence[Any]]
    arc_format: str
    arc_flat: List[Any]
    arc_order: Callable[[List[Any]], Sequence[Any]]


def _sorter(keys: List[Any]) -> Callable[[List[Any]], Sequence[Any]]:
    """A C-level callable that lists its argument in ``keys``' sorted
    order (``keys`` are distinct, so the order is unique).  Keys that
    arrive sorted, as a dump in name order does, need no permutation."""
    if keys == sorted(keys):
        return tuple
    return itemgetter(*sorted(range(len(keys)), key=keys.__getitem__))


def _encode_plan(hist_keys: Tuple[str, ...],
                 arc_keys: Tuple[Tuple[str, str], ...]) -> _EncodePlan:
    callers, callees = zip(*arc_keys) if arc_keys else ((), ())
    names = sorted(dict.fromkeys(chain(hist_keys, callers, callees)))
    n = len(names)
    encoded = list(map(str.encode, names))
    table = [None] * (2 * n)
    table[0::2] = map(_U32.pack, map(len, encoded))
    table[1::2] = encoded

    # Name indices follow name order, so records sorted by key are
    # records sorted by index, and arcs by ``caller * n + callee``.
    index = dict(zip(names, range(n))).__getitem__
    hist = list(map(index, hist_keys))
    hist_order = _sorter(hist)
    hist_flat: List[Any] = [len(hist)] + [None] * (2 * len(hist))
    hist_flat[1::2] = hist_order(hist)

    caller = list(map(index, callers))
    callee = list(map(index, callees))
    arc_order = _sorter([c * n + d for c, d in zip(caller, callee)])
    arc_flat: List[Any] = [len(caller)] + [None] * (3 * len(caller))
    arc_flat[1::3] = arc_order(caller)
    arc_flat[2::3] = arc_order(callee)
    return _EncodePlan(_U32.pack(n) + b"".join(table),
                       "<I" + "IQ" * len(hist), hist_flat, hist_order,
                       "<I" + "IIQ" * len(caller), arc_flat, arc_order)


#: Encode plans keyed by a snapshot's key order, ``(tuple(hist),
#: tuple(arcs))``: IncProf dumps a process's whole cumulative state every
#: interval, so its keys repeat and only the counts change.  Cleared
#: wholesale at the cap, like the decoder's table cache.
_PLANS: Dict[Tuple[tuple, tuple], _EncodePlan] = {}
_PLANS_MAX = 256


def dumps_gmon(data: GmonData) -> bytes:
    """Serialize to bytes.

    Sorting the names, encoding the string table and ordering the
    records depend on the snapshot's keys alone, so they are paid once
    per key order (:class:`_EncodePlan`); a call reads each dict's counts
    once and packs them.  The ``struct`` codes are the format's own, so
    a count that is not an integer in ``[0, 2**64)`` raises
    ``struct.error`` exactly as a record-at-a-time packer would.
    """
    hist, arcs = data.hist, data.arcs
    key = (tuple(hist), tuple(arcs))
    plan = _PLANS.get(key)
    if plan is None:
        plan = _encode_plan(*key)
        if len(_PLANS) >= _PLANS_MAX:
            _PLANS.clear()
        _PLANS[key] = plan
    hist_flat = plan.hist_flat.copy()
    hist_flat[2::2] = plan.hist_order(list(hist.values()))
    arc_flat = plan.arc_flat.copy()
    arc_flat[3::3] = plan.arc_order(list(arcs.values()))
    return b"".join((
        _HEADER.pack(MAGIC, VERSION, data.sample_period, data.timestamp, data.rank),
        plan.table, struct.pack(plan.hist_format, *hist_flat),
        struct.pack(plan.arc_format, *arc_flat)))


class GmonColumns(NamedTuple):
    """One decoded gmon snapshot, still in columns.

    ``table`` is the raw string-table section (its name count included),
    as the decoder's cached object: a stream repeats it verbatim interval
    after interval, so consumers key per-table work by it, and Python
    hashes it once.  The ``hist_*`` and ``arc_*`` columns are
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
    cached) and the archive keeps them as they are (buffered around the
    shared string table, :meth:`split`), so neither builds a
    :class:`GmonData`; :meth:`load` builds one for callers that want
    dicts.  A blob also rides *encoding* untouched — the binary frame
    carries its bytes directly, so a publisher holding pre-serialized gmon
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

    def split(self) -> Tuple[bytes, bytes, bytes]:
        """The bytes as ``(header, table, rest)``, which join back into
        them: ``table`` is the decoder's string-table object, shared with
        every snapshot that repeats the table, and the other two are
        copies.  A corrupt blob raises :class:`FormatError`."""
        table = self.columns().table
        view = memoryview(self.raw)
        return (bytes(view[:_TABLE_OFFSET]), table,
                bytes(view[_TABLE_OFFSET + len(table):]))


#: Decoded string tables as ``(table, names)``, each under two keys: its
#: bytes and their first ``_TABLE_KEY_BYTES`` (the same key for a
#: shorter table).  Cleared wholesale at the cap (up to 256 tables: the
#: distinct function universes a process sees are few).
_TABLES: Dict[bytes, Tuple[bytes, List[str]]] = {}
_TABLES_MAX = 512
_TABLE_KEY_BYTES = 64


def _need(total: int, offset: int, n: int) -> None:
    if offset + n > total:
        raise FormatError(f"truncated gmon data: wanted {n} bytes, "
                          f"got {max(0, total - offset)}")


def _read_table(buf: memoryview, total: int) -> Tuple[bytes, List[str]]:
    """Walk the string table's length prefixes, then decode its names
    unless the cache holds the table by its bytes: then the cached
    object comes back, and its prefix key points at it again (tables
    sharing their first ``_TABLE_KEY_BYTES`` take turns there)."""
    _need(total, _TABLE_OFFSET, 4)
    (n_names,) = _U32.unpack_from(buf, _TABLE_OFFSET)
    off = _TABLE_OFFSET + 4
    for _ in range(n_names):
        _need(total, off, 4)
        (length,) = _U32.unpack_from(buf, off)
        off += 4
        _need(total, off, length)
        off += length
    table = bytes(buf[_TABLE_OFFSET:off])
    entry = _TABLES.get(table)
    if entry is None:
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
        entry = (table, names)
    if len(_TABLES) >= _TABLES_MAX:
        _TABLES.clear()
    _TABLES[table] = _TABLES[table[:_TABLE_KEY_BYTES]] = entry
    return entry


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
    _need(total, 0, _HEADER.size)
    magic, version, period, timestamp, rank = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise FormatError(f"bad gmon magic {bytes(magic)!r}")
    if version != VERSION:
        raise FormatError(f"unsupported gmon version {version}")
    check_sample_period(period, FormatError)

    # A stream's snapshots carry the same function set interval after
    # interval, so the string table's bytes repeat verbatim.  A table
    # delimits itself: where the buffer holds a cached table's bytes at
    # the table offset, its table is that one, ends where that one ends
    # and names what it names — so a hit skips the length walk and every
    # UTF-8 decode, and hands back the cached object, whose hash Python
    # keeps for every later lookup keyed by it.
    off = _TABLE_OFFSET
    entry = _TABLES.get(bytes(buf[off:off + _TABLE_KEY_BYTES]))
    if entry is None or bytes(buf[off:off + len(entry[0])]) != entry[0]:
        entry = _read_table(buf, total)
    table, names = entry
    off += len(table)

    _need(total, off, 4)
    (n_hist,) = _U32.unpack_from(buf, off)
    off += 4
    _need(total, off, n_hist * _HIST_REC.size)
    hist = np.frombuffer(buf, dtype=_HIST_DTYPE, count=n_hist, offset=off)
    hist_name = hist["i"]
    if n_hist and int(hist_name.max()) >= len(names):
        bad = int(hist_name[hist_name >= len(names)][0])
        raise FormatError(f"histogram name index {bad} out of range")
    off += n_hist * _HIST_REC.size

    _need(total, off, 4)
    (n_arcs,) = _U32.unpack_from(buf, off)
    off += 4
    _need(total, off, n_arcs * _ARC_REC.size)
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
