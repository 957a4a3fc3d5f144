"""Interval profiles from cumulative snapshots.

The data IncProf writes is cumulative-since-start (gprof semantics), so
the first analysis step subtracts each snapshot from its successor to get
*interval profiles*: per-interval tuples of function self-time — the
clustering attributes — plus per-interval call counts, which Algorithm 1
needs for site ordering and body/loop designation.

Only functions that appear in the profile data become attribute
dimensions (the paper's footnote 3: not every program function shows up).
"""

from __future__ import annotations

from collections.abc import Sequence as _Sequence
from itertools import chain, repeat
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.gprof.flatprofile import FlatProfile
from repro.gprof.gmon import SPONTANEOUS, GmonBlob, GmonColumns, GmonData, decode_gmon
from repro.util.errors import ProfileDataError, ValidationError


@dataclass
class IntervalData:
    """Per-interval profile matrices.

    Attributes
    ----------
    functions:
        Attribute dimensions (function names), sorted.
    self_time:
        ``(n_intervals, n_functions)`` seconds of gprof 'self' time.
    calls:
        ``(n_intervals, n_functions)`` calls begun in each interval.
    timestamps:
        Interval end times.
    interval:
        Nominal interval length in seconds.
    interval_gmons:
        Optional per-interval gmon deltas (kept for call-graph features).
    """

    functions: List[str]
    self_time: np.ndarray
    calls: np.ndarray
    timestamps: np.ndarray
    interval: float
    interval_gmons: Optional[Sequence[GmonData]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n_i, n_f = self.self_time.shape
        if self.calls.shape != (n_i, n_f):
            raise ProfileDataError("self_time and calls shapes disagree")
        if len(self.functions) != n_f:
            raise ProfileDataError("function list does not match matrix width")
        if self.timestamps.shape != (n_i,):
            raise ProfileDataError("timestamps length does not match interval count")

    @property
    def n_intervals(self) -> int:
        return self.self_time.shape[0]

    @property
    def n_functions(self) -> int:
        return self.self_time.shape[1]

    def index_of(self, function: str) -> int:
        return self.functions.index(function)

    def active(self) -> np.ndarray:
        """Boolean ``(n_intervals, n_functions)``: non-zero self-time."""
        return self.self_time > 0.0

    def function_total_seconds(self) -> np.ndarray:
        """Total self-time per function across all intervals."""
        return self.self_time.sum(axis=0)

    def drop_inactive_functions(self) -> "IntervalData":
        """Remove functions with zero self-time everywhere.

        Call-only entries (arcs but never sampled) carry no clustering
        signal and would otherwise inflate the attribute space.
        """
        keep = self.self_time.sum(axis=0) > 0.0
        names = [f for f, k in zip(self.functions, keep) if k]
        return IntervalData(
            functions=names,
            self_time=self.self_time[:, keep],
            calls=self.calls[:, keep],
            timestamps=self.timestamps,
            interval=self.interval,
            interval_gmons=self.interval_gmons,
        )


def clamped_diff(rows: np.ndarray) -> np.ndarray:
    """Interval rows of cumulative ``rows``: each row minus the one
    before it (the first row minus zero), clamped at zero.

    The one differencing kernel.  On count rows it is exactly per-pair
    :meth:`GmonData.subtract`, column by column: gprof counters are
    monotone in principle, and the clamp absorbs sampling artifacts.
    """
    out = np.array(rows)
    out[1:] -= rows[:-1]
    return np.maximum(out, 0, out=out)


class _GrowableMatrix:
    """A 2-D int64 buffer with amortized O(1) row appends and column growth.

    Rows are cumulative snapshots, columns the (growing) universe; the
    backing array ``buf`` doubles in either dimension when full, so
    storing n snapshots costs O(total entries), never O(n^2).  Cells
    past the last row are always zero.
    """

    def __init__(self, cols: int = 0) -> None:
        self.buf = np.zeros((2, cols), dtype=np.int64)
        self.rows = 0
        self.cols = cols

    def ensure_cols(self, cols: int) -> None:
        if cols > self.buf.shape[1]:
            buf = np.zeros((self.buf.shape[0], max(cols, 2 * self.buf.shape[1])),
                           dtype=np.int64)
            buf[:self.rows, :self.cols] = self.buf[:self.rows, :self.cols]
            self.buf = buf
        self.cols = max(self.cols, cols)

    def add_rows(self, n: int) -> int:
        """Append ``n`` zero rows; return the first one's index in
        ``buf`` (which growing the columns replaces)."""
        start, self.rows = self.rows, self.rows + n
        if self.rows > self.buf.shape[0]:
            buf = np.zeros((max(self.rows, 2 * self.buf.shape[0]), self.buf.shape[1]),
                           dtype=np.int64)
            buf[:start] = self.buf[:start]
            self.buf = buf
        return start

    def keep_last(self) -> None:
        if self.rows > 1:
            self.buf[0] = self.buf[self.rows - 1]
            self.buf[1:self.rows] = 0
            self.rows = 1

    def view(self) -> np.ndarray:
        return self.buf[:self.rows, :self.cols]


class _Columns(dict):
    """A universe's key -> column map, kept with its key list and matrix.
    Looking up an unseen key with ``[]`` appends it as the next column
    (only a growing universe does); ``get`` never adds."""

    def __init__(self, universe: List, matrix: _GrowableMatrix) -> None:
        super().__init__((key, j) for j, key in enumerate(universe))
        self.universe, self.matrix = universe, matrix

    def __missing__(self, key) -> int:
        j = self[key] = len(self.universe)
        self.universe.append(key)
        self.matrix.ensure_cols(j + 1)
        return j


def _row_gmon(header: Tuple[float, float, int], functions: List[str],
              arcs: List[Tuple[str, str]], ticks: np.ndarray,
              counts: np.ndarray) -> GmonData:
    """A tick row and an arc row, stored as each count's u64 bits, as a
    :class:`GmonData` with ``(period, timestamp, rank)`` ``header``;
    zero counts are omitted."""
    ticks, counts = ticks.view(np.uint64), counts.view(np.uint64)
    period, timestamp, rank = header
    return GmonData(
        sample_period=period, timestamp=timestamp, rank=rank,
        hist={functions[j]: int(ticks[j]) for j in np.flatnonzero(ticks)},
        arcs={arcs[j]: int(counts[j]) for j in np.flatnonzero(counts)})


def _check_period(prev: float, cur: float) -> None:
    if abs(prev - cur) > 1e-12:
        raise ValidationError(
            "cannot subtract snapshots with different sample periods")


class Differencer:
    """Cumulative gmon rows over a universe of functions (and arcs).

    :meth:`push` stores a snapshot as one cumulative row of tick counts
    (``ticks``, a column per function) and one of call counts
    (``arc_counts``, a column per arc), plus its header.  An interval is
    the zero-clamped difference of two consecutive rows
    (:func:`clamped_diff`): exactly per-pair :meth:`GmonData.subtract`,
    restricted to the universe's functions when it is fixed.  A cell
    holds its count's u64 bit pattern as int64, so a difference is exact
    while a counter moves by less than 2**63 between snapshots.

    With ``functions=None`` the universe grows: an unseen name gets the
    next column in histogram-record order (the order feature columns,
    ``LiveModel.widen`` and the vector tier rely on), an unseen arc
    likewise.  Otherwise it is fixed to ``functions``: other functions
    are dropped and no arc is differenced.

    A :class:`GmonData` is walked once (:meth:`extend` scatters a whole
    series at once); gmon bytes or a :class:`GmonBlob` are decoded into
    columns, never into a :class:`GmonData`, and each distinct string
    table is mapped to universe columns once, cached by its bytes.
    """

    def __init__(self, functions: Optional[Sequence[str]] = None) -> None:
        self.growing = functions is None
        self.functions: List[str] = list(functions or ())
        self.arcs: List[Tuple[str, str]] = []
        self.ticks = _GrowableMatrix(len(self.functions))
        self.arc_counts = _GrowableMatrix()
        self._func_col = _Columns(self.functions, self.ticks)
        self._arc_col = _Columns(self.arcs, self.arc_counts)
        self.periods: List[float] = []
        self.timestamps: List[float] = []
        self.ranks: List[int] = []
        #: Per string table: each name's function column, -1 for none
        #: (yet, in a growing universe).
        self._tables: Dict[bytes, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.periods)

    def push(self, snapshot: Union[GmonData, GmonBlob, bytes], *,
             check: bool = True) -> None:
        """Store ``snapshot``'s cumulative row.

        Corrupt bytes raise :class:`FormatError`, and with ``check`` a
        sample period unlike the previous row's raises
        :class:`ValidationError`; either way nothing is stored.
        """
        if isinstance(snapshot, GmonData):
            source = snapshot
        elif isinstance(snapshot, GmonBlob):
            source = snapshot.columns()
        else:
            source = decode_gmon(snapshot)
        if check and self.periods:
            _check_period(self.periods[-1], source.sample_period)
        if isinstance(source, GmonData):
            self._push_dicts(source)
        else:
            self._push_columns(source)
        self.periods.append(source.sample_period)
        self.timestamps.append(source.timestamp)
        self.ranks.append(source.rank)

    def extend(self, snapshots: Sequence[GmonData]) -> None:
        """:meth:`push` every snapshot of a series, in order, at once.

        The same rows, universe and period checks as pushing them one by
        one (a failed check stores nothing), but each matrix takes the
        whole series' counts in one NumPy scatter instead of one store
        per count.
        """
        periods = self.periods[-1:] + [s.sample_period for s in snapshots]
        for prev, cur in zip(periods, periods[1:]):
            _check_period(prev, cur)
        for matrix, counts, cols in (
                (self.ticks, [s.hist for s in snapshots], self._func_col),
                (self.arc_counts, [s.arcs for s in snapshots], self._arc_col)):
            keys = list(chain.from_iterable(counts))
            col = np.fromiter(map(cols.__getitem__, keys) if self.growing
                              else map(cols.get, keys, repeat(-1)),
                              np.intp, len(keys))
            row = np.repeat(np.arange(len(counts)), list(map(len, counts)))
            value = np.fromiter(chain.from_iterable(c.values() for c in counts),
                                np.uint64, len(keys))
            keep = col >= 0
            row += matrix.add_rows(len(counts))
            matrix.buf[row[keep], col[keep]] = value[keep]
        self.periods += [s.sample_period for s in snapshots]
        self.timestamps += [s.timestamp for s in snapshots]
        self.ranks += [s.rank for s in snapshots]

    def interval(self) -> np.ndarray:
        """Tick row of the interval the last snapshot closes."""
        return clamped_diff(self.ticks.view()[-2:])[-1]

    def keep_last(self) -> None:
        """Forget every row but the last: a stream that only needs its
        latest interval keeps O(1) rows."""
        self.ticks.keep_last()
        self.arc_counts.keep_last()
        for header in (self.periods, self.timestamps, self.ranks):
            del header[:-1]

    def gmon(self) -> GmonData:
        """The last row as a cumulative snapshot (zero counts omitted)."""
        return _row_gmon((self.periods[-1], self.timestamps[-1], self.ranks[-1]),
                         self.functions, self.arcs, self.ticks.view()[-1],
                         self.arc_counts.view()[-1])

    # ------------------------------------------------------------------
    def _push_dicts(self, snap: GmonData) -> None:
        for matrix, counts, cols in (
                (self.ticks, snap.hist, self._func_col),
                (self.arc_counts, snap.arcs if self.growing else {},
                 self._arc_col)):
            i, get = matrix.add_rows(1), cols.get
            row = matrix.buf[i]
            for key, value in counts.items():
                j = get(key)
                if j is None:
                    if not self.growing:
                        continue
                    j = cols[key]
                    row = matrix.buf[i]
                try:
                    row[j] = value
                except OverflowError:  # a u64 count past int64: its bits
                    row[j] = value - (1 << 64)

    def _push_columns(self, source: GmonColumns) -> None:
        names = source.names
        func_of_name = self._tables.get(source.table)
        if func_of_name is None:
            if len(self._tables) >= 256:
                self._tables.clear()
            func_of_name = self._tables[source.table] = np.array(
                [self._func_col.get(n, -1) for n in names], dtype=np.intp)

        idx, ticks = source.hist_name, source.hist_ticks
        cols = func_of_name[idx]
        if not self.growing:
            keep = cols >= 0
            cols, ticks = cols[keep], ticks[keep]
        elif len(cols) and cols.min() < 0:
            for i in idx[cols < 0].tolist():  # histogram-record order
                func_of_name[i] = self._func_col[names[i]]
            cols = func_of_name[idx]
        i = self.ticks.add_rows(1)  # before reading buf, which it may replace
        self.ticks.buf[i, cols] = ticks

        if not self.growing:
            self.arc_counts.add_rows(1)
            return
        arc_cols = [self._arc_col[names[s], names[d]] for s, d in
                    zip(source.arc_caller.tolist(), source.arc_callee.tolist())]
        i = self.arc_counts.add_rows(1)
        self.arc_counts.buf[i, arc_cols] = source.arc_count


def assemble_interval_data(
    diff: Differencer,
    *,
    drop_short_final: bool = True,
    min_final_fraction: float = 0.5,
    keep_gmons: bool = True,
) -> IntervalData:
    """Turn a :class:`Differencer`'s cumulative rows into :class:`IntervalData`.

    The one place the rows -> attribute-matrix conversion lives: the
    batch path (:func:`intervals_from_snapshots`) and the streaming
    path (:class:`repro.core.incremental.IncrementalAnalyzer`) both call
    this, so their interval data is identical.  It infers the nominal
    interval (the first timestamp, or the first gap when that is zero),
    takes one :func:`clamped_diff` of the rows, and drops a trailing
    partial interval shorter than ``min_final_fraction`` of the nominal
    one when ``drop_short_final`` is set (the program-exit dump right
    after a periodic one would otherwise add a near-empty point that
    k-means would have to absorb).  Column order of the universe is
    arbitrary; the attribute vocabulary is re-derived from the deltas
    and sorted.
    """
    timestamps = list(diff.timestamps)
    if len(timestamps) < 2:
        raise ProfileDataError("need at least two snapshots to form an interval")
    interval = timestamps[0] if timestamps[0] > 0 else timestamps[1] - timestamps[0]
    if interval <= 0:
        raise ProfileDataError("could not infer a positive interval length")
    tick_deltas = clamped_diff(diff.ticks.view())
    arc_deltas = clamped_diff(diff.arc_counts.view())
    n = len(timestamps)
    if drop_short_final and timestamps[-1] - timestamps[-2] < min_final_fraction * interval:
        n -= 1
        tick_deltas, arc_deltas = tick_deltas[:n], arc_deltas[:n]
    periods = np.asarray(diff.periods[:n])
    all_funcs, all_arcs = list(diff.functions), list(diff.arcs)

    # Attribute dimensions: every function that shows up in the *deltas*
    # (the paper's footnote 3) — sampled in some interval, or the callee
    # of an arc that fired in some interval.
    sampled = tick_deltas.any(axis=0)
    fired = arc_deltas.any(axis=0)
    active_funcs = {all_funcs[j] for j in np.nonzero(sampled)[0]}
    active_funcs |= {all_arcs[j][1] for j in np.nonzero(fired)[0]}
    active_funcs -= {SPONTANEOUS}
    names = sorted(active_funcs)
    name_index = {name: i for i, name in enumerate(names)}

    keep_func = np.array([f in name_index for f in all_funcs], dtype=bool)
    self_time = tick_deltas[:, keep_func].astype(float)
    self_time *= periods[:, None]
    func_dest = np.array([name_index[f] for f, k in zip(all_funcs, keep_func) if k],
                         dtype=np.intp)
    # Columns of the universe are a subset in arbitrary positions;
    # scatter them into sorted attribute order.
    ordered_time = np.zeros((self_time.shape[0], len(names)))
    ordered_time[:, func_dest] = self_time

    # Calls into each attribute function: per-arc clamped deltas summed
    # over callers (an integer matmul against the arc->callee indicator).
    keep_arc = np.array([a[1] in name_index for a in all_arcs], dtype=bool)
    kept_arcs = [a for a, k in zip(all_arcs, keep_arc) if k]
    arc_to_name = np.zeros((len(kept_arcs), len(names)), dtype=np.int64)
    for j, (_caller, callee) in enumerate(kept_arcs):
        arc_to_name[j, name_index[callee]] = 1
    calls = arc_deltas[:, keep_arc] @ arc_to_name

    interval_gmons: Optional[Sequence[GmonData]] = None
    if keep_gmons:
        metas = list(zip(diff.periods[:n], timestamps[:n], diff.ranks[:n]))
        interval_gmons = LazyGmonDeltas(
            metas, tick_deltas, arc_deltas, all_funcs, all_arcs)

    return IntervalData(
        functions=names,
        self_time=ordered_time,
        calls=calls,
        timestamps=np.asarray(timestamps[:n], dtype=float),
        interval=float(interval),
        interval_gmons=interval_gmons,
    )


def intervals_from_snapshots(
    snapshots: Sequence[GmonData],
    drop_short_final: bool = True,
    min_final_fraction: float = 0.5,
    keep_gmons: bool = True,
) -> IntervalData:
    """Build :class:`IntervalData` from an ordered cumulative snapshot series.

    Stores the series as the cumulative rows of one growing
    :class:`Differencer` (:meth:`Differencer.extend`), then
    :func:`assemble_interval_data` takes one clamped diff of the rows
    (see there for ``drop_short_final``).
    """
    diff = Differencer()
    diff.extend(snapshots)
    if np.any(np.diff(diff.timestamps) < 0):
        raise ProfileDataError("snapshots are not in time order")
    return assemble_interval_data(
        diff, drop_short_final=drop_short_final,
        min_final_fraction=min_final_fraction, keep_gmons=keep_gmons)


class LazyGmonDeltas(_Sequence):
    """Per-interval :class:`GmonData` deltas, materialized per index.

    The analysis hot path (self-time features) never touches the delta
    *dicts* — only the matrices — so building 2×n_intervals dicts up
    front would be pure overhead.  Consumers that do need them (children
    -time features, call-graph lift) index or iterate this sequence;
    each entry is converted on first access and cached individually, so
    touching one interval costs one dict build, not n, and repeated
    access never re-materializes.  Entries with zero delta are omitted,
    matching ``GmonData.subtract``.
    """

    def __init__(self, metas: List[Tuple[float, float, int]],
                 tick_deltas: np.ndarray, arc_deltas: np.ndarray,
                 all_funcs: List[str],
                 all_arcs: List[Tuple[str, str]]) -> None:
        self._metas = metas
        self._tick_deltas = tick_deltas
        self._arc_deltas = arc_deltas
        self._all_funcs = all_funcs
        self._all_arcs = all_arcs
        self._cache: List[Optional[GmonData]] = [None] * len(metas)

    def _entry(self, i: int) -> GmonData:
        got = self._cache[i]
        if got is None:
            got = self._cache[i] = _row_gmon(
                self._metas[i], self._all_funcs, self._all_arcs,
                self._tick_deltas[i], self._arc_deltas[i])
        return got

    def __len__(self) -> int:
        return len(self._metas)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._entry(i)
                    for i in range(*index.indices(len(self._metas)))]
        if index < 0:
            index += len(self._metas)
        if not 0 <= index < len(self._metas):
            raise IndexError("interval delta index out of range")
        return self._entry(index)

    def __iter__(self):
        return (self._entry(i) for i in range(len(self._metas)))


def intervals_from_flat_profiles(
    profiles: Sequence[FlatProfile],
    interval: float = 1.0,
) -> IntervalData:
    """Build :class:`IntervalData` from *cumulative* parsed flat profiles.

    This is the text-report path the original tool takes (it shells out to
    ``gprof`` per sample file and parses the tables); values carry the
    report's two-decimal precision.
    """
    if len(profiles) < 2:
        raise ProfileDataError("need at least two flat profiles to form an interval")

    names = sorted({e.name for p in profiles for e in p} - {SPONTANEOUS})
    name_index = {name: i for i, name in enumerate(names)}
    n = len(profiles)

    cum_time = np.zeros((n, len(names)))
    cum_calls = np.zeros((n, len(names)), dtype=np.int64)
    for i, profile in enumerate(profiles):
        for entry in profile:
            j = name_index.get(entry.name)
            if j is None:
                continue
            cum_time[i, j] = entry.self_seconds
            cum_calls[i, j] = entry.calls or 0

    self_time = clamped_diff(cum_time)
    calls = clamped_diff(cum_calls)

    timestamps = np.array(
        [p.timestamp if p.timestamp else (i + 1) * interval for i, p in enumerate(profiles)]
    )
    return IntervalData(
        functions=names,
        self_time=self_time,
        calls=calls,
        timestamps=timestamps,
        interval=interval,
        interval_gmons=None,
    )
