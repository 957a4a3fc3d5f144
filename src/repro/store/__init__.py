"""Unified interval storage: one interface, two backends, tiered retention.

The public surface re-exported here (and through :mod:`repro.api`):

- :class:`IntervalStore` / :class:`ReplayResult` — the abstract
  append/scan/window/compact/gc/replay interface (``interface.py``);
- :class:`LooseStore` — the legacy one-gmon-file-per-interval layout;
- :class:`SegmentStore` / :class:`CompactionPolicy` / :func:`open_store`
  — the append-only columnar segment store with retention tiers;
- :mod:`repro.store.layout` — the single source of truth for on-disk
  naming (file patterns, tmp suffixes, versioned-artifact GC).

Attributes resolve lazily (PEP 562): ``repro.util.atomicio`` consults
:mod:`repro.store.layout` for temp-file naming, so this package must be
importable without pulling in the backend modules (which themselves
import ``repro.util.atomicio``).
"""

from __future__ import annotations

from repro._lazy import lazy_attributes
from repro.store import layout  # noqa: F401  (leaf module: safe to eager-load)

__getattr__, __dir__, _names = lazy_attributes(__name__, {
    "interface": ("IntervalStore", "ReplayResult"),
    "loose": ("LooseStore",),
    "segments": ("CompactionPolicy", "SegmentMeta", "SegmentStore", "TIER_RAW",
                 "TIER_SKETCH", "TIER_VECTOR", "open_store"),
})

__all__ = ["layout", *sorted(_names)]
