"""Shared utilities: errors, seeded RNG streams, ASCII tables and plots.

These helpers are deliberately dependency-light; everything else in
:mod:`repro` builds on them.
"""

from repro._lazy import lazy_attributes

# Names resolve on first use: ``atomicio`` imports ``repro.store.layout``,
# which imports ``repro.util.errors``, so an eager package would import
# ``atomicio`` half-way through loading the store's layout.
__getattr__, __dir__, __all__ = lazy_attributes(__name__, {
    "errors": ("ReproError", "ValidationError", "FormatError", "SampleFileError",
               "ModelFormatError", "CheckpointError", "ProfileDataError",
               "ClusteringError", "CollectorError", "AppError"),
    "atomicio": ("atomic_write_bytes",),
    "rng": ("derive_seed", "rng_stream"),
    "tables": ("Table",),
    "asciiplot": ("AsciiPlot", "sparkline"),
})
