"""On-disk layout: the single source of truth for file naming.

Every durable artifact the package writes — loose gmon samples, segment
files and their manifest, phase-model artifacts (``.ipm``), daemon
checkpoints (``.ipckp``), atomic-write temp files — gets its name from
this module, so a rename in one place cannot orphan files written by
another.  Parsers and formatters live side by side, so a layout change
is one edit and the garbage collector can enumerate *exactly* the files
the writers produce.

Nothing here touches the filesystem except :func:`gc_versioned`, the
shared retention sweep for versioned artifacts.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.util.errors import ValidationError

# ----------------------------------------------------------------------
# atomic-write temp files
# ----------------------------------------------------------------------
#: Suffix every atomic-write temp file carries; readers and GC sweeps
#: skip (and may reap) anything ending in it.
TMP_SUFFIX = ".tmp"


def tmp_path_for(path: Union[str, Path]) -> Path:
    """The same-directory temp name an atomic write of ``path`` uses.

    Carries the pid so concurrent writers in different processes never
    collide; the leading dot keeps directory listings and glob-based
    loaders from ever matching a half-written file.
    """
    path = Path(path)
    return path.with_name(f".{path.name}.{os.getpid()}{TMP_SUFFIX}")


def is_tmp_name(name: str) -> bool:
    """True for atomic-write temp files (crash leftovers included)."""
    return name.startswith(".") and name.endswith(TMP_SUFFIX)


# ----------------------------------------------------------------------
# loose per-interval sample files (the LooseStore layout)
# ----------------------------------------------------------------------
LOOSE_SAMPLE_RE = re.compile(
    r"^gmon-r(?P<rank>\d{3})-i(?P<index>\d{5})\.gmon$")


def loose_sample_name(rank: int, index: int) -> str:
    """``gmon-r<rank:03d>-i<index:05d>.gmon``."""
    if rank < 0 or index < 0:
        raise ValidationError("rank and index must be non-negative")
    return f"gmon-r{rank:03d}-i{index:05d}.gmon"


def parse_loose_sample(name: str) -> Optional[Tuple[int, int]]:
    """``(rank, interval_index)`` for a loose sample file, else None."""
    m = LOOSE_SAMPLE_RE.match(name)
    if not m:
        return None
    return int(m.group("rank")), int(m.group("index"))


# ----------------------------------------------------------------------
# segment store
# ----------------------------------------------------------------------
#: Manifest file at a segment-store root (checksummed artifact envelope).
MANIFEST_NAME = "MANIFEST.isegm"
#: Subdirectory holding segment files.
SEGMENTS_DIRNAME = "segments"
#: Subdirectory a segment store reserves for versioned model/checkpoint
#: artifacts it garbage-collects.
ARTIFACTS_DIRNAME = "artifacts"

SEGMENT_RE = re.compile(
    r"^seg-(?P<serial>\d{8})-t(?P<tier>\d)\.npz$")

_STREAM_SAFE_RE = re.compile(r"[^A-Za-z0-9._-]")


def sanitize_stream(stream_id: str) -> str:
    """A path-safe directory name for an arbitrary stream id.

    Stream ids come off the wire, so anything goes; unsafe characters
    are percent-escaped (stable, reversible enough for humans) and the
    empty id is rejected outright.

    Escaping is per UTF-8 *byte*, always two hex digits (``"€"`` →
    ``"%e2%82%ac"``), so the mapping is injective: a codepoint above
    0xFF can never render the same as some other id's escape sequence.
    (The old per-codepoint ``%XXXX`` form collided — ``"€x"`` and
    ``" acx"`` both produced ``"%20acx"`` and shared one archive
    directory.)  ASCII ids render exactly as before, so existing
    on-disk layouts still parse.
    """
    if not stream_id:
        raise ValidationError("stream id must be non-empty")
    safe = _STREAM_SAFE_RE.sub(
        lambda m: "".join(f"%{b:02x}" for b in m.group(0).encode("utf-8")),
        stream_id)
    if safe in (".", ".."):
        raise ValidationError(f"stream id {stream_id!r} is not path-safe")
    return safe


def segment_name(serial: int, tier: int) -> str:
    """``seg-<serial:08d>-t<tier>.npz`` — serial is store-wide unique."""
    if serial < 0 or not 0 <= tier <= 9:
        raise ValidationError("bad segment serial/tier")
    return f"seg-{serial:08d}-t{tier}.npz"


def parse_segment(name: str) -> Optional[Tuple[int, int]]:
    """``(serial, tier)`` for a segment file name, else None."""
    m = SEGMENT_RE.match(name)
    if not m:
        return None
    return int(m.group("serial")), int(m.group("tier"))


# ----------------------------------------------------------------------
# daemon checkpoints and model artifacts
# ----------------------------------------------------------------------
#: The daemon's stable (latest) checkpoint file.
CHECKPOINT_FILENAME = "incprofd.ckpt"
#: Fleet topology manifest at a fleet root.
FLEET_MANIFEST_FILENAME = "fleet-manifest.json"
#: Versioned artifact suffixes the garbage collector understands.
MODEL_SUFFIX = ".ipm"
CHECKPOINT_SUFFIX = ".ipckp"

#: ``model-<stream>-v<version>.ipm`` — live-refit model artifacts.
VERSIONED_MODEL_RE = re.compile(
    r"^model-(?P<stream>.+)-v(?P<version>\d+)\.ipm$")
#: ``incprofd-<serial>.ipckp`` — rotated checkpoint history.
VERSIONED_CHECKPOINT_RE = re.compile(
    r"^incprofd-(?P<version>\d{8})\.ipckp$")


#: Per-worker interval-archive directory name (under the worker's
#: durable-state directory at a fleet root).
WORKER_STORE_DIRNAME = "store"


def worker_dirname(worker_id: str) -> str:
    """Per-worker durable-state directory name under a fleet root."""
    if not worker_id:
        raise ValidationError("worker id must be non-empty")
    if "/" in worker_id or worker_id in (".", ".."):
        raise ValidationError(f"worker id {worker_id!r} is not path-safe")
    return f"worker-{worker_id}"


def versioned_model_name(stream_id: str, version: int) -> str:
    return f"model-{sanitize_stream(stream_id)}-v{version}{MODEL_SUFFIX}"


def versioned_checkpoint_name(serial: int) -> str:
    return f"incprofd-{serial:08d}{CHECKPOINT_SUFFIX}"


def _versioned_key(name: str) -> Optional[Tuple[str, int]]:
    """``(family, version)`` for a versioned artifact name, else None.

    The family is what retention groups by: model artifacts rotate per
    stream, checkpoint history rotates as one series.
    """
    m = VERSIONED_MODEL_RE.match(name)
    if m:
        return f"model:{m.group('stream')}", int(m.group("version"))
    m = VERSIONED_CHECKPOINT_RE.match(name)
    if m:
        return "checkpoint", int(m.group("version"))
    return None


def gc_versioned(directory: Union[str, Path], keep: int = 2) -> List[Path]:
    """Prune versioned ``.ipm``/``.ipckp`` artifacts, newest ``keep`` per
    family survive.  Returns the paths deleted (missing directories and
    races with concurrent deleters are silently fine — GC is advisory).

    Atomic-write temp leftovers from crashed writers are reaped too:
    they are never the latest complete version of anything.
    """
    if keep < 1:
        raise ValidationError("gc must keep at least one version")
    directory = Path(directory)
    try:
        names = [p.name for p in directory.iterdir()]
    except OSError:
        return []
    families: Dict[str, List[Tuple[int, str]]] = {}
    deleted: List[Path] = []
    for name in names:
        if is_tmp_name(name):
            deleted.append(directory / name)
            continue
        key = _versioned_key(name)
        if key is not None:
            families.setdefault(key[0], []).append((key[1], name))
    for versions in families.values():
        versions.sort()
        for _version, name in versions[:-keep]:
            deleted.append(directory / name)
    survivors: List[Path] = []
    for path in deleted:
        try:
            path.unlink()
            survivors.append(path)
        except OSError:
            pass
    return survivors
