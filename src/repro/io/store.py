"""The binary index store: save built indexes, memory-map them back.

Index construction is the expensive part of every workflow (z-estimation,
suffix sorting, minimizer sampling); the store persists the *constructed*
artefacts so a saved index answers queries after a cheap reload instead of a
rebuild.  One file holds one index — monolithic or sharded — in a simple
container:

======  ====================================================================
bytes   content
======  ====================================================================
0–7     magic ``b"RPROIDX2"``
8–15    little-endian ``uint64``: byte length of the JSON header
16–19   little-endian ``uint32``: CRC32 of the JSON header bytes
20–     JSON header: ``format`` / ``version`` fields, the index metadata and
        an array manifest ``{name: {dtype, shape, offset, crc32}}``
...     64-byte-aligned raw array blobs (C order, native dtypes)
======  ====================================================================

Version-1 containers (magic ``b"RPROIDX\\n"``, no checksums) are still
readable; everything written here is version 2.

Durability: every container and manifest write goes through a temp file in
the same directory, ``flush → fsync → os.replace`` and a directory fsync,
so a crash leaves either the old or the new file — never a torn one.
Directory stores additionally carry a write-ahead log (``wal.log``) of
length-and-checksum-framed update records appended (and fsync'd) *before*
shard rewrites; :func:`recover_sharded_store` rolls committed-but-unapplied
updates forward, discards torn tail records, and quarantines corrupt shard
files.  :func:`verify_store` audits a store without modifying it.

Arrays are loaded with :func:`numpy.memmap` by default, so the probability
matrix and the leaf/suffix arrays stay on disk until touched; pass
``mmap=False`` to read everything into RAM.  Checksums are verified on
RAM loads by default and skipped on mmap loads (pass ``verify=...`` to
override either way).  Nothing expensive is re-run on load: the CSR
compacted-trie arrays and the range-tree grid levels are persisted
alongside the leaf/suffix arrays and rehydrated directly, so only the tiny
range-maximum table of the baselines is derived from loaded data.  Stores
written before the trie/grid arrays existed still load — the extra arrays
are presence-gated on the manifest, and missing ones fall back to the old
re-derivation path.  Unknown magic numbers, formats or versions raise
:class:`~repro.errors.StoreFormatError`; damaged files raise
:class:`~repro.errors.StoreCorruptionError` naming the file, section and
(for checksum mismatches) offset plus expected/actual digests.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from ..core.alphabet import Alphabet
from ..core.heavy import HeavyString
from ..core.weighted_string import WeightedString
from ..errors import (
    StoreCorruptionError,
    StoreError,
    StoreFormatError,
)
from ..faultinject import failpoint
from ..sampling.minimizers import MinimizerScheme
from ..version import __version__

__all__ = [
    "save_index",
    "load_index",
    "stored_arrays",
    "save_sharded_store",
    "load_sharded_store",
    "refresh_sharded_store",
    "reload_sharded_store",
    "compact_store",
    "append_wal",
    "read_wal",
    "apply_updates_durably",
    "recover_sharded_store",
    "verify_store",
    "STORE_FORMAT",
    "STORE_VERSION",
    "SHARDED_STORE_FORMAT",
    "SHARDED_STORE_VERSION",
    "WAL_NAME",
]

_MAGIC = b"RPROIDX2"
_MAGIC_V1 = b"RPROIDX\n"
_ALIGNMENT = 64

STORE_FORMAT = "repro.index_store"
STORE_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)

SHARDED_STORE_FORMAT = "repro.sharded_store"
SHARDED_STORE_VERSION = 1
_SHARDED_SUPPORTED_VERSIONS = (1,)
_MANIFEST_NAME = "manifest.json"
WAL_NAME = "wal.log"

#: WAL record frame: payload byte length + CRC32 of the payload.
_WAL_FRAME = struct.Struct("<II")
_VERIFY_CHUNK = 1 << 22  # stream checksums in 4 MiB slices


# --------------------------------------------------------------------------- #
# container reading / writing                                                  #
# --------------------------------------------------------------------------- #
def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _crc32(buffer) -> int:
    return zlib.crc32(buffer) & 0xFFFFFFFF


def _fsync_directory(directory: Path) -> None:
    """Make a completed rename durable (best-effort on exotic filesystems)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write(path, writer, prefix: str) -> None:
    """Write a file crash-atomically: tmp → flush → fsync → replace → dir fsync.

    ``writer(handle)`` produces the content into the temp file.  A crash at
    any point leaves either the old file or the new one, never a torn mix;
    the temp file (``.{name}.tmp.{pid}``, same directory) is removed on
    error and swept by :func:`recover_sharded_store` after a crash.
    ``prefix`` names the failpoint family armed at each durability boundary.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            writer(handle)
            handle.flush()
            failpoint(f"{prefix}.tmp_written")
            os.fsync(handle.fileno())
        failpoint(f"{prefix}.fsynced")
        os.replace(tmp, path)
        failpoint(f"{prefix}.replaced")
        _fsync_directory(path.parent)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def _write_container(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    manifest = {}
    offset = 0
    blobs = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _align(offset)
        manifest[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "crc32": _crc32(array.data) if array.nbytes else 0,
        }
        blobs.append((offset, array))
        offset += array.nbytes
    header = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "writer": __version__,
        "meta": meta,
        "arrays": manifest,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    data_start = _align(len(_MAGIC) + 8 + 4 + len(header_bytes))

    def write_body(handle) -> None:
        handle.write(_MAGIC)
        handle.write(struct.pack("<Q", len(header_bytes)))
        handle.write(struct.pack("<I", _crc32(header_bytes)))
        handle.write(header_bytes)
        for blob_offset, array in blobs:
            handle.seek(data_start + blob_offset)
            handle.write(array.tobytes())

    _atomic_write(path, write_body, "store.container")


class _Container:
    """A parsed store file: the header plus lazy array access.

    Parsing always validates structure (magic, header checksum on v2,
    format/version, array bounds against the file size); ``verify=True``
    additionally streams every array blob through CRC32 and raises
    :class:`~repro.errors.StoreCorruptionError` on the first mismatch.
    """

    def __init__(self, path, mmap: bool, *, verify: bool = False) -> None:
        self.path = Path(path)
        self.mmap = mmap
        try:
            with open(self.path, "rb") as handle:
                file_size = os.fstat(handle.fileno()).st_size
                magic = handle.read(len(_MAGIC))
                if magic not in (_MAGIC, _MAGIC_V1):
                    raise StoreFormatError(
                        f"{self.path} is not a repro index store (bad magic)"
                    )
                (header_length,) = struct.unpack("<Q", handle.read(8))
                expected_crc = None
                if magic == _MAGIC:
                    (expected_crc,) = struct.unpack("<I", handle.read(4))
                if header_length > max(file_size, 0):
                    raise StoreCorruptionError(
                        self.path,
                        "index-store header",
                        "is corrupt: header length exceeds the file size",
                        offset=len(magic),
                    )
                header_bytes = handle.read(header_length)
                if len(header_bytes) < header_length:
                    raise StoreCorruptionError(
                        self.path,
                        "index-store header",
                        "is corrupt: file truncated inside the header",
                        offset=len(magic) + 8 + len(header_bytes),
                    )
                if expected_crc is not None:
                    actual_crc = _crc32(header_bytes)
                    if actual_crc != expected_crc:
                        raise StoreCorruptionError(
                            self.path,
                            "index-store header",
                            "is corrupt: header checksum mismatch",
                            offset=len(magic) + 8 + 4,
                            expected=f"{expected_crc:08x}",
                            actual=f"{actual_crc:08x}",
                        )
                header = json.loads(header_bytes.decode("utf-8"))
        except OSError as exc:
            raise StoreError(f"cannot read {self.path}: {exc}") from exc
        except (json.JSONDecodeError, struct.error, UnicodeDecodeError) as exc:
            raise StoreCorruptionError(
                self.path,
                "index-store header",
                f"is corrupt: {exc}",
            ) from exc
        if header.get("format") != STORE_FORMAT:
            raise StoreFormatError(
                f"{self.path} has format {header.get('format')!r}, "
                f"expected {STORE_FORMAT!r}"
            )
        if header.get("version") not in _SUPPORTED_VERSIONS:
            supported = ", ".join(str(v) for v in _SUPPORTED_VERSIONS)
            raise StoreFormatError(
                f"{self.path} has unsupported index-store version "
                f"{header.get('version')!r} (supported: {supported})"
            )
        self.meta = header["meta"]
        self._manifest = header["arrays"]
        if magic == _MAGIC:
            self._data_start = _align(len(_MAGIC) + 8 + 4 + header_length)
        else:
            self._data_start = _align(len(_MAGIC_V1) + 8 + header_length)
        self._check_bounds(file_size)
        if verify:
            problems = self.verify_arrays()
            if problems:
                raise problems[0]

    def _spec_nbytes(self, spec: dict) -> int:
        shape = tuple(spec["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return count * np.dtype(spec["dtype"]).itemsize

    def _check_bounds(self, file_size: int) -> None:
        """Cheap always-on truncation guard: every blob must fit the file."""
        for name, spec in self._manifest.items():
            nbytes = self._spec_nbytes(spec)
            if nbytes == 0:
                continue
            end = self._data_start + int(spec["offset"]) + nbytes
            if end > file_size:
                raise StoreCorruptionError(
                    self.path,
                    f"array {name!r}",
                    "is truncated: blob extends past the end of the file",
                    offset=self._data_start + int(spec["offset"]),
                    expected=f"{end} bytes",
                    actual=f"{file_size} bytes",
                )

    def verify_arrays(self) -> list[StoreCorruptionError]:
        """Stream every checksummed blob through CRC32; collect mismatches.

        Version-1 containers carry no checksums, so they verify vacuously.
        Returns the problems instead of raising so ``verify-store`` can
        report all of them at once; load paths raise the first one.
        """
        problems: list[StoreCorruptionError] = []
        with open(self.path, "rb") as handle:
            for name, spec in self._manifest.items():
                expected = spec.get("crc32")
                if expected is None:
                    continue
                nbytes = self._spec_nbytes(spec)
                offset = self._data_start + int(spec["offset"])
                handle.seek(offset)
                crc = 0
                remaining = nbytes
                while remaining > 0:
                    chunk = handle.read(min(remaining, _VERIFY_CHUNK))
                    if not chunk:
                        break
                    crc = zlib.crc32(chunk, crc)
                    remaining -= len(chunk)
                if remaining > 0 or (crc & 0xFFFFFFFF) != int(expected):
                    problems.append(
                        StoreCorruptionError(
                            self.path,
                            f"array {name!r}",
                            "is corrupt: checksum mismatch",
                            offset=offset,
                            expected=f"{int(expected):08x}",
                            actual=f"{crc & 0xFFFFFFFF:08x}",
                        )
                    )
        return problems

    def has(self, name: str) -> bool:
        """Whether the store holds an array called ``name``.

        Optional artefacts (trie / grid arrays) are presence-gated on the
        manifest so stores written before they existed still load.
        """
        return name in self._manifest

    def array(self, name: str) -> np.ndarray:
        try:
            spec = self._manifest[name]
        except KeyError:
            raise StoreFormatError(
                f"{self.path} is missing the stored array {name!r}"
            ) from None
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        offset = self._data_start + spec["offset"]
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if count == 0:  # zero-byte blobs cannot be memory-mapped
            return np.empty(shape, dtype=dtype)
        if self.mmap:
            return np.memmap(self.path, dtype=dtype, mode="r", offset=offset, shape=shape)
        with open(self.path, "rb") as handle:
            handle.seek(offset)
            flat = np.fromfile(handle, dtype=dtype, count=count)
        return flat.reshape(shape)


# --------------------------------------------------------------------------- #
# leaf collections                                                             #
# --------------------------------------------------------------------------- #
def _pack_collection(arrays: dict, prefix: str, collection) -> None:
    # The collection already IS parallel arrays: persist them as-is, no
    # per-leaf object round-trip.
    block = collection.arrays
    arrays[f"{prefix}.anchor"] = block.anchors
    arrays[f"{prefix}.length"] = block.lengths
    arrays[f"{prefix}.position"] = block.positions
    arrays[f"{prefix}.source"] = block.sources
    arrays[f"{prefix}.mm_start"] = block.mm_start
    arrays[f"{prefix}.mm_offset"] = block.mm_offset
    arrays[f"{prefix}.mm_code"] = block.mm_code


def _unpack_collection(container: _Container, prefix: str, reference, lcps=None):
    from ..indexes.minimizer_core import LeafArrays, LeafCollection

    block = LeafArrays(
        container.array(f"{prefix}.anchor"),
        container.array(f"{prefix}.length"),
        container.array(f"{prefix}.position"),
        container.array(f"{prefix}.source"),
        container.array(f"{prefix}.mm_start"),
        container.array(f"{prefix}.mm_offset"),
        container.array(f"{prefix}.mm_code"),
    )
    return LeafCollection(block, reference, presorted=True, trie_lcps=lcps)


# --------------------------------------------------------------------------- #
# estimation + checkpoint packing                                              #
# --------------------------------------------------------------------------- #
def _pack_estimation(arrays: dict, prefix: str, estimation) -> None:
    """Persist the z-estimation family plus its builder checkpoints.

    The family itself is two dense ``(⌊z⌋ × n)`` arrays.  Checkpoints are
    variable-size (one flattened group tree each), so they are packed as one
    CSR block over all checkpoints: per-node segment/member *counts* instead
    of per-checkpoint offset arrays, with ``node_start`` delimiting each
    checkpoint's node slice.  The per-checkpoint ``seg_start``/``mem_start``
    offsets are recomputed by cumulative sums on load.
    """
    arrays[f"{prefix}est.strings"] = estimation.strings
    arrays[f"{prefix}est.ends"] = estimation.ends
    checkpoints = estimation.checkpoints
    positions = np.asarray([c.position for c in checkpoints], dtype=np.int64)
    arrays[f"{prefix}est.cp.position"] = positions
    if not len(checkpoints):
        return
    trees = [c.tree for c in checkpoints]
    node_counts = np.asarray([t.node_count for t in trees], dtype=np.int64)
    zero = np.zeros(1, dtype=np.int64)
    arrays[f"{prefix}est.cp.alive"] = np.stack([c.alive_from for c in checkpoints])
    arrays[f"{prefix}est.cp.node_start"] = np.concatenate(
        [zero, np.cumsum(node_counts)]
    )
    arrays[f"{prefix}est.cp.parent"] = np.concatenate([t.parent for t in trees])
    arrays[f"{prefix}est.cp.seg_count"] = np.concatenate(
        [np.diff(t.seg_start) for t in trees]
    )
    arrays[f"{prefix}est.cp.mem_count"] = np.concatenate(
        [np.diff(t.mem_start) for t in trees]
    )
    arrays[f"{prefix}est.cp.seg_lo"] = np.concatenate([t.seg_lo for t in trees])
    arrays[f"{prefix}est.cp.seg_hi"] = np.concatenate([t.seg_hi for t in trees])
    arrays[f"{prefix}est.cp.seg_weight"] = np.concatenate(
        [t.seg_weight for t in trees]
    )
    arrays[f"{prefix}est.cp.mem_level"] = np.concatenate([t.mem_level for t in trees])
    arrays[f"{prefix}est.cp.mem_token"] = np.concatenate([t.mem_token for t in trees])


def _unpack_estimation(container: _Container, prefix: str, source, z: float):
    """Rehydrate the stored z-estimation (with checkpoints) or return None."""
    from ..core.estimation import EstimationCheckpoint, ZEstimation
    from ..core.properties import GroupTreeArrays

    if not container.has(f"{prefix}est.strings"):
        return None
    strings = container.array(f"{prefix}est.strings")
    ends = container.array(f"{prefix}est.ends")
    checkpoints = []
    if container.has(f"{prefix}est.cp.position"):
        positions = container.array(f"{prefix}est.cp.position")
        if len(positions):
            alive = container.array(f"{prefix}est.cp.alive")
            node_start = np.asarray(
                container.array(f"{prefix}est.cp.node_start"), dtype=np.int64
            )
            parent = container.array(f"{prefix}est.cp.parent")
            seg_count = np.asarray(
                container.array(f"{prefix}est.cp.seg_count"), dtype=np.int64
            )
            mem_count = np.asarray(
                container.array(f"{prefix}est.cp.mem_count"), dtype=np.int64
            )
            seg_data = tuple(
                container.array(f"{prefix}est.cp.{name}")
                for name in ("seg_lo", "seg_hi", "seg_weight")
            )
            mem_data = tuple(
                container.array(f"{prefix}est.cp.{name}")
                for name in ("mem_level", "mem_token")
            )
            zero = np.zeros(1, dtype=np.int64)
            seg_block = np.concatenate([zero, np.cumsum(seg_count)])
            mem_block = np.concatenate([zero, np.cumsum(mem_count)])
            for index, position in enumerate(positions.tolist()):
                lo, hi = int(node_start[index]), int(node_start[index + 1])
                tree = GroupTreeArrays(
                    parent=np.asarray(parent[lo:hi], dtype=np.int64),
                    seg_start=np.concatenate([zero, np.cumsum(seg_count[lo:hi])]),
                    seg_lo=np.asarray(
                        seg_data[0][seg_block[lo] : seg_block[hi]], dtype=np.int64
                    ),
                    seg_hi=np.asarray(
                        seg_data[1][seg_block[lo] : seg_block[hi]], dtype=np.int64
                    ),
                    seg_weight=np.asarray(
                        seg_data[2][seg_block[lo] : seg_block[hi]], dtype=np.float64
                    ),
                    mem_start=np.concatenate([zero, np.cumsum(mem_count[lo:hi])]),
                    mem_level=np.asarray(
                        mem_data[0][mem_block[lo] : mem_block[hi]], dtype=np.int64
                    ),
                    mem_token=np.asarray(
                        mem_data[1][mem_block[lo] : mem_block[hi]], dtype=np.int64
                    ),
                )
                checkpoints.append(
                    EstimationCheckpoint(
                        position=int(position),
                        alive_from=np.asarray(alive[index], dtype=np.int64),
                        tree=tree,
                    )
                )
    return ZEstimation(strings, ends, z, source.alphabet, checkpoints)


# --------------------------------------------------------------------------- #
# per-family packing                                                           #
# --------------------------------------------------------------------------- #
def _stats_meta(stats) -> dict:
    return {
        "name": stats.name,
        "index_size_bytes": stats.index_size_bytes,
        "construction_space_bytes": stats.construction_space_bytes,
        "construction_seconds": stats.construction_seconds,
        "counters": stats.counters,
    }


def _stats_from_meta(meta: dict):
    from ..indexes.space import IndexStats

    counters = dict(meta.get("counters", {}))
    counters["loaded_from_store"] = True
    return IndexStats(
        name=meta.get("name", ""),
        index_size_bytes=int(meta.get("index_size_bytes", 0)),
        construction_space_bytes=int(meta.get("construction_space_bytes", 0)),
        construction_seconds=float(meta.get("construction_seconds", 0.0)),
        counters=counters,
    )


def _pack_body(index, arrays: dict, prefix: str) -> dict:
    """Pack one index's artefacts (everything but its source matrix)."""
    from ..indexes.mwst import MinimizerIndexBase
    from ..indexes.sharded import ShardedIndex
    from ..indexes.wsa import WeightedSuffixArray
    from ..indexes.wst import WeightedSuffixTree

    if isinstance(index, ShardedIndex):
        shard_metas = []
        generations = index.generations
        for number, (shard, shard_index) in enumerate(
            zip(index.shards, index.shard_indexes)
        ):
            body = _pack_body(shard_index, arrays, f"{prefix}s{number}.")
            body["plan"] = [shard.start, shard.core_end, shard.end]
            body["generation"] = generations[number]
            shard_metas.append(body)
        return {
            "family": "sharded",
            "kind": index.kind,
            "max_pattern_len": index.maximum_pattern_length,
            "shards": shard_metas,
            "stats": _stats_meta(index.stats),
        }
    if isinstance(index, MinimizerIndexBase):
        data = index.data
        _pack_collection(arrays, f"{prefix}fwd", data.forward)
        _pack_collection(arrays, f"{prefix}bwd", data.backward)
        if index.use_trie:
            arrays[f"{prefix}fwd.lcp"] = data.forward.adjacent_lcps()
            arrays[f"{prefix}bwd.lcp"] = data.backward.adjacent_lcps()
            for side, collection in (("fwd", data.forward), ("bwd", data.backward)):
                for name, array in collection.build_trie().to_arrays().items():
                    arrays[f"{prefix}{side}.trie.{name}"] = array
        if data.pairs is not None:
            arrays[f"{prefix}pairs"] = np.asarray(data.pairs, dtype=np.int64).reshape(-1, 2)
        if data.construction == "estimation" and data.estimation is not None:
            _pack_estimation(arrays, prefix, data.estimation)
        grid_meta = None
        if index.use_grid and index.grid is not None:
            grid = index.grid
            grid_meta = {
                "backend": grid.backend_name,
                "brute_force_limit": grid.brute_force_limit,
            }
            if grid.backend_name == "range_tree":
                for name, array in grid._backend.to_arrays().items():
                    arrays[f"{prefix}grid.{name}"] = array
        scheme = data.scheme
        return {
            "grid": grid_meta,
            "family": "minimizer",
            "kind": index.name,
            "ell": data.ell,
            "construction": data.construction,
            "counters": data.counters,
            "scheme": {
                "ell": scheme.ell,
                "sigma": scheme.sigma,
                "k": scheme.k,
                "order": scheme.order,
            },
            "has_pairs": data.pairs is not None,
            "stats": _stats_meta(index.stats),
        }
    if isinstance(index, (WeightedSuffixArray, WeightedSuffixTree)):
        structure = index.structure
        arrays[f"{prefix}ps.text"] = structure.text
        arrays[f"{prefix}ps.sa"] = structure.sa
        if structure.lcp is not None:
            arrays[f"{prefix}ps.lcp"] = structure.lcp
        if isinstance(index, WeightedSuffixTree):
            for name, array in index._trie.to_arrays().items():
                arrays[f"{prefix}ps.trie.{name}"] = array
        arrays[f"{prefix}ps.rank_positions"] = structure.rank_positions
        arrays[f"{prefix}ps.rank_valid_lengths"] = structure.rank_valid_lengths
        return {
            "family": "wst" if isinstance(index, WeightedSuffixTree) else "wsa",
            "kind": index.name,
            "estimation_width": structure.estimation_width,
            "estimation_length": structure.estimation_length,
            "stats": _stats_meta(index.stats),
        }
    raise StoreError(
        f"indexes of type {type(index).__name__} cannot be stored yet"
    )


def _unpack_body(container: _Container, meta: dict, prefix: str, source, z: float):
    family = meta.get("family")
    if family == "sharded":
        return _unpack_sharded(container, meta, prefix, source, z)
    if family == "minimizer":
        return _unpack_minimizer(container, meta, prefix, source, z)
    if family in {"wst", "wsa"}:
        return _unpack_baseline(container, meta, prefix, source, z)
    raise StoreFormatError(f"unknown stored index family {family!r}")


def _adopt_stored_tries(container: _Container, prefix: str, data) -> None:
    """Install persisted CSR tries on both leaf collections (if stored)."""
    from ..strings.trie import _CSR_ARRAY_NAMES, CompactedTrie

    for side, collection in (("fwd", data.forward), ("bwd", data.backward)):
        if not container.has(f"{prefix}{side}.trie.depth"):
            continue
        trie_arrays = {
            name: container.array(f"{prefix}{side}.trie.{name}")
            for name in _CSR_ARRAY_NAMES
        }
        collection.adopt_trie(
            CompactedTrie.from_arrays(
                trie_arrays,
                collection.lengths,
                collection.letter,
                bulk_letter=collection.letters_at,
            )
        )


def _unpack_minimizer(container: _Container, meta: dict, prefix: str, source, z: float):
    from ..indexes.minimizer_core import MinimizerIndexData
    from ..indexes.registry import get_spec

    cls = get_spec(meta["kind"]).cls
    scheme_meta = meta["scheme"]
    scheme = MinimizerScheme(
        scheme_meta["ell"], scheme_meta["sigma"], scheme_meta["k"], scheme_meta["order"]
    )
    heavy = HeavyString(source)
    forward_lcps = backward_lcps = None
    if cls.use_trie:
        forward_lcps = container.array(f"{prefix}fwd.lcp")
        backward_lcps = container.array(f"{prefix}bwd.lcp")
    forward = _unpack_collection(container, f"{prefix}fwd", heavy.codes, forward_lcps)
    backward = _unpack_collection(
        container, f"{prefix}bwd", heavy.codes[::-1].copy(), backward_lcps
    )
    pairs = None
    if meta.get("has_pairs"):
        pairs = container.array(f"{prefix}pairs")
    data = MinimizerIndexData(
        source=source,
        z=z,
        ell=int(meta["ell"]),
        scheme=scheme,
        heavy=heavy,
        forward=forward,
        backward=backward,
        pairs=pairs,
        construction=meta.get("construction", "estimation"),
        counters=dict(meta.get("counters", {})),
        # Presence-gated: stores written before estimation persistence load
        # with ``estimation=None`` and fall back to full-rebuild updates.
        estimation=_unpack_estimation(container, prefix, source, z),
    )
    if cls.use_trie:
        _adopt_stored_tries(container, prefix, data)
    grid = None
    if cls.use_grid:
        from ..geometry.grid import Grid2D

        if pairs is None:
            raise StoreFormatError(
                f"stored {meta['kind']} index is missing its grid pairing"
            )
        grid_meta = meta.get("grid") or {}
        limit = grid_meta.get("brute_force_limit")
        if container.has(f"{prefix}grid.points"):
            grid = Grid2D.from_arrays(
                container.array(f"{prefix}grid.points"),
                container.array(f"{prefix}grid.level_ys"),
                container.array(f"{prefix}grid.level_idx"),
                brute_force_limit=limit,
            )
        else:
            grid = Grid2D(pairs, brute_force_limit=limit)
    return cls(source, z, data, _stats_from_meta(meta["stats"]), grid)


def _unpack_baseline(container: _Container, meta: dict, prefix: str, source, z: float):
    from ..indexes.property_structures import PropertySuffixStructure
    from ..indexes.wsa import WeightedSuffixArray
    from ..indexes.wst import WeightedSuffixTree, _SuffixLetterAccessor
    from ..strings.trie import _CSR_ARRAY_NAMES, CompactedTrie

    with_lcp = meta["family"] == "wst"
    lcp = container.array(f"{prefix}ps.lcp") if with_lcp else None
    structure = PropertySuffixStructure.from_arrays(
        container.array(f"{prefix}ps.text"),
        container.array(f"{prefix}ps.sa"),
        lcp,
        container.array(f"{prefix}ps.rank_positions"),
        container.array(f"{prefix}ps.rank_valid_lengths"),
        int(meta["estimation_width"]),
        int(meta["estimation_length"]),
    )
    stats = _stats_from_meta(meta["stats"])
    if meta["family"] == "wsa":
        return WeightedSuffixArray(source, z, structure, stats)
    lengths = len(structure.text) - structure.sa
    accessor = _SuffixLetterAccessor(structure.text, structure.sa)
    if container.has(f"{prefix}ps.trie.depth"):
        trie_arrays = {
            name: container.array(f"{prefix}ps.trie.{name}")
            for name in _CSR_ARRAY_NAMES
        }
        trie = CompactedTrie.from_arrays(
            trie_arrays, lengths, accessor, bulk_letter=accessor.bulk
        )
    else:
        trie = CompactedTrie(
            lengths, structure.lcp, accessor, bulk_letter=accessor.bulk
        )
    return WeightedSuffixTree(source, z, structure, trie, stats)


def _unpack_sharded(container: _Container, meta: dict, prefix: str, source, z: float):
    from ..indexes.sharded import Shard, ShardedIndex

    shards = []
    indexes = []
    generations = []
    for number, shard_meta in enumerate(meta["shards"]):
        start, core_end, end = (int(value) for value in shard_meta["plan"])
        shards.append(Shard(start=start, core_end=core_end, end=end))
        generations.append(int(shard_meta.get("generation", 0)))
        shard_source = WeightedString(source.matrix[start:end], source.alphabet)
        indexes.append(
            _unpack_body(container, shard_meta, f"{prefix}s{number}.", shard_source, z)
        )
    return ShardedIndex(
        source,
        z,
        shards,
        indexes,
        meta["kind"],
        int(meta["max_pattern_len"]),
        _stats_from_meta(meta["stats"]),
        generations=generations,
    )


# --------------------------------------------------------------------------- #
# public API                                                                   #
# --------------------------------------------------------------------------- #
def save_index(path, index) -> None:
    """Write a built index (monolithic or sharded) to a store file."""
    arrays: dict[str, np.ndarray] = {}
    body = _pack_body(index, arrays, "")
    arrays["source"] = index.source.matrix
    meta = {
        "z": index.z,
        "alphabet": list(index.source.alphabet.letters),
        "body": body,
    }
    _write_container(path, meta, arrays)


def load_index(path, *, mmap: bool = True, verify: bool | None = None):
    """Reload a stored index; queries work immediately, nothing is rebuilt.

    With ``mmap=True`` (the default) the stored arrays — including the
    probability matrix — are memory-mapped read-only and paged in on first
    use; ``mmap=False`` reads them into RAM instead.

    ``verify`` controls array checksum verification: ``None`` (default)
    verifies on RAM loads and skips on mmap loads (which would otherwise
    page the whole file in, defeating lazy loading); pass ``True``/``False``
    to force either way.  Structural checks (magic, header checksum, blob
    bounds) always run.
    """
    if verify is None:
        verify = not mmap
    container = _Container(path, mmap, verify=verify)
    meta = container.meta
    alphabet = Alphabet(meta["alphabet"])
    source = WeightedString(container.array("source"), alphabet)
    return _unpack_body(container, meta["body"], "", source, float(meta["z"]))


def stored_arrays(index) -> dict[str, np.ndarray]:
    """The persisted arrays of a live index, as the live objects.

    Returns the same ``{name: array}`` mapping :func:`save_index` would write,
    but referencing the index's *current* array objects — so after a
    ``load_index(..., mmap=True)`` round trip every entry should chain through
    ``.base`` to a :class:`numpy.memmap`.  The ``pairs`` entry is one
    exception (re-materialized from Python tuples on both save and load) and
    the ``est.cp.*`` checkpoint blocks are the other (re-concatenated from
    the per-checkpoint objects on every pack), so neither is ever
    mmap-backed.  Used by tests to pin the multi-worker RSS
    story (forked workers must share the page cache, not copy the arrays).
    """
    arrays: dict[str, np.ndarray] = {}
    _pack_body(index, arrays, "")
    arrays["source"] = index.source.matrix
    return arrays


# --------------------------------------------------------------------------- #
# sharded directory store                                                      #
# --------------------------------------------------------------------------- #
def _shard_file_name(number: int, generation: int = 0) -> str:
    if generation:
        return f"shard-{number:04d}.g{generation}.idx"
    return f"shard-{number:04d}.idx"


def _sharded_manifest(index, files=None) -> dict:
    if files is None:
        files = [_shard_file_name(number) for number in range(len(index.shards))]
    return {
        "format": SHARDED_STORE_FORMAT,
        "version": SHARDED_STORE_VERSION,
        "writer": __version__,
        "z": index.z,
        "kind": index.kind,
        "alphabet": list(index.source.alphabet.letters),
        "max_pattern_len": index.maximum_pattern_length,
        "length": len(index.source),
        "shards": [
            {
                "plan": [shard.start, shard.core_end, shard.end],
                "generation": generation,
                "file": file,
            }
            for (shard, generation, file) in zip(
                index.shards, index.generations, files
            )
        ],
    }


def _read_manifest(directory: Path) -> dict:
    path = directory / _MANIFEST_NAME
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise StoreError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StoreCorruptionError(
            path, "manifest", f"is corrupt: not valid JSON ({exc})"
        ) from exc
    if manifest.get("format") != SHARDED_STORE_FORMAT:
        raise StoreFormatError(
            f"{path} has format {manifest.get('format')!r}, "
            f"expected {SHARDED_STORE_FORMAT!r}"
        )
    if manifest.get("version") not in _SHARDED_SUPPORTED_VERSIONS:
        supported = ", ".join(str(v) for v in _SHARDED_SUPPORTED_VERSIONS)
        raise StoreFormatError(
            f"{path} has unsupported sharded-store version "
            f"{manifest.get('version')!r} (supported: {supported})"
        )
    return manifest


def _write_manifest(directory: Path, manifest: dict) -> None:
    payload = json.dumps(manifest, indent=2).encode("utf-8")
    _atomic_write(
        directory / _MANIFEST_NAME, lambda handle: handle.write(payload),
        "store.manifest",
    )


def save_sharded_store(directory, index) -> None:
    """Write a sharded index as a directory: one container file per shard.

    Each shard file is a regular single-index store (reloadable on its own),
    stamped in ``manifest.json`` with the shard plan and the shard's rebuild
    generation.  The per-file layout is what makes dirty-shard persistence
    possible: :func:`refresh_sharded_store` rewrites only shards whose
    generation moved, leaving clean shard files byte-identical on disk.
    """
    from ..indexes.sharded import ShardedIndex

    if not isinstance(index, ShardedIndex):
        raise StoreFormatError(
            "save_sharded_store persists ShardedIndex objects; use save_index "
            "for monolithic indexes"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for number, shard_index in enumerate(index.shard_indexes):
        save_index(directory / _shard_file_name(number), shard_index)
    _write_manifest(directory, _sharded_manifest(index))


def refresh_sharded_store(directory, index, *, generation_names: bool = False) -> dict:
    """Persist an updated sharded index, rewriting only dirty shard files.

    Compares the stored per-shard generation stamps against
    ``index.generations`` and rewrites exactly the shard files whose
    generation moved (plus the manifest).  Returns
    ``{"rewritten": [...], "skipped": count, "obsolete": [...]}``.  The shard
    plan must match the stored one — a re-sharded index needs a full
    :func:`save_sharded_store`.

    With ``generation_names=True`` a dirty shard is written to a *new*
    generation-stamped file (``shard-0002.g3.idx``) instead of truncating the
    old one in place.  That is what makes live multi-worker serving safe:
    processes still memory-mapping the previous file keep reading consistent
    bytes, and the superseded paths come back in ``"obsolete"`` so the caller
    can unlink them once every reader has re-mapped (POSIX keeps mappings of
    unlinked files valid until the last reference drops).
    """
    from ..indexes.sharded import ShardedIndex

    if not isinstance(index, ShardedIndex):
        raise StoreFormatError("refresh_sharded_store needs a ShardedIndex")
    directory = Path(directory)
    manifest = _read_manifest(directory)
    stored = manifest["shards"]
    plans = [[shard.start, shard.core_end, shard.end] for shard in index.shards]
    if [entry["plan"] for entry in stored] != plans:
        raise StoreFormatError(
            f"{directory} stores a different shard plan; save the re-sharded "
            "index with save_sharded_store instead"
        )
    # The refresh only rewrites dirty shard files, so everything the clean
    # files depend on must match the stored parameters — otherwise untouched
    # shards would silently answer under a different configuration.
    expected = _sharded_manifest(index)
    for field in ("z", "kind", "alphabet", "max_pattern_len", "length"):
        if manifest.get(field) != expected[field]:
            raise StoreFormatError(
                f"{directory} was saved with {field}={manifest.get(field)!r} "
                f"but the index has {field}={expected[field]!r}; save it with "
                "save_sharded_store instead of refreshing"
            )
    rewritten = []
    obsolete = []
    generations = index.generations
    files = [entry["file"] for entry in stored]
    for number, entry in enumerate(stored):
        if int(entry["generation"]) != generations[number]:
            name = entry["file"]
            if generation_names:
                name = _shard_file_name(number, generations[number])
            save_index(directory / name, index.shard_indexes[number])
            failpoint("store.refresh.shard_written")
            rewritten.append(number)
            if name != entry["file"]:
                obsolete.append(str(directory / entry["file"]))
            files[number] = name
    _write_manifest(directory, _sharded_manifest(index, files=files))
    failpoint("store.refresh.manifest_written")
    return {
        "rewritten": rewritten,
        "skipped": len(stored) - len(rewritten),
        "obsolete": obsolete,
    }


# --------------------------------------------------------------------------- #
# write-ahead log + crash recovery                                             #
# --------------------------------------------------------------------------- #
def append_wal(directory, record: dict) -> int:
    """Append one framed record to a directory store's WAL and fsync it.

    The frame is ``<II`` (payload length, CRC32 of the payload) followed by
    the JSON payload.  The fsync is the commit point: a record present after
    a crash was durably committed; a torn tail fails its length or checksum
    check and is discarded by recovery.  Returns the WAL size *before* the
    append, so a caller that later fails can truncate its own record away.
    """
    path = Path(directory) / WAL_NAME
    payload = json.dumps(record, sort_keys=True).encode("utf-8")
    frame = _WAL_FRAME.pack(len(payload), _crc32(payload))
    with open(path, "ab") as handle:
        handle.seek(0, os.SEEK_END)
        start = handle.tell()
        handle.write(frame + payload)
        handle.flush()
        failpoint("store.wal.appended")
        os.fsync(handle.fileno())
    failpoint("store.wal.fsynced")
    return start


def read_wal(directory) -> tuple[list[dict], int, int]:
    """Parse a directory store's WAL tolerantly.

    Returns ``(records, valid_bytes, total_bytes)``: every record up to the
    first torn or corrupt frame, the byte offset that prefix ends at, and
    the file size.  ``valid_bytes < total_bytes`` means the tail is torn
    (an append interrupted mid-write) and should be truncated by recovery.
    A missing WAL reads as ``([], 0, 0)``.
    """
    path = Path(directory) / WAL_NAME
    try:
        blob = path.read_bytes()
    except OSError:
        return [], 0, 0
    records: list[dict] = []
    offset = 0
    total = len(blob)
    while offset + _WAL_FRAME.size <= total:
        length, crc = _WAL_FRAME.unpack_from(blob, offset)
        start = offset + _WAL_FRAME.size
        end = start + length
        if end > total:
            break
        payload = blob[start:end]
        if _crc32(payload) != crc:
            break
        try:
            records.append(json.loads(payload.decode("utf-8")))
        except (json.JSONDecodeError, UnicodeDecodeError):
            break
        offset = end
    return records, offset, total


def _truncate_wal(directory, size: int) -> None:
    path = Path(directory) / WAL_NAME
    with open(path, "r+b") as handle:
        handle.truncate(size)
        os.fsync(handle.fileno())


def _wal_updates_payload(updates) -> list:
    """JSON-clean form of an update batch for a WAL record.

    Distributions arrive either as ``{letter: probability}`` dicts (the
    service/CLI path through ``parse_updates``) or as dense rows; both are
    preserved losslessly — replay feeds them straight back to
    ``apply_updates``, whose updates are absolute and therefore idempotent.
    """
    payload = []
    for position, distribution in updates:
        if isinstance(distribution, dict):
            clean = {str(letter): float(value) for letter, value in distribution.items()}
        else:
            clean = [float(value) for value in np.asarray(distribution).ravel()]
        payload.append([int(position), clean])
    return payload


def _pending_wal_updates(records: list[dict]) -> list[dict]:
    """The committed update records not yet covered by an ``applied`` marker."""
    last_applied = -1
    for number, record in enumerate(records):
        if record.get("type") == "applied":
            last_applied = number
    return [
        record
        for record in records[last_applied + 1 :]
        if record.get("type") == "update"
    ]


def apply_updates_durably(directory, index, updates, *, generation_names: bool = False):
    """Apply an update batch to a directory-store index, crash-safely.

    The sequence is: apply in memory (which validates the payload), commit
    the batch to the WAL (fsync'd — the durability point), rewrite the dirty
    shard files + manifest, then append an ``applied`` marker.  A crash
    before the WAL commit leaves the store at the pre-update state (the
    batch was never acknowledged); a crash any time after it is rolled
    forward by :func:`recover_sharded_store` to the exact post-update index.

    Returns ``(report, outcome, wal_start)`` — the ``apply_updates`` report,
    the refresh outcome, and the WAL offset of the update record (callers
    that fail later can truncate back to it to roll back the commit).
    """
    directory = Path(directory)
    report = index.apply_updates(updates)
    wal_start = append_wal(
        directory,
        {
            "type": "update",
            "updates": _wal_updates_payload(updates),
            "generations": list(index.generations),
        },
    )
    outcome = refresh_sharded_store(
        directory, index, generation_names=generation_names
    )
    append_wal(directory, {"type": "applied", "generations": list(index.generations)})
    return report, outcome, wal_start


def _filename_generation(name: str) -> int:
    """The generation stamped in a shard file name (``shard-0002.g7.idx`` → 7)."""
    parts = name.split(".")
    if len(parts) == 3 and parts[1].startswith("g"):
        try:
            return int(parts[1][1:])
        except ValueError:
            return 0
    return 0


def _quarantine(path: Path) -> str:
    target = path.with_name(path.name + ".quarantine")
    os.replace(path, target)
    return target.name


def recover_sharded_store(directory, *, mmap: bool = False):
    """Bring a directory store back to a consistent state after a crash.

    Recovery (idempotent, safe on a clean store) performs, in order:

    1. sweep temp files left by interrupted atomic writes;
    2. truncate a torn WAL tail (bytes past the last intact frame);
    3. verify every shard the manifest references (full checksums); a
       corrupt shard file is quarantined (renamed ``*.quarantine``) and
       replaced by its highest-generation intact sibling, repairing the
       manifest to match;
    4. replay committed-but-unapplied WAL update records (absolute, hence
       idempotent) through the normal update path and rewrite the dirty
       shards;
    5. unlink shard files the repaired manifest no longer references.

    Returns ``(index, report)`` — the recovered, ready-to-serve index and a
    summary dict (``status`` is ``"clean"`` when nothing needed fixing).
    Unrecoverable damage (no intact candidate for a shard) raises
    :class:`~repro.errors.StoreCorruptionError`.
    """
    from ..indexes.sharded import Shard

    directory = Path(directory)
    report = {
        "status": "clean",
        "tmp_removed": [],
        "wal_truncated_bytes": 0,
        "quarantined": [],
        "repaired": [],
        "replayed": 0,
        "rewritten": [],
        "removed": [],
    }
    for tmp in sorted(directory.glob(".*.tmp.*")):
        tmp.unlink()
        report["tmp_removed"].append(tmp.name)
    records, valid_bytes, total_bytes = read_wal(directory)
    if valid_bytes < total_bytes:
        _truncate_wal(directory, valid_bytes)
        report["wal_truncated_bytes"] = total_bytes - valid_bytes
    manifest = _read_manifest(directory)
    shards = []
    indexes = []
    generations = []
    manifest_repaired = False
    for number, entry in enumerate(manifest["shards"]):
        start, core_end, end = (int(value) for value in entry["plan"])
        shards.append(Shard(start=start, core_end=core_end, end=end))
        path = directory / entry["file"]
        try:
            indexes.append(load_index(path, mmap=mmap, verify=True))
            generations.append(int(entry["generation"]))
            continue
        except StoreError as exc:
            if path.exists():
                report["quarantined"].append(_quarantine(path))
            failure = exc
        # Fall back to the highest-generation intact sibling of this shard.
        candidates = sorted(
            directory.glob(f"shard-{number:04d}*.idx"),
            key=lambda p: _filename_generation(p.name),
            reverse=True,
        )
        for candidate in candidates:
            try:
                indexes.append(load_index(candidate, mmap=mmap, verify=True))
            except StoreError:
                report["quarantined"].append(_quarantine(candidate))
                continue
            entry["file"] = candidate.name
            entry["generation"] = _filename_generation(candidate.name)
            generations.append(int(entry["generation"]))
            report["repaired"].append(candidate.name)
            manifest_repaired = True
            break
        else:
            raise StoreCorruptionError(
                directory,
                f"shard {number}",
                f"is unrecoverable: no intact file for this shard ({failure})",
            )
    if manifest_repaired:
        _write_manifest(directory, manifest)
    index = _assemble_sharded(manifest, shards, indexes, generations)
    if manifest_repaired:
        # A shard fell back to an older generation file: the applied markers
        # no longer vouch for it, so replay the *whole* WAL — updates are
        # absolute (idempotent), so over-replay converges to the committed
        # state regardless of which generation each shard resumed from.
        pending = [record for record in records if record.get("type") == "update"]
    else:
        pending = _pending_wal_updates(records)
    for record in pending:
        updates = [
            (
                int(position),
                distribution
                if isinstance(distribution, dict)
                else np.asarray(distribution, dtype=np.float64),
            )
            for position, distribution in record.get("updates", [])
        ]
        if updates:
            index.apply_updates(updates)
            report["replayed"] += 1
    if report["replayed"] or manifest_repaired:
        outcome = refresh_sharded_store(directory, index)
        report["rewritten"] = outcome["rewritten"]
        append_wal(directory, {"type": "applied", "generations": list(index.generations)})
    # Drop shard files the (possibly repaired) manifest no longer references:
    # generation files orphaned by a crash between replace and unlink.
    referenced = {entry["file"] for entry in _read_manifest(directory)["shards"]}
    for path in sorted(directory.glob("shard-*.idx")):
        if path.name not in referenced:
            path.unlink()
            report["removed"].append(path.name)
    if any(
        report[key]
        for key in (
            "tmp_removed",
            "wal_truncated_bytes",
            "quarantined",
            "repaired",
            "replayed",
            "removed",
        )
    ):
        report["status"] = "recovered"
    return index, report


def verify_store(path) -> dict:
    """Audit a store (monolithic file or sharded directory) without changes.

    Returns ``{"schema": "repro.verify.v1", "path", "ok", "problems"}`` with
    one problem entry per damaged or suspicious artefact: corrupt container
    headers or array blobs (full checksum pass), a torn WAL tail, committed
    WAL updates not yet applied (run ``recover``), and leftover temp files.
    Version-1 stores (no checksums) pass on structural checks alone.
    """
    path = Path(path)
    report: dict = {
        "schema": "repro.verify.v1",
        "path": str(path),
        "ok": True,
        "problems": [],
    }

    def problem(file, section: str, error) -> None:
        report["ok"] = False
        report["problems"].append(
            {"file": str(file), "section": section, "error": str(error)}
        )

    def check_container(file) -> None:
        try:
            container = _Container(file, mmap=False)
        except StoreError as exc:
            problem(file, "container", exc)
            return
        for issue in container.verify_arrays():
            problem(file, issue.section, issue)

    if not path.is_dir():
        check_container(path)
        return report
    try:
        manifest = _read_manifest(path)
    except StoreError as exc:
        problem(path / _MANIFEST_NAME, "manifest", exc)
        return report
    report["shards"] = len(manifest["shards"])
    for entry in manifest["shards"]:
        check_container(path / entry["file"])
    records, valid_bytes, total_bytes = read_wal(path)
    if valid_bytes < total_bytes:
        problem(
            path / WAL_NAME,
            "wal",
            f"torn tail: {total_bytes - valid_bytes} trailing byte(s) past "
            "the last intact record (run recover)",
        )
    pending = _pending_wal_updates(records)
    if pending:
        problem(
            path / WAL_NAME,
            "wal",
            f"{len(pending)} committed update record(s) not applied to the "
            "shard files (run recover)",
        )
    for tmp in sorted(path.glob(".*.tmp.*")):
        problem(tmp, "tmp", "leftover temp file from an interrupted write (run recover)")
    return report


def compact_store(directory) -> dict:
    """Fold a directory store back to its canonical, generation-free layout.

    Long-lived stores accumulate generation-stamped shard files
    (``shard-0002.g7.idx``) and WAL records.  Compaction rewrites every
    *moved* shard under its canonical name (``shard-0002.idx``) with its
    generation stamp reset to 0, removes superseded shard files, and
    deletes the WAL; shards already canonical at generation 0 are left
    byte-untouched.  Query results are byte-identical before and after —
    only the file layout changes.  Returns
    ``{"shards": count, "removed": [...]}``.

    Compaction refuses to run on a store that fails :func:`verify_store`
    (e.g. one left dirty by a crashed refresh): unlinking generation files
    while the manifest or WAL still disagrees with the shard files could
    destroy the only intact copy.  Run ``recover`` first.
    """
    directory = Path(directory)
    audit = verify_store(directory)
    if not audit["ok"]:
        first = audit["problems"][0]
        raise StoreCorruptionError(
            directory,
            "store",
            "failed verification, refusing to compact (run `verify-store` "
            f"for the full report, then `recover`): {first['section']} — "
            f"{first['error']}",
        )
    stored = _read_manifest(directory)["shards"]
    # The verification pass above already checksummed every shard file.
    index = load_sharded_store(directory, mmap=False, verify=False)
    canonical = [_shard_file_name(number) for number in range(len(index.shards))]
    for number, shard_index in enumerate(index.shard_indexes):
        entry = stored[number]
        if entry["file"] == canonical[number] and int(entry["generation"]) == 0:
            continue  # already canonical: keep the file byte-identical
        save_index(directory / canonical[number], shard_index)
        failpoint("store.compact.shard_written")
    index._generations = [0] * len(index.shards)
    _write_manifest(directory, _sharded_manifest(index, files=canonical))
    failpoint("store.compact.manifest_written")
    keep = set(canonical) | {_MANIFEST_NAME}
    removed = []
    for path in sorted(directory.glob("shard-*.idx")):
        if path.name not in keep:
            path.unlink()
            failpoint("store.compact.unlink")
            removed.append(path.name)
    wal_path = directory / WAL_NAME
    if wal_path.exists():
        wal_path.unlink()
    return {"shards": len(canonical), "removed": removed}


def _assemble_sharded(manifest: dict, shards, indexes, generations):
    """Build the parent :class:`ShardedIndex` from loaded shard indexes."""
    from ..indexes.sharded import ShardedIndex
    from ..indexes.space import IndexStats

    alphabet = Alphabet(manifest["alphabet"])
    cores = [
        index.source.matrix[: shard.core_end - shard.start]
        for shard, index in zip(shards, indexes)
    ]
    matrix = np.vstack(cores) if cores else np.empty((0, alphabet.size))
    source = WeightedString(matrix, alphabet)
    stats = IndexStats(
        name=f"SHARDED[{manifest['kind']}]",
        index_size_bytes=sum(index.stats.index_size_bytes for index in indexes),
        counters={
            "shards": len(shards),
            "kind": manifest["kind"],
            "overlap": int(manifest["max_pattern_len"]) - 1,
            "loaded_from_store": True,
            "generations": list(generations),
        },
    )
    return ShardedIndex(
        source,
        float(manifest["z"]),
        shards,
        indexes,
        manifest["kind"],
        int(manifest["max_pattern_len"]),
        stats,
        generations=generations,
    )


def load_sharded_store(directory, *, mmap: bool = True, verify: bool | None = None):
    """Reload a sharded index from a directory store.

    Shard files load exactly like single-index stores (memory-mapped by
    default); the parent probability matrix is reassembled from the shards'
    core slices, so the directory holds no duplicate full-string copy.
    ``verify`` follows :func:`load_index`: checksums verified on RAM loads,
    skipped on mmap loads, unless forced either way.
    """
    from ..indexes.sharded import Shard

    directory = Path(directory)
    manifest = _read_manifest(directory)
    shards = []
    indexes = []
    generations = []
    for entry in manifest["shards"]:
        start, core_end, end = (int(value) for value in entry["plan"])
        shards.append(Shard(start=start, core_end=core_end, end=end))
        generations.append(int(entry["generation"]))
        indexes.append(load_index(directory / entry["file"], mmap=mmap, verify=verify))
    return _assemble_sharded(manifest, shards, indexes, generations)


def reload_sharded_store(directory, previous, *, mmap: bool = True):
    """Re-read a directory store, re-mapping only shards whose generation moved.

    ``previous`` is the :class:`ShardedIndex` currently serving (typically the
    result of an earlier :func:`load_sharded_store`).  Shards whose plan *and*
    generation stamp match the manifest keep their already-loaded shard index
    object (and its live memory maps); only moved shards are re-opened from
    their (generation-stamped) files.  Returns ``(index, reloaded_numbers)``.

    The parent probability matrix is reassembled from the shard cores, so the
    swap is a plain object replacement — readers holding the previous index
    keep a fully consistent view until they drop it.
    """
    from ..indexes.sharded import Shard

    directory = Path(directory)
    manifest = _read_manifest(directory)
    previous_plans = [
        [shard.start, shard.core_end, shard.end] for shard in previous.shards
    ]
    previous_generations = previous.generations
    shards = []
    indexes = []
    generations = []
    reloaded = []
    for number, entry in enumerate(manifest["shards"]):
        start, core_end, end = (int(value) for value in entry["plan"])
        shards.append(Shard(start=start, core_end=core_end, end=end))
        generation = int(entry["generation"])
        generations.append(generation)
        if (
            number < len(previous_plans)
            and previous_plans[number] == [start, core_end, end]
            and previous_generations[number] == generation
        ):
            indexes.append(previous.shard_indexes[number])
        else:
            indexes.append(load_index(directory / entry["file"], mmap=mmap))
            reloaded.append(number)
    return _assemble_sharded(manifest, shards, indexes, generations), reloaded
