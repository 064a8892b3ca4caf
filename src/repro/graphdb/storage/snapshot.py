"""Versioned binary snapshots of a :class:`PropertyGraph`.

File layout (all integers little-endian)::

    +--------------------------------------------------------------+
    | magic "RPGSNAP1" (8) | version u16 | flags u16 | nsect u32   |
    | table_crc u32                                                |
    | section table: nsect * (id u8, offset u64, length u64,       |
    |                         crc32 u32)                           |
    | section payloads ...                                         |
    +--------------------------------------------------------------+

``table_crc`` covers the section table, and every section entry carries
the CRC-32 of its payload, so a torn or bit-flipped snapshot is always
detected before any of it is applied.  Sections:

========  =============================================================
id        payload
========  =============================================================
1 META    graph name, generation, next_vid / next_eid, counts
2 STRING  interned label / property-name table (uvarint count + strs)
3 VERTEX  columnar: vid array (i64), label-set table + per-vertex
          label-set ids (i32), then one column per property name
          (typed: int64 / f64 / utf-8 blob / tagged mixed)
4 EDGE    columnar: eid / src / dst arrays (i64) + label-id array
          (i32), then a sparse list of edges with properties
5 INDEX   (label id, property id) pairs of existing property indexes
6         retired (planner statistics); no longer written, and skipped
          on read like any id the decoder does not know
========  =============================================================

The layout is deliberately *columnar*, and since the columnar-core
refactor it mirrors the in-memory representation: the encoder reads
the graph's label-set tables and typed property columns directly, and
the decoder maps each section straight back into them - splitting
every property column by owning label-set table and adopting
dense-prefix int/float columns wholesale as arrays - with no
per-vertex object or property-dict rehydration anywhere.  That bulk
``array.frombytes`` / bulk-adopt path is what makes a snapshot load
several times faster than regenerating the same graph (the point of
the dataset memoization cache).  Property columns are typed - a column
whose values are all ints/floats/strings becomes a packed vector; any
other mix falls back to the tagged value codec, the same encoding the
WAL uses.

Vertices and edges are written in iteration (= insertion) order and
ids are stored explicitly, so a reloaded graph reproduces the original
iteration order, id sequences and index bucket order exactly - deleted
ids stay holes, ``_next_vid``/``_next_eid`` keep monotonic.  (Vertex
and edge ids are never reused, so insertion order is ascending id
order; the loader relies on this when regrouping label buckets.)  The
adjacency dicts and the endpoint-pair index are left unmaterialized
(``None``) - the graph rebuilds each in one batch pass on first need.
Planner statistics are not stored either: the reopened graph builds
them from its columns on its first query.

Writes go to a temp file in the target directory, are fsynced, then
atomically renamed over the destination - a crash mid-write never
leaves a half-visible snapshot.
"""

from __future__ import annotations

import gc
import os
import struct
import sys
import zlib
from array import array
from pathlib import Path

from repro.exceptions import GraphError, StorageError
from repro.graphdb import faults, observe
from repro.graphdb.columnar import KIND_FLOAT, KIND_INT, KIND_OBJ, PropertyColumn
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.storage.codec import (
    CodecError,
    read_props,
    read_str,
    read_uvarint,
    read_value,
    write_props,
    write_str,
    write_uvarint,
    write_value,
)

MAGIC = b"RPGSNAP1"
FORMAT_VERSION = 1

SECTION_META = 1
SECTION_STRINGS = 2
SECTION_VERTICES = 3
SECTION_EDGES = 4
SECTION_INDEXES = 5

#: Property-column types (mirroring the value-codec tags).
COL_MIXED = 0
COL_INT = 3
COL_FLOAT = 4
COL_STR = 5
COL_STR_LIST = 6

_HEADER = struct.Struct("<8sHHII")  # magic, version, flags, nsect, table_crc
_TABLE_ENTRY = struct.Struct("<BQQI")  # id, offset, length, crc

#: Failpoints threaded through the snapshot write/read paths.
FP_WRITE_OPEN = faults.REGISTRY.register("snapshot.write.open")
FP_WRITE_TABLE = faults.REGISTRY.register("snapshot.write.table")
FP_WRITE_SECTION = faults.REGISTRY.register("snapshot.write.section")
FP_WRITE_FSYNC = faults.REGISTRY.register("snapshot.write.fsync")
FP_RENAME = faults.REGISTRY.register("snapshot.rename")
FP_DIR_FSYNC = faults.REGISTRY.register("snapshot.dir_fsync")
FP_READ = faults.REGISTRY.register("snapshot.read")

_SNAP_WRITES = observe.REGISTRY.counter(
    "repro_snapshot_writes_total", "Snapshots written (tmp+rename)."
)
_SNAP_WRITTEN_BYTES = observe.REGISTRY.counter(
    "repro_snapshot_written_bytes_total", "Bytes written into snapshots."
)

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class SnapshotError(StorageError):
    """Raised when a snapshot file is missing, torn, or corrupt."""


class SnapshotIOError(SnapshotError):
    """The snapshot could not be *read* (transient I/O, permissions).

    Distinct from content corruption: recovery falls back to an older
    generation on corruption, but must abort on I/O failures - falling
    back there would silently fork history and later destroy the
    newest generation's data.
    """


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def write_snapshot(
    graph: PropertyGraph,
    path: str | Path,
    generation: int = 0,
) -> int:
    """Serialize ``graph`` to ``path`` atomically; returns bytes written."""
    path = Path(path)
    sections = _encode_sections(graph, generation)
    table = bytearray()
    payload = bytearray()
    offset = _HEADER.size + _TABLE_ENTRY.size * len(sections)
    for section_id, body in sections:
        table += _TABLE_ENTRY.pack(
            section_id, offset, len(body), zlib.crc32(body)
        )
        payload += body
        offset += len(body)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, 0, len(sections), zlib.crc32(bytes(table))
    )

    tmp = path.with_name(path.name + ".tmp")
    written = len(header) + len(table)
    try:
        faults.fire(FP_WRITE_OPEN)
        with open(tmp, "wb") as fh:
            faults.write(FP_WRITE_TABLE, fh, header + bytes(table))
            for _section_id, body in sections:
                faults.write(FP_WRITE_SECTION, fh, body)
                written += len(body)
            fh.flush()
            faults.retrying(
                lambda: (
                    faults.fire(FP_WRITE_FSYNC),
                    os.fsync(fh.fileno()),
                ),
                "fsync snapshot",
            )
        faults.fire(FP_RENAME)
        os.replace(tmp, path)
    except Exception:
        # Clean the partial tmp file on an *error* return - but not on
        # SimulatedCrash (a BaseException): a killed process leaves its
        # debris behind, and the store sweeps orphans on the next open.
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - nothing more to do
            pass
        raise
    _fsync_dir(path.parent)
    _SNAP_WRITES.inc()
    _SNAP_WRITTEN_BYTES.inc(written)
    return written


def _fsync_dir(directory: Path) -> None:
    """Make a rename durable by fsyncing the containing directory."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        faults.retrying(
            lambda: (faults.fire(FP_DIR_FSYNC), os.fsync(fd)),
            "fsync snapshot directory",
        )
    finally:
        os.close(fd)


def _to_le_bytes(arr: array) -> bytes:
    if sys.byteorder == "big":  # pragma: no cover - x86/arm are little
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _encode_sections(
    graph: PropertyGraph, generation: int
) -> list[tuple[int, bytes]]:
    strings: dict[str, int] = {}

    def intern(value: str) -> int:
        sid = strings.get(value)
        if sid is None:
            sid = strings[value] = len(strings)
        return sid

    # VERTEX -----------------------------------------------------------
    # The graph already holds vertices grouped by label set, so the
    # section is assembled straight from the columnar core: the vid /
    # label-set-id arrays from the vid->table map, the property
    # columns by concatenating each table's (vid, value) pairs per
    # property name.  Snapshot label-set ids are assigned in
    # first-vertex order (as the object-walking encoder did).
    sym_name = graph._symbols.name
    vids = array("q")
    lsids = array("i")
    ls_of_tid: dict[int, int] = {}
    ls_order: list[int] = []
    for vid, tid in enumerate(graph._v_tid):
        if tid < 0:
            continue
        vids.append(vid)
        lsid = ls_of_tid.get(tid)
        if lsid is None:
            lsid = ls_of_tid[tid] = len(ls_order)
            ls_order.append(tid)
        lsids.append(lsid)

    columns: dict[str, tuple[list[int], list[object]]] = {}
    for table in graph.iter_tables():
        if table.live == 0:
            continue
        table_vids = table.vids
        for key_sid, col in table.columns.items():
            if col.count == 0:
                continue
            name = sym_name(key_sid)
            entry = columns.get(name)
            if entry is None:
                entry = columns[name] = ([], [])
            col_vids, values = entry
            for vid, present, value in zip(table_vids, col.mask, col.data):
                if present and vid >= 0:
                    col_vids.append(vid)
                    values.append(value)

    vbuf = bytearray()
    write_uvarint(vbuf, len(vids))
    vbuf += _to_le_bytes(vids)
    write_uvarint(vbuf, len(ls_order))
    for tid in ls_order:
        ordered = sorted(graph._labelset_strs[tid])
        write_uvarint(vbuf, len(ordered))
        for label in ordered:
            write_uvarint(vbuf, intern(label))
    vbuf += _to_le_bytes(lsids)
    write_uvarint(vbuf, len(columns))
    for name, (col_vids, values) in columns.items():
        write_uvarint(vbuf, intern(name))
        write_uvarint(vbuf, len(col_vids))
        ctype = _column_type(values)
        vbuf.append(ctype)
        vbuf += _to_le_bytes(array("q", col_vids))
        _encode_column(vbuf, ctype, values)

    # EDGE (columnar) --------------------------------------------------
    eids = array("q")
    srcs = array("q")
    dsts = array("q")
    label_ids = array("i")
    for eid, (sid, src, dst) in enumerate(
        zip(graph._e_label, graph._e_src, graph._e_dst)
    ):
        if sid < 0:
            continue
        eids.append(eid)
        srcs.append(src)
        dsts.append(dst)
        label_ids.append(intern(sym_name(sid)))
    with_props = sorted(
        eid for eid, props in graph._e_props.items()
        if props and graph._e_label[eid] >= 0
    )
    ebuf = bytearray()
    write_uvarint(ebuf, len(eids))
    ebuf += _to_le_bytes(eids)
    ebuf += _to_le_bytes(srcs)
    ebuf += _to_le_bytes(dsts)
    ebuf += _to_le_bytes(label_ids)
    write_uvarint(ebuf, len(with_props))
    for eid in with_props:
        write_uvarint(ebuf, eid)
        write_props(ebuf, graph._e_props[eid])

    # INDEX ------------------------------------------------------------
    index_keys = sorted(graph._property_indexes)
    xbuf = bytearray()
    write_uvarint(xbuf, len(index_keys))
    for label, prop in index_keys:
        write_uvarint(xbuf, intern(label))
        write_uvarint(xbuf, intern(prop))

    # STRING -----------------------------------------------------------
    sbuf = bytearray()
    write_uvarint(sbuf, len(strings))
    for value in strings:  # insertion order == id order
        write_str(sbuf, value)

    # META -------------------------------------------------------------
    mbuf = bytearray()
    write_str(mbuf, graph.name)
    write_uvarint(mbuf, generation)
    write_uvarint(mbuf, graph._next_vid)
    write_uvarint(mbuf, graph._next_eid)
    write_uvarint(mbuf, len(vids))
    write_uvarint(mbuf, len(eids))

    return [
        (SECTION_META, bytes(mbuf)),
        (SECTION_STRINGS, bytes(sbuf)),
        (SECTION_VERTICES, bytes(vbuf)),
        (SECTION_EDGES, bytes(ebuf)),
        (SECTION_INDEXES, bytes(xbuf)),
    ]


def _column_type(values: list[object]) -> int:
    """The tightest packed representation for a property column."""
    kinds = {type(v) for v in values}
    if kinds == {int} and all(_I64_MIN <= v <= _I64_MAX for v in values):
        return COL_INT
    if kinds == {float}:
        return COL_FLOAT
    if kinds == {str}:
        return COL_STR
    if kinds == {list} and all(
        type(item) is str for v in values for item in v
    ):
        # Replicated list properties (COLLECT semantics) are almost
        # always lists of strings; pack them flat instead of paying
        # the tagged codec per element.
        return COL_STR_LIST
    return COL_MIXED


def _encode_column(
    buf: bytearray, ctype: int, values: list[object]
) -> None:
    if ctype == COL_INT:
        buf += _to_le_bytes(array("q", values))
    elif ctype == COL_FLOAT:
        buf += _to_le_bytes(array("d", values))
    elif ctype == COL_STR:
        encoded = [v.encode("utf-8") for v in values]
        buf += _to_le_bytes(array("i", [len(e) for e in encoded]))
        blob = b"".join(encoded)
        write_uvarint(buf, len(blob))
        buf += blob
    elif ctype == COL_STR_LIST:
        buf += _to_le_bytes(array("i", [len(v) for v in values]))
        encoded = [
            item.encode("utf-8") for v in values for item in v
        ]
        write_uvarint(buf, len(encoded))
        buf += _to_le_bytes(array("i", [len(e) for e in encoded]))
        blob = b"".join(encoded)
        write_uvarint(buf, len(blob))
        buf += blob
    else:
        for value in values:
            write_value(buf, value)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_snapshot(path: str | Path) -> PropertyGraph:
    graph, _generation = read_snapshot_with_generation(path)
    return graph


def read_snapshot_with_generation(
    path: str | Path,
) -> tuple[PropertyGraph, int]:
    path = Path(path)
    try:
        faults.fire(FP_READ)
        data = path.read_bytes()
    except FileNotFoundError as exc:
        raise SnapshotError(f"no snapshot at {path}: {exc}") from exc
    except OSError as exc:
        raise SnapshotIOError(
            f"cannot read snapshot {path}: {exc}"
        ) from exc
    sections = _validate_layout(data, path)
    # Bulk decode allocates tens of thousands of long-lived containers;
    # pausing the cyclic collector avoids pointless mid-load GC passes
    # (none of what we build is garbage).
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        return _decode_graph(data, sections)
    except CodecError as exc:
        raise SnapshotError(f"corrupt snapshot {path}: {exc}") from exc
    finally:
        if was_enabled:
            gc.enable()


def _validate_layout(
    data: bytes, path: Path
) -> dict[int, tuple[int, int]]:
    """Checksum-validate the file; return id -> (offset, length)."""
    if len(data) < _HEADER.size:
        raise SnapshotError(f"snapshot {path} too short for header")
    magic, version, _flags, nsect, table_crc = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise SnapshotError(f"{path} is not a snapshot (bad magic)")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot {path} has unsupported format version {version}"
        )
    table_end = _HEADER.size + nsect * _TABLE_ENTRY.size
    if len(data) < table_end:
        raise SnapshotError(f"snapshot {path} too short for section table")
    table = data[_HEADER.size:table_end]
    if zlib.crc32(table) != table_crc:
        raise SnapshotError(f"snapshot {path}: section table checksum")
    sections: dict[int, tuple[int, int]] = {}
    for i in range(nsect):
        section_id, offset, length, crc = _TABLE_ENTRY.unpack_from(
            table, i * _TABLE_ENTRY.size
        )
        if offset + length > len(data):
            raise SnapshotError(
                f"snapshot {path}: section {section_id} out of bounds"
            )
        if zlib.crc32(data[offset:offset + length]) != crc:
            raise SnapshotError(
                f"snapshot {path}: section {section_id} checksum"
            )
        sections[section_id] = (offset, length)
    for required in (
        SECTION_META, SECTION_STRINGS, SECTION_VERTICES, SECTION_EDGES,
    ):
        if required not in sections:
            raise SnapshotError(
                f"snapshot {path}: missing section {required}"
            )
    return sections


def _read_array(
    data: bytes, pos: int, typecode: str, count: int
) -> tuple[list, int]:
    arr = array(typecode)
    nbytes = count * arr.itemsize
    end = pos + nbytes
    if end > len(data):
        raise CodecError("truncated array")
    arr.frombytes(data[pos:end])
    if sys.byteorder == "big":  # pragma: no cover
        arr.byteswap()
    return arr.tolist(), end


def _read_str_blob(
    data: bytes, pos: int, lengths: list[int]
) -> tuple[list[str], int]:
    """Decode one utf-8 blob into ``len(lengths)`` strings."""
    blob_len, pos = read_uvarint(data, pos)
    end = pos + blob_len
    if end > len(data):
        raise CodecError("truncated string column")
    if sum(lengths) != blob_len:
        raise CodecError("string column length mismatch")
    raw = data[pos:end]
    decoded = raw.decode("utf-8")
    values = []
    offset = 0
    if len(decoded) == blob_len:
        # Pure ASCII: byte offsets == character offsets, so slice the
        # single decoded string (fast path).
        for length in lengths:
            cut = offset + length
            values.append(decoded[offset:cut])
            offset = cut
    else:
        for length in lengths:
            cut = offset + length
            values.append(raw[offset:cut].decode("utf-8"))
            offset = cut
    return values, end


def _decode_graph(
    data: bytes, sections: dict[int, tuple[int, int]]
) -> tuple[PropertyGraph, int]:
    # META
    pos = sections[SECTION_META][0]
    name, pos = read_str(data, pos)
    generation, pos = read_uvarint(data, pos)
    next_vid, pos = read_uvarint(data, pos)
    next_eid, pos = read_uvarint(data, pos)
    num_vertices, pos = read_uvarint(data, pos)
    num_edges, pos = read_uvarint(data, pos)

    # STRING
    pos = sections[SECTION_STRINGS][0]
    count, pos = read_uvarint(data, pos)
    strings: list[str] = []
    for _ in range(count):
        value, pos = read_str(data, pos)
        strings.append(value)

    graph = PropertyGraph(name)
    symbols = graph._symbols
    # snapshot string id -> graph symbol id, interned once up front.
    sym_ids = [symbols.intern(s) for s in strings]

    # VERTEX (columnar): the section's vid / label-set-id / property
    # columns land directly in the graph's label-set tables - no
    # per-vertex object or dict is ever rehydrated.
    pos = sections[SECTION_VERTICES][0]
    count, pos = read_uvarint(data, pos)
    if count != num_vertices:
        raise CodecError("vertex count mismatch with META")
    vid_list, pos = _read_array(data, pos, "q", count)
    n_labelsets, pos = read_uvarint(data, pos)
    tables = []
    labelset_names: list[tuple[str, ...]] = []
    try:
        for _ in range(n_labelsets):
            nlabels, pos = read_uvarint(data, pos)
            names = []
            label_sids = []
            for _ in range(nlabels):
                sid, pos = read_uvarint(data, pos)
                names.append(strings[sid])
                label_sids.append(sym_ids[sid])
            tables.append(graph._table_for(frozenset(label_sids)))
            labelset_names.append(tuple(names))
        lsid_list, pos = _read_array(data, pos, "i", count)
        # Size the id-space to next_vid, not max live id + 1: removed
        # tail ids must stay tombstoned holes so add_vertex's
        # "vid == len(_v_tid)" append invariant survives the reload.
        num_vid_slots = max(next_vid, max(vid_list, default=-1) + 1)
        v_tid = graph._v_tid
        v_row = graph._v_row
        v_tid.extend([-1] * num_vid_slots)
        v_row.extend([0] * num_vid_slots)
        for vid, lsid in zip(vid_list, lsid_list):
            table = tables[lsid]
            v_tid[vid] = table.labelset_id
            v_row[vid] = len(table.vids)
            table.vids.append(vid)
            table.live += 1
    except IndexError:
        raise CodecError("vertex references unknown label set") from None

    # Label buckets: vertices were decoded in ascending-vid order, so
    # each table's vid list is ascending.
    graph._index_labels(
        (table, table.vids) for table in tables if table.vids
    )

    # Property columns: split each section column by owning table,
    # then bulk-adopt (dense prefix) or scatter into typed columns.
    ncols, pos = read_uvarint(data, pos)
    try:
        for _ in range(ncols):
            name_sid, pos = read_uvarint(data, pos)
            key_sid = sym_ids[name_sid]
            nentries, pos = read_uvarint(data, pos)
            if pos >= len(data):
                raise CodecError("truncated column header")
            ctype = data[pos]
            pos += 1
            col_vids, pos = _read_array(data, pos, "q", nentries)
            if ctype == COL_INT:
                values, pos = _read_array(data, pos, "q", nentries)
                kind = KIND_INT
            elif ctype == COL_FLOAT:
                values, pos = _read_array(data, pos, "d", nentries)
                kind = KIND_FLOAT
            elif ctype == COL_STR:
                lengths, pos = _read_array(data, pos, "i", nentries)
                values, pos = _read_str_blob(data, pos, lengths)
                kind = KIND_OBJ
            elif ctype == COL_STR_LIST:
                counts, pos = _read_array(data, pos, "i", nentries)
                nitems, pos = read_uvarint(data, pos)
                if sum(counts) != nitems:
                    raise CodecError("string-list column count mismatch")
                lengths, pos = _read_array(data, pos, "i", nitems)
                flat, pos = _read_str_blob(data, pos, lengths)
                values = []
                offset = 0
                for count_items in counts:
                    cut = offset + count_items
                    values.append(flat[offset:cut])
                    offset = cut
                kind = KIND_OBJ
            elif ctype == COL_MIXED:
                values = []
                for _ in range(nentries):
                    value, pos = read_value(data, pos)
                    values.append(value)
                kind = KIND_OBJ
            else:
                raise CodecError(f"unknown column type {ctype}")
            per_table: dict[int, tuple[list, list]] = {}
            for vid, value in zip(col_vids, values):
                tid = v_tid[vid]
                if tid < 0:
                    raise CodecError(
                        "property column references unknown id"
                    )
                entry = per_table.get(tid)
                if entry is None:
                    entry = per_table[tid] = ([], [])
                entry[0].append(v_row[vid])
                entry[1].append(value)
            for tid, (rows, row_values) in per_table.items():
                graph._tables[tid].columns[key_sid] = (
                    PropertyColumn.from_rows(rows, row_values, kind)
                )
    except (KeyError, IndexError):
        raise CodecError("property column references unknown id") from None

    # EDGE (columnar; adjacency and the endpoint-pair index stay
    # unmaterialized - the graph builds each whole on first need, see
    # PropertyGraph._build_adjacency / _build_pairs)
    pos = sections[SECTION_EDGES][0]
    count, pos = read_uvarint(data, pos)
    if count != num_edges:
        raise CodecError("edge count mismatch with META")
    eid_list, pos = _read_array(data, pos, "q", count)
    src_list, pos = _read_array(data, pos, "q", count)
    dst_list, pos = _read_array(data, pos, "q", count)
    lid_list, pos = _read_array(data, pos, "i", count)
    try:
        if count:
            graph._require_vertices(src_list, dst_list)
        # Same id-space rule as vertices: removed tail eids stay holes.
        num_eid_slots = max(next_eid, max(eid_list, default=-1) + 1)
        e_src = graph._e_src
        e_dst = graph._e_dst
        e_label = graph._e_label
        e_src.extend([0] * num_eid_slots)
        e_dst.extend([0] * num_eid_slots)
        e_label.extend([-1] * num_eid_slots)
        for eid, src, dst, lid in zip(
            eid_list, src_list, dst_list, lid_list
        ):
            e_src[eid] = src
            e_dst[eid] = dst
            e_label[eid] = sym_ids[lid]
        graph._num_edges = count
    except (GraphError, IndexError) as exc:
        raise CodecError(f"edge references unknown id: {exc}") from None
    graph._pairs = None
    nprops_edges, pos = read_uvarint(data, pos)
    for _ in range(nprops_edges):
        eid, pos = read_uvarint(data, pos)
        props, pos = read_props(data, pos)
        if not (0 <= eid < len(e_label)) or e_label[eid] < 0:
            raise CodecError(f"properties for unknown edge {eid}")
        graph._e_props[eid] = props

    # INDEX (optional section; rebuilt from the live stores)
    if SECTION_INDEXES in sections:
        pos = sections[SECTION_INDEXES][0]
        count, pos = read_uvarint(data, pos)
        for _ in range(count):
            label_sid, pos = read_uvarint(data, pos)
            prop_sid, pos = read_uvarint(data, pos)
            try:
                graph.create_property_index(
                    strings[label_sid], strings[prop_sid]
                )
            except IndexError:
                raise CodecError("index references unknown string") from None

    graph._next_vid = num_vid_slots
    graph._next_eid = num_eid_slots
    return graph, generation


# ----------------------------------------------------------------------
# Canonical state (testing / verification aid)
# ----------------------------------------------------------------------
def graph_state(graph: PropertyGraph) -> dict:
    """A canonical, comparable description of a graph's full state.

    Used by the recovery tests to assert that a recovered graph is
    *exactly* the graph that was persisted - ids, labels, properties,
    index keys and id counters included.  The endpoint-pair index is
    intentionally absent: it is derived state that may or may not be
    materialized.
    """
    return {
        "name": graph.name,
        "next_vid": graph._next_vid,
        "next_eid": graph._next_eid,
        "vertices": {
            v.vid: (
                tuple(sorted(v.labels)),
                repr(sorted(v.properties.items(), key=repr)),
            )
            for v in graph.iter_vertices()
        },
        "edges": {
            e.eid: (e.src, e.dst, e.label,
                    repr(sorted(e.properties.items(), key=repr)))
            for e in graph.iter_edges()
        },
        "indexes": sorted(graph._property_indexes),
    }
