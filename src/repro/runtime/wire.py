"""Flat-buffer wire codecs for the sharded runtime.

The sharded runtime's messages — transaction registration, label
deltas, session levels — are plain tuples of graph wires, tid
lists, and bitset buffers.  Pickling them is correct but pays per-object
tag-and-memo overhead on exactly the values that dominate a mining run:
thousands of tiny graph wires and sorted tid lists.  This module encodes
those messages as contiguous byte buffers
with a small versioned header: varint-packed integers, delta-coded tid
lists, sequence-compressed vertex ids, and the packed bitset buffers of
:mod:`repro.runtime.bitsets` carried verbatim (they are already flat).

Design rules:

* **Lossless by construction.**  ``decode_message(encode_message(m))``
  returns a tuple *equal* to ``m`` — same nesting, same list/tuple
  distinction, same ints — so the shard worker sees exactly the logical
  message the parent built and golden digests cannot drift.
* **Fallback at message granularity.**  ``encode_message`` returns
  ``None`` for any op or value it does not cover; the caller pickles
  that one message instead.  Control ops and new ops degrade gracefully.
* **No repro imports.**  The codec works on the wire *tuples*, never on
  live objects, so it can be imported from the worker process entry
  point without dragging the engine in.

The physical envelope is ``(BLOB_OP, op, blob)``: the inner op rides
outside the blob so pool bookkeeping and fault/trace filters can see it
without decoding.  ``ProcessBackend`` may further rewrite the envelope
to ``(SHM_OP, op, segment_name, size)`` and ship the blob through a
``multiprocessing.shared_memory`` segment — see :mod:`repro.runtime.pool`
for the segment lifecycle.
"""

from __future__ import annotations

import struct

__all__ = [
    "BLOB_OP",
    "SHM_OP",
    "resolve_wire",
    "encode_message",
    "decode_message",
    "encode_graph_wire",
    "decode_graph_wire",
    "WireFormatError",
]

#: Logical blob envelope op: ``(BLOB_OP, inner_op, blob_bytes)``.
BLOB_OP = "__blob__"

#: Shared-memory envelope op: ``(SHM_OP, inner_op, segment_name, size)``.
SHM_OP = "__shm__"

_MAGIC = b"RW"
_VERSION = 1


class WireFormatError(ValueError):
    """A buffer failed structural validation during decode."""


def resolve_wire(wire: str = "buffer") -> str:
    """Validate a ``wire`` setting: ``"buffer"`` is the only wire format.

    Callers that name the format explicitly keep working; anything else
    raises ``ValueError`` naming the parameter.
    """
    if wire != "buffer":
        raise ValueError(f"wire must be 'buffer', got {wire!r}")
    return wire


# ---------------------------------------------------------------------------
# varint primitives
# ---------------------------------------------------------------------------


def _write_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise WireFormatError(f"uvarint cannot encode negative value {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(buffer: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    length = len(buffer)
    while True:
        if pos >= length:
            raise WireFormatError("truncated varint")
        byte = buffer[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _zigzag(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzigzag(value: int) -> int:
    return value // 2 if value % 2 == 0 else -(value // 2) - 1


def _write_bytes(out: bytearray, data: bytes) -> None:
    _write_uvarint(out, len(data))
    out += data


def _read_bytes(buffer: bytes, pos: int) -> tuple[bytes, int]:
    size, pos = _read_uvarint(buffer, pos)
    end = pos + size
    if end > len(buffer):
        raise WireFormatError("truncated byte field")
    return buffer[pos:end], end


def _write_str(out: bytearray, text: str) -> None:
    _write_bytes(out, text.encode("utf-8"))


def _read_str(buffer: bytes, pos: int) -> tuple[str, int]:
    data, pos = _read_bytes(buffer, pos)
    return data.decode("utf-8"), pos


# ---------------------------------------------------------------------------
# generic tagged values (uids, keys, extensions, bounds, labels)
# ---------------------------------------------------------------------------

_V_NONE = 0
_V_FALSE = 1
_V_TRUE = 2
_V_INT = 3
_V_FLOAT = 4
_V_STR = 5
_V_BYTES = 6
_V_TUPLE = 7
_V_LIST = 8


class _Unencodable(Exception):
    """A value fell outside the codec's closed type universe."""


def _write_value(out: bytearray, value: object) -> None:
    if value is None:
        out.append(_V_NONE)
    elif value is False:
        out.append(_V_FALSE)
    elif value is True:
        out.append(_V_TRUE)
    elif type(value) is int:
        out.append(_V_INT)
        _write_uvarint(out, _zigzag(value))
    elif type(value) is float:
        out.append(_V_FLOAT)
        out += struct.pack("<d", value)
    elif type(value) is str:
        out.append(_V_STR)
        _write_str(out, value)
    elif type(value) is bytes:
        out.append(_V_BYTES)
        _write_bytes(out, value)
    elif type(value) is tuple or type(value) is list:
        out.append(_V_TUPLE if type(value) is tuple else _V_LIST)
        _write_uvarint(out, len(value))
        for item in value:
            _write_value(out, item)
    else:
        raise _Unencodable(type(value).__name__)


def _read_value(buffer: bytes, pos: int) -> tuple[object, int]:
    if pos >= len(buffer):
        raise WireFormatError("truncated value tag")
    tag = buffer[pos]
    pos += 1
    if tag == _V_NONE:
        return None, pos
    if tag == _V_FALSE:
        return False, pos
    if tag == _V_TRUE:
        return True, pos
    if tag == _V_INT:
        raw, pos = _read_uvarint(buffer, pos)
        return _unzigzag(raw), pos
    if tag == _V_FLOAT:
        end = pos + 8
        if end > len(buffer):
            raise WireFormatError("truncated float")
        return struct.unpack("<d", buffer[pos:end])[0], end
    if tag == _V_STR:
        return _read_str(buffer, pos)
    if tag == _V_BYTES:
        return _read_bytes(buffer, pos)
    if tag in (_V_TUPLE, _V_LIST):
        count, pos = _read_uvarint(buffer, pos)
        items = []
        for _ in range(count):
            item, pos = _read_value(buffer, pos)
            items.append(item)
        return (tuple(items) if tag == _V_TUPLE else items), pos
    raise WireFormatError(f"unknown value tag {tag}")


# Column modes.  The message codecs ship parallel per-candidate columns
# (uids, parent uids, extensions, bounds, keys, eviction lists); three
# layouts cover their shapes:
#
# * ``plain`` — count + tagged values; the always-correct baseline.
# * ``interned`` — first-occurrence-ordered unique values (written as a
#   nested column, so unique uid tuples still pack as int pairs) plus a
#   varint index per item.  This is pickle's memo done by *value*: it
#   also collapses equal-but-distinct tuples (fresh extension tuples,
#   repeated bounds) that pickle's identity memo re-serializes.
# * ``intpair`` — for uid columns ``(run_token, counter)`` where every
#   non-``None`` item shares one run token: a None-bitmap, the shared
#   token once, and zigzag-deltas of the counters (near-sequential in
#   practice, so ~1 byte per uid instead of ~7).
_C_PLAIN = 0
_C_INTERNED = 1
_C_INTPAIR = 2


def _intern_key(value):
    """Hash key that never conflates equal values of different types
    (``1 == True == 1.0`` must not collapse — decode would then return
    the wrong type and break lossless round-tripping)."""
    kind = type(value)
    if kind is tuple or kind is list:
        return (kind.__name__, tuple(_intern_key(item) for item in value))
    return (kind.__name__, value)


def _intpair_profile(values):
    """The shared first element if the column fits intpair mode."""
    first = None
    any_pair = False
    for value in values:
        if value is None:
            continue
        if (
            type(value) is tuple
            and len(value) == 2
            and type(value[0]) is int
            and type(value[1]) is int
            and value[0] >= 0
            and value[1] >= 0
        ):
            any_pair = True
            if first is None:
                first = value[0]
            elif value[0] != first:
                return None
        else:
            return None
    return first if any_pair else None


def _write_values(out: bytearray, values, depth: int = 0) -> None:
    if type(values) is not list:
        raise _Unencodable("column shape")
    if values and depth < 2:
        shared = _intpair_profile(values)
        if shared is not None:
            out.append(_C_INTPAIR)
            _write_uvarint(out, len(values))
            _write_uvarint(out, shared)
            bitmap = bytearray((len(values) + 7) // 8)
            for index, value in enumerate(values):
                if value is None:
                    bitmap[index >> 3] |= 1 << (index & 7)
            out += bitmap
            previous = 0
            for value in values:
                if value is None:
                    continue
                _write_uvarint(out, _zigzag(value[1] - previous))
                previous = value[1]
            return
        try:
            unique: dict = {}
            indexes = []
            for value in values:
                key = _intern_key(value)
                slot = unique.setdefault(key, (len(unique), value))
                indexes.append(slot[0])
        except TypeError:
            unique = None  # unhashable member: plain mode
        if unique is not None and len(unique) <= len(values) // 2:
            out.append(_C_INTERNED)
            _write_values(out, [value for _, value in unique.values()], depth + 1)
            _write_uvarint(out, len(indexes))
            for index in indexes:
                _write_uvarint(out, index)
            return
    out.append(_C_PLAIN)
    _write_uvarint(out, len(values))
    for value in values:
        _write_value(out, value)


def _read_values(buffer: bytes, pos: int) -> tuple[list, int]:
    if pos >= len(buffer):
        raise WireFormatError("truncated column mode")
    mode = buffer[pos]
    pos += 1
    if mode == _C_PLAIN:
        count, pos = _read_uvarint(buffer, pos)
        items = []
        for _ in range(count):
            item, pos = _read_value(buffer, pos)
            items.append(item)
        return items, pos
    if mode == _C_INTERNED:
        unique, pos = _read_values(buffer, pos)
        count, pos = _read_uvarint(buffer, pos)
        items = []
        for _ in range(count):
            index, pos = _read_uvarint(buffer, pos)
            if index >= len(unique):
                raise WireFormatError("interned index out of range")
            items.append(unique[index])
        return items, pos
    if mode == _C_INTPAIR:
        count, pos = _read_uvarint(buffer, pos)
        shared, pos = _read_uvarint(buffer, pos)
        bitmap_size = (count + 7) // 8
        end = pos + bitmap_size
        if end > len(buffer):
            raise WireFormatError("truncated intpair bitmap")
        bitmap = buffer[pos:end]
        pos = end
        items: list = []
        previous = 0
        for index in range(count):
            if bitmap[index >> 3] & (1 << (index & 7)):
                items.append(None)
                continue
            raw, pos = _read_uvarint(buffer, pos)
            previous += _unzigzag(raw)
            items.append((shared, previous))
        return items, pos
    raise WireFormatError(f"unknown column mode {mode}")


# ---------------------------------------------------------------------------
# graph wires
# ---------------------------------------------------------------------------

_IDS_SEQUENTIAL = 0  # ids are f"{prefix}{start}" .. f"{prefix}{start+n-1}"
_IDS_GENERIC = 1  # each id is a tagged value


def _write_graph_wire(out: bytearray, wire) -> None:
    """Encode one ``CompactGraph.to_wire()`` tuple.

    Layout: name · n_vertices · vertex label ids · n_edges ·
    (source, target, label id) triples · vertex-id block.  Vertex ids
    are almost always ``"v0".."vN"`` or ``"p0".."pN"``; those collapse
    to a prefix plus a start index instead of N strings.
    """
    if type(wire) is not tuple or len(wire) != 4:
        raise _Unencodable("graph wire shape")
    name, vertex_labels, edges, vertex_ids = wire
    if type(name) is not str or type(vertex_labels) is not tuple:
        raise _Unencodable("graph wire fields")
    if type(edges) is not list or type(vertex_ids) is not tuple:
        raise _Unencodable("graph wire fields")
    if len(vertex_ids) != len(vertex_labels):
        # The id block is keyed off the vertex count on decode; a wire
        # that breaks the invariant must ride the pickle fallback.
        raise _Unencodable("vertex id/label count mismatch")
    _write_str(out, name)
    _write_uvarint(out, len(vertex_labels))
    for label in vertex_labels:
        if type(label) is not int or label < 0:
            raise _Unencodable("vertex label")
        _write_uvarint(out, label)
    _write_uvarint(out, len(edges))
    for edge in edges:
        if type(edge) is not tuple or len(edge) != 3:
            raise _Unencodable("edge shape")
        source, target, label = edge
        for part in (source, target, label):
            if type(part) is not int or part < 0:
                raise _Unencodable("edge field")
        _write_uvarint(out, source)
        _write_uvarint(out, target)
        _write_uvarint(out, label)
    prefix = _sequential_prefix(vertex_ids)
    if prefix is not None:
        out.append(_IDS_SEQUENTIAL)
        _write_str(out, prefix[0])
        _write_uvarint(out, prefix[1])
    else:
        out.append(_IDS_GENERIC)
        for vid in vertex_ids:
            _write_value(out, vid)


def _sequential_prefix(vertex_ids: tuple) -> tuple[str, int] | None:
    """Return ``(prefix, start)`` when ids follow ``f"{prefix}{start+i}"``."""
    if not vertex_ids or type(vertex_ids[0]) is not str:
        return None
    first = vertex_ids[0]
    digits = 0
    while digits < len(first) and first[len(first) - 1 - digits].isdigit():
        digits += 1
    if digits == 0:
        return None
    prefix = first[: len(first) - digits]
    tail = first[len(first) - digits :]
    if len(tail) > 1 and tail[0] == "0":
        return None  # zero-padded ids would not round-trip through int()
    start = int(tail)
    for index, vid in enumerate(vertex_ids):
        if vid != f"{prefix}{start + index}":
            return None
    return prefix, start


def _read_graph_wire(buffer: bytes, pos: int) -> tuple[tuple, int]:
    name, pos = _read_str(buffer, pos)
    n_vertices, pos = _read_uvarint(buffer, pos)
    labels = []
    for _ in range(n_vertices):
        label, pos = _read_uvarint(buffer, pos)
        labels.append(label)
    n_edges, pos = _read_uvarint(buffer, pos)
    edges = []
    for _ in range(n_edges):
        source, pos = _read_uvarint(buffer, pos)
        target, pos = _read_uvarint(buffer, pos)
        label, pos = _read_uvarint(buffer, pos)
        edges.append((source, target, label))
    if pos >= len(buffer):
        raise WireFormatError("truncated vertex-id block")
    mode = buffer[pos]
    pos += 1
    if mode == _IDS_SEQUENTIAL:
        prefix, pos = _read_str(buffer, pos)
        start, pos = _read_uvarint(buffer, pos)
        ids = tuple(f"{prefix}{start + i}" for i in range(n_vertices))
    elif mode == _IDS_GENERIC:
        parts = []
        for _ in range(n_vertices):
            part, pos = _read_value(buffer, pos)
            parts.append(part)
        ids = tuple(parts)
    else:
        raise WireFormatError(f"unknown vertex-id mode {mode}")
    return (name, tuple(labels), edges, ids), pos


def encode_graph_wire(wire) -> bytes:
    """Encode a single ``CompactGraph.to_wire()`` tuple with header."""
    out = bytearray(_MAGIC)
    out.append(_VERSION)
    try:
        _write_graph_wire(out, wire)
    except _Unencodable as exc:
        raise WireFormatError(f"graph wire not flat-encodable: {exc}") from exc
    return bytes(out)


def decode_graph_wire(buffer: bytes) -> tuple:
    """Decode a buffer produced by :func:`encode_graph_wire`."""
    pos = _check_header(buffer)
    wire, pos = _read_graph_wire(bytes(buffer), pos)
    if pos != len(buffer):
        raise WireFormatError("trailing bytes after graph wire")
    return wire


def _check_header(buffer) -> int:
    buffer = bytes(buffer[:3])
    if buffer[:2] != _MAGIC:
        raise WireFormatError("bad magic")
    if buffer[2] != _VERSION:
        raise WireFormatError(f"unsupported wire version {buffer[2]}")
    return 3


# ---------------------------------------------------------------------------
# tid lists (sorted ints -> delta varints)
# ---------------------------------------------------------------------------


def _write_tid_list(out: bytearray, tids) -> None:
    if type(tids) is not list:
        raise _Unencodable("tid list shape")
    _write_uvarint(out, len(tids))
    previous = 0
    first = True
    for tid in tids:
        if type(tid) is not int:
            raise _Unencodable("tid type")
        if first:
            _write_uvarint(out, _zigzag(tid))
            first = False
        else:
            delta = tid - previous
            if delta <= 0:
                raise _Unencodable("unsorted tid list")
            _write_uvarint(out, delta)
        previous = tid


def _read_tid_list(buffer: bytes, pos: int) -> tuple[list, int]:
    count, pos = _read_uvarint(buffer, pos)
    tids = []
    previous = 0
    for index in range(count):
        raw, pos = _read_uvarint(buffer, pos)
        previous = _unzigzag(raw) if index == 0 else previous + raw
        tids.append(previous)
    return tids, pos


def _write_wires(out: bytearray, wires) -> None:
    if type(wires) is not list:
        raise _Unencodable("wire list shape")
    _write_uvarint(out, len(wires))
    for wire in wires:
        _write_graph_wire(out, wire)


def _read_wires(buffer: bytes, pos: int) -> tuple[list, int]:
    count, pos = _read_uvarint(buffer, pos)
    wires = []
    for _ in range(count):
        wire, pos = _read_graph_wire(buffer, pos)
        wires.append(wire)
    return wires, pos


# ---------------------------------------------------------------------------
# session payloads: ("w", wire, tid_buffer) | ("d", edge, new_label, mask)
# ---------------------------------------------------------------------------

_P_FULL = 0
_P_DELTA = 1


def _write_payloads(out: bytearray, payloads) -> None:
    if type(payloads) is not list:
        raise _Unencodable("payload list shape")
    _write_uvarint(out, len(payloads))
    for payload in payloads:
        if type(payload) is not tuple:
            raise _Unencodable("payload shape")
        if len(payload) == 3 and payload[0] == "w":
            _, wire, tid_buffer = payload
            if type(tid_buffer) is not bytes:
                raise _Unencodable("tid buffer type")
            out.append(_P_FULL)
            _write_graph_wire(out, wire)
            _write_bytes(out, tid_buffer)
        elif len(payload) == 4 and payload[0] == "d":
            _, edge_label, new_label, mask = payload
            if type(edge_label) is not int or edge_label < 0:
                raise _Unencodable("delta edge label")
            if type(mask) is not bytes:
                raise _Unencodable("delta mask type")
            out.append(_P_DELTA)
            _write_uvarint(out, edge_label)
            _write_value(out, new_label)
            _write_bytes(out, mask)
        else:
            raise _Unencodable("payload tag")


def _read_payloads(buffer: bytes, pos: int) -> tuple[list, int]:
    count, pos = _read_uvarint(buffer, pos)
    payloads = []
    for _ in range(count):
        if pos >= len(buffer):
            raise WireFormatError("truncated payload tag")
        tag = buffer[pos]
        pos += 1
        if tag == _P_FULL:
            wire, pos = _read_graph_wire(buffer, pos)
            tid_buffer, pos = _read_bytes(buffer, pos)
            payloads.append(("w", wire, tid_buffer))
        elif tag == _P_DELTA:
            edge_label, pos = _read_uvarint(buffer, pos)
            new_label, pos = _read_value(buffer, pos)
            mask, pos = _read_bytes(buffer, pos)
            payloads.append(("d", edge_label, new_label, mask))
        else:
            raise WireFormatError(f"unknown payload tag {tag}")
    return payloads, pos


# ---------------------------------------------------------------------------
# message registry
# ---------------------------------------------------------------------------

#: Codes 4 and 5 belonged to retired ops; a retired code is never reused,
#: so a stale buffer fails to decode instead of decoding as another op.
_OP_CODES = {
    "labels": 1,
    "add": 2,
    "release": 3,
    "slevel": 6,
    "sevict": 7,
}
_OP_NAMES = {code: name for name, code in _OP_CODES.items()}


def _encode_body(out: bytearray, message: tuple) -> None:
    op = message[0]
    if op == "labels":
        (_, labels) = message
        _write_values(out, labels)
    elif op == "add":
        (_, wires) = message
        _write_wires(out, wires)
    elif op == "release":
        (_, tids) = message
        _write_tid_list(out, tids)
    elif op == "sevict":
        (_, items) = message
        _write_values(out, items)
    elif op == "slevel":
        (_, evictions, payloads, uids, parent_uids, extensions, bounds) = message
        _write_values(out, evictions)
        _write_payloads(out, payloads)
        for column in (uids, parent_uids, extensions, bounds):
            _write_values(out, column)
    else:  # pragma: no cover - guarded by the registry check in encode_message
        raise _Unencodable(f"op {op!r}")


def encode_message(message: tuple) -> bytes | None:
    """Encode a logical shard message as a flat buffer.

    Returns ``None`` when the message's op is not in the registry or any
    value falls outside the codec's type universe — the caller must then
    pickle the original message.  Column lists must match the op's
    arity; a mismatched message also returns ``None``.
    """
    if type(message) is not tuple or not message:
        return None
    code = _OP_CODES.get(message[0])
    if code is None:
        return None
    out = bytearray(_MAGIC)
    out.append(_VERSION)
    out.append(code)
    try:
        _encode_body(out, message)
    except (_Unencodable, ValueError, TypeError):
        return None
    return bytes(out)


def decode_message(buffer: bytes) -> tuple:
    """Decode a buffer from :func:`encode_message` back to the exact
    logical message tuple.  Raises :class:`WireFormatError` on any
    structural mismatch — corruption must surface, not deserialize."""
    buffer = bytes(buffer)
    pos = _check_header(buffer)
    if pos >= len(buffer):
        raise WireFormatError("missing op code")
    op = _OP_NAMES.get(buffer[pos])
    if op is None:
        raise WireFormatError(f"unknown op code {buffer[pos]}")
    pos += 1
    if op == "labels":
        labels, pos = _read_values(buffer, pos)
        message = ("labels", labels)
    elif op == "add":
        wires, pos = _read_wires(buffer, pos)
        message = ("add", wires)
    elif op == "release":
        tids, pos = _read_tid_list(buffer, pos)
        message = ("release", tids)
    elif op == "sevict":
        items, pos = _read_values(buffer, pos)
        message = ("sevict", items)
    else:  # slevel
        evictions, pos = _read_values(buffer, pos)
        payloads, pos = _read_payloads(buffer, pos)
        columns = []
        for _ in range(4):
            column, pos = _read_values(buffer, pos)
            columns.append(column)
        message = ("slevel", evictions, payloads, *columns)
    if pos != len(buffer):
        raise WireFormatError("trailing bytes after message body")
    return message
