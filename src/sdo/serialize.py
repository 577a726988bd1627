"""Oracle persistence: the arrays a build appends, each value local to its
node and each array at the narrowest width that holds it, behind a digest.

A file is ``MAGIC``, the SHA-256 digest of the payload, then the payload. The
payload is the array count and one fixed-size entry per array (name,
typecode, length), followed by the arrays themselves, little-endian, in
``store.FILE`` order, and no build state, so a loaded oracle builds
nothing.

Format ``SDO12`` holds the arrays of ``store.FILE`` as the build appends
them, before ``store.check_and_rebase`` derives and rebases the store that
queries walk (``store.file_arrays`` gives them back from that store): the
offsets ``vbase``, ``ebase``, ``sbase`` and ``dep_off`` as per-node or
per-slot counts, and the path positions ``esr`` and ``dsr`` as positions
on their node's path. It holds no node id, child link or separator flag.
Each split is two bits per vertex slot (``vside``: in side M, in side N);
the load derives the tree from those bits (a node with a vertex on both
sides is internal) and every link from them and the edge slots' side
codes, as a rank within its node (``sdo.store``). ``esr`` is held at
PRIMARY slots only, and ``dist_r`` and ``dep_off`` at the slots of nodes
with ``sr`` entries only. So none holds a global position, and most fit a
byte or two.

Each array is written at the narrowest of ``b``, ``h``, ``i`` and ``q`` (1,
2, 4 and 8 bytes) that holds all its values, never wider than its type in
``FILE``, and its entry names that typecode. An array of 0s and 1s whose
type is narrower than ``q`` is written as packed bits instead, typecode
``?``: its first value in the high bit of the first byte, and the bits past
its last value 0. A distance array written narrower than ``q`` stores
``INF`` as the narrow type's maximum, and every other value in it falls
strictly below that maximum, so the maximum reads back as ``INF`` and
nothing else does. Any other value that reaches the maximum, ``INF + 1``
included, takes a wider type.

Loading checks the digest, then that the header lists each array of the
table by name with a typecode no wider than the table's (a wider one would
truncate) and that its lengths fill the payload. It allocates each array at
its table width once and lets numpy cast the little-endian payload into it,
or unpack the bits into it (a bit set past the last value fails), so it
runs no code named by the file. Last, ``store.check_and_rebase`` sums the
counts, derives the tree, checks every count against its child, bounds every
local value, and rejects a digest-valid but crafted file whose arrays would
send a query outside them, before it derives the links and rebases the
local values into the store that queries walk, as it does a build's. It
runs as numpy operations over whole arrays, so a load costs about a digest
plus a few copies. Every failure is a ValueError naming the file. Writing
the same store gives the same bytes, so serialize -> load -> serialize
reproduces a file exactly.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .oracle import OracleTree
from .store import FILE, INF, QueryStore, check_and_rebase, file_arrays

MAGIC = b"SDO12-ORACLE\x00"
_DIGEST = hashlib.sha256().digest_size
_COUNT = struct.Struct("<I")
# name (NUL padded), typecode, item count
_ENTRY = struct.Struct("<12scQ")
# The file typecodes of whole bytes, narrowest first, and the little-endian
# type each names; _BITS packs an array of 0s and 1s eight to a byte.
_FILE = {"b": np.dtype("<i1"), "h": np.dtype("<i2"), "i": np.dtype("<i4"), "q": np.dtype("<i8")}
_BITS = "?"
# Per array of the table: its padded name and the file typecodes it accepts.
_HEADER = [
    (name.encode().ljust(12, b"\0"),
     {c.encode() for c, dtype in _FILE.items() if dtype.itemsize <= _FILE[code].itemsize}
     | ({_BITS.encode()} if code != "q" else set()))
    for name, code in FILE
]

T = TypeVar("T")


def _size(code: str, length: int) -> int:
    """The file bytes of ``length`` values at file typecode ``code``."""
    return (length + 7) // 8 if code == _BITS else length * _FILE[code].itemsize


def _narrowest(v: np.ndarray, typecode: str) -> tuple[str, np.ndarray]:
    """The narrowest file typecode that holds the values ``v`` of an array
    of table type ``typecode``, and the values as the file holds them. Below
    ``q``, 0s and 1s pack into bits; a distance array's ``INF`` becomes the
    type's maximum, which its finite values must then stay below."""
    lo, hi = (int(v.min()), int(v.max())) if len(v) else (0, 0)
    reserved = typecode == "q"  # the narrow type's maximum, kept for INF
    if not reserved and lo >= 0 and hi <= 1:
        return _BITS, np.packbits(v)
    inf = None
    if reserved and hi == INF:
        # the finite values, all below INF here, bound the type
        inf = v == INF
        lo, hi = (lo, int(v.max(where=~inf, initial=lo))) if lo < INF else (0, 0)
    for code, dtype in _FILE.items():
        info = np.iinfo(dtype)
        if code == typecode or (info.min <= lo and hi <= info.max - reserved):
            break
    values = v.astype(dtype, copy=False)
    if inf is not None and code != "q":
        values[inf] = info.max
    return code, values


def dump_oracle(oracle: OracleTree) -> bytes:
    arrays = [
        (name, len(v), *_narrowest(v, code))
        for (name, v), (_, code) in zip(file_arrays(oracle.store), FILE)
    ]
    parts = [_COUNT.pack(len(arrays))]
    parts += [_ENTRY.pack(name.encode(), code.encode(), length) for name, length, code, _ in arrays]
    parts += [v for _, _, _, v in arrays]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return b"".join([MAGIC, digest.digest(), *parts])


def save_oracle(oracle: OracleTree, path: str | Path) -> None:
    Path(path).write_bytes(dump_oracle(oracle))


def _entries(payload: memoryview) -> list[tuple[str, str, int, int]]:
    """The name, file typecode, length and file bytes of each array, as the
    header lists them, once each matches the table and the arrays fill the
    payload."""
    if len(payload) < _COUNT.size or _COUNT.unpack_from(payload)[0] != len(FILE):
        raise ValueError("header does not list the oracle's arrays")
    at = _COUNT.size
    entries = []
    for (name, _), (padded, codes) in zip(FILE, _HEADER):
        entry = payload[at : at + _ENTRY.size]
        if len(entry) < _ENTRY.size:
            raise ValueError("header does not match the oracle's array table")
        got, code, length = _ENTRY.unpack(entry)
        if got != padded or code not in codes:
            raise ValueError("header does not match the oracle's array table")
        code = code.decode()
        entries.append((name, code, length, _size(code, length)))
        at += _ENTRY.size
    if at + sum(entry[3] for entry in entries) != len(payload):
        raise ValueError("header lengths do not fill the payload")
    return entries


def _read_store(payload: memoryview) -> QueryStore:
    at = _COUNT.size + len(FILE) * _ENTRY.size
    store = QueryStore()
    for (name, code), (_, file_code, length, size) in zip(FILE, _entries(payload)):
        a = array(code, [0]) * length
        v = np.frombuffer(a, dtype=code)
        if file_code == _BITS:
            bits = np.frombuffer(payload, dtype=np.uint8, count=size, offset=at)
            if length % 8 and bits[-1] & (0xFF >> length % 8):
                raise ValueError(f"{name} sets a bit past its last value")
            v[:] = np.unpackbits(bits, count=length)
        else:
            data = np.frombuffer(payload, dtype=_FILE[file_code], count=length, offset=at)
            v[:] = data
            if code == "q" and file_code != "q":
                v[data == np.iinfo(data.dtype).max] = INF
        setattr(store, name, a)
        at += size
    check_and_rebase(store)
    return store


def _read(path: str | Path, read: Callable[[memoryview], T]) -> T:
    """``read`` applied to the payload of the oracle file ``path`` once its
    magic and digest check out; every ValueError names the file."""
    blob = Path(path).read_bytes()
    if not blob.startswith(MAGIC):
        raise ValueError(f"{path} is not a serialized oracle")
    body = memoryview(blob)[len(MAGIC) :]
    digest, payload = body[:_DIGEST], body[_DIGEST:]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError(f"{path} is a damaged oracle file: digest mismatch")
    try:
        return read(payload)
    except ValueError as exc:
        raise ValueError(f"{path} is a damaged oracle file: {exc}") from exc


def load_oracle(path: str | Path) -> OracleTree:
    return OracleTree(_read(path, _read_store))


def file_entries(path: str | Path) -> list[tuple[str, str, int, int]]:
    """The name, file typecode, length and file bytes of each array of the
    oracle file ``path``, read from its checked header."""
    return _read(path, _entries)
