"""Oracle persistence: the arrays a build appends, each value local to its
node and each array at the narrowest width that holds it, behind a digest.

A file is ``MAGIC``, the SHA-256 digest of the payload, then the payload. The
payload is the array count and one fixed-size entry per array (name,
typecode, length), followed by the arrays themselves, little-endian, in
``store.FILE`` order, and no build state, so a loaded oracle builds
nothing.

Format ``SDO13`` holds the arrays of ``store.FILE`` as the build appends
them, before ``store.check_and_rebase`` derives and rebases the store that
queries walk (``store.file_arrays`` gives them back from that store): the
offsets ``vbase``, ``ebase``, ``sbase`` and ``dep_off`` as per-node or
per-slot counts, and the path positions ``esr`` and ``dsr`` as positions
on their node's path. It holds no node id, child link or separator flag.
Each split is two bits per vertex slot (``vside``: in side M, in side N);
the load derives the tree from those bits (a node with a vertex on both
sides is internal) and every link from them and the edge slots' side
codes, as a rank within its node (``sdo.store``). A side code is one of
four: a leaf's LEAF slots hold PRIMARY's code, which no leaf holds
otherwise, and the load turns them back into LEAF. ``esr`` is held at
PRIMARY slots only, and ``dist_r`` and ``dep_off`` at the slots of nodes
with ``sr`` entries only. So none holds a global position, and most fit a
few bits.

Each array is written at the narrowest width that holds all its values,
never wider than its type in ``FILE``, and its entry names that width's
typecode. An array whose values all lie in ``[0, 2**k)``, for the least k
of 1, 2 and 4, is packed k bits a value, typecode ``1``, ``2`` or ``4``:
8 // k values to a byte, the first in the high bits of the first byte, and
the bits after the last value 0. Any other array takes the narrowest of
``b``, ``h``, ``i`` and ``q`` (1, 2, 4 and 8 bytes), a value to a
little-endian item. A distance array written narrower than ``q`` stores
``INF`` as the width's top value (``2**k - 1`` packed, the type's maximum
in bytes), and every other value in it falls strictly below that value, so
the top value reads back as ``INF`` and nothing else does. Any other value
that reaches it, ``INF + 1`` included, takes a wider width.

Loading checks the digest, then that the header lists each array of the
table by name with a typecode no wider than the table's (a wider one would
truncate) and that its lengths fill the payload. It allocates each array at
its table width once and lets numpy cast the little-endian payload into it,
or unpack the packed values into it (a bit set after the last value fails),
so it runs no code named by the file. Last, ``store.check_and_rebase`` sums
the counts, derives the tree, checks every count against its child, bounds
every local value, and rejects a digest-valid but crafted file whose arrays
would send a query outside them, before it derives the links and rebases
the local values into the store that queries walk, as it does a build's. It
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

MAGIC = b"SDO13-ORACLE\x00"
_DIGEST = hashlib.sha256().digest_size
_COUNT = struct.Struct("<I")
# name (NUL padded), typecode, item count
_ENTRY = struct.Struct("<12scQ")
# The file typecodes of whole bytes, narrowest first, and the little-endian
# type each names.
_FILE = {"b": np.dtype("<i1"), "h": np.dtype("<i2"), "i": np.dtype("<i4"), "q": np.dtype("<i8")}
# The file typecodes of packed values, narrowest first, and the bits k each
# value takes: 8 // k values to a byte, the first in the high bits.
_PACKED = {"1": 1, "2": 2, "4": 4}
# Per array of the table: its padded name and the file typecodes it accepts.
_HEADER = [
    (name.encode().ljust(12, b"\0"),
     {c.encode() for c, dtype in _FILE.items() if dtype.itemsize <= _FILE[code].itemsize}
     | {c.encode() for c in _PACKED})
    for name, code in FILE
]

T = TypeVar("T")


def _size(code: str, length: int) -> int:
    """The file bytes of ``length`` values at file typecode ``code``."""
    if code in _PACKED:
        return (length * _PACKED[code] + 7) // 8
    return length * _FILE[code].itemsize


def _word(bits: int) -> tuple[np.dtype, int, int]:
    """The little-endian word that holds the per = 8 // ``bits`` values of
    one packed byte, value j in byte j; the multiplier sum(2**((8 + bits)
    * j)) that moves them between that word and the byte; and the mask of
    each byte's low ``bits`` bits. Times the word, the multiplier moves
    value j up (8 + bits) * (per - 1 - j) bits, to bit 8 - bits * (j + 1)
    of the top byte. Times the byte, then shifted down 8 - bits, it moves
    value j to the low bits of byte j. No two shifted copies of a value
    overlap, so a product carries nothing into the bits kept."""
    per = 8 // bits
    word = np.dtype(f"<u{per}")
    times = sum(1 << (8 + bits) * j for j in range(per))
    low = ((1 << bits) - 1) * sum(1 << 8 * j for j in range(per))
    return word, word.type(times), word.type(low)


_WORDS = {bits: _word(bits) for bits in _PACKED.values()}


def _pack(v: np.ndarray, bits: int, inf: np.ndarray | None) -> np.ndarray:
    """The values ``v``, each below ``2**bits``, packed ``8 // bits`` to a
    byte, the first in the high bits, the padding after the last 0; at the
    slots ``inf``, the width's top value. One multiply per word gathers
    its bytes' values into its top byte, its last."""
    word, times, _ = _WORDS[bits]
    values = np.zeros(-(-len(v) // word.itemsize) * word.itemsize, dtype=np.uint8)
    values[: len(v)] = v
    if inf is not None:
        values[: len(v)][inf] = (1 << bits) - 1
    np.multiply(values.view(word), times, out=values.view(word))
    return np.ascontiguousarray(values[word.itemsize - 1 :: word.itemsize])


def _unpack(packed: np.ndarray, bits: int, v: np.ndarray) -> None:
    """Fill ``v`` with the values ``_pack`` packed into ``packed``: one
    multiply per byte spreads its values to the bytes of a word, and a
    shift and a mask keep each value's bits alone in its byte."""
    word, times, low = _WORDS[bits]
    spread = packed.astype(word)
    spread *= times
    spread >>= 8 - bits
    spread &= low
    v[:] = spread.view(np.uint8)[: len(v)]


def _narrowest(v: np.ndarray, typecode: str) -> tuple[str, np.ndarray]:
    """The narrowest file typecode that holds the values ``v`` of an array
    of table type ``typecode``, and the values as the file holds them.
    Values in ``[0, 2**k)`` pack at k bits, for the least k of 1, 2 and 4
    that holds them, before any whole byte. A distance array's ``INF``
    becomes the width's top value, which its finite values must then stay
    below."""
    lo, hi = (int(v.min()), int(v.max())) if len(v) else (0, 0)
    reserved = typecode == "q"  # the width's top value, kept for INF
    inf = None
    if reserved and hi == INF:
        # the finite values, all below INF here, bound the type
        inf = v == INF
        lo, hi = (lo, int(v.max(where=~inf, initial=lo))) if lo < INF else (0, 0)
    if lo >= 0:
        for code, bits in _PACKED.items():
            if hi < (1 << bits) - reserved:
                return code, _pack(v, bits, inf)
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
        if file_code in _PACKED:
            bits = _PACKED[file_code]
            packed = np.frombuffer(payload, dtype=np.uint8, count=size, offset=at)
            pad = -length * bits % 8
            if pad and packed[-1] & ((1 << pad) - 1):
                raise ValueError(f"{name} sets a bit past its last value")
            _unpack(packed, bits, v)
            if code == "q":
                v[v == (1 << bits) - 1] = INF
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
