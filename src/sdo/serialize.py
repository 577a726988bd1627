"""Oracle persistence: the query store's arrays, raw, behind a digest.

A file is ``MAGIC``, the SHA-256 digest of the payload, then the payload. The
payload is a header, the array count and one fixed-size entry per array
(name, typecode, length), followed by the arrays themselves, little-endian,
in ``store.TABLE`` order: the query store's slot links as both walks read
them (``SDO8``), and no build state, so a loaded oracle builds nothing.

Loading checks the digest, then that the header is exactly the expected name
and typecode table and that its lengths fill the payload, then reads each
array with ``frombytes``, so it runs no code named by the file. Last, the
structural check of ``store.check`` rejects a digest-valid but crafted file
whose arrays would send a query outside them. The check runs as numpy
operations over whole arrays, so a load costs about a digest plus a copy.
Every failure is a ValueError naming the file. Writing the same store gives
the same bytes, so serialize -> load -> serialize reproduces a file exactly.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from pathlib import Path

from .oracle import OracleTree
from .store import TABLE, QueryStore, check

MAGIC = b"SDO8-ORACLE\x00"
_DIGEST = hashlib.sha256().digest_size
_COUNT = struct.Struct("<I")
# name (NUL padded), typecode, item count
_ENTRY = struct.Struct("<12scQ")
# what each entry must start with: the padded name and the typecode
_HEADER = [name.encode().ljust(12, b"\0") + code.encode() for name, code in TABLE]
_SWAP = sys.byteorder == "big"
# Bytes per item of each typecode the store uses.
_WIDTH = {"b": 1, "i": 4, "q": 8}

for _code, _width in _WIDTH.items():
    if array(_code).itemsize != _width:
        raise ImportError(f"array typecode {_code!r} is not {_width} bytes on this platform")


def dump_oracle(oracle: OracleTree) -> bytes:
    arrays = oracle.store.arrays()
    parts = [_COUNT.pack(len(arrays))]
    parts += [_ENTRY.pack(name.encode(), a.typecode.encode(), len(a)) for name, a in arrays]
    for _, a in arrays:
        if _SWAP:
            a = array(a.typecode, a)
            a.byteswap()
        parts.append(a.tobytes())
    payload = b"".join(parts)
    return MAGIC + hashlib.sha256(payload).digest() + payload


def save_oracle(oracle: OracleTree, path: str | Path) -> None:
    Path(path).write_bytes(dump_oracle(oracle))


def _read_store(payload: memoryview) -> QueryStore:
    if len(payload) < _COUNT.size or _COUNT.unpack_from(payload)[0] != len(TABLE):
        raise ValueError("header does not list the oracle's arrays")
    at = _COUNT.size
    lengths = []
    for expected in _HEADER:
        entry = payload[at : at + _ENTRY.size]
        if len(entry) < _ENTRY.size or entry[: len(expected)] != expected:
            raise ValueError("header does not match the oracle's array table")
        lengths.append(_ENTRY.unpack(entry)[2])
        at += _ENTRY.size
    sizes = [length * _WIDTH[code] for length, (_, code) in zip(lengths, TABLE)]
    if at + sum(sizes) != len(payload):
        raise ValueError("header lengths do not fill the payload")
    store = QueryStore()
    for (name, code), size in zip(TABLE, sizes):
        a = array(code)
        a.frombytes(payload[at : at + size])
        if _SWAP:
            a.byteswap()
        setattr(store, name, a)
        at += size
    check(store)
    return store


def load_oracle(path: str | Path) -> OracleTree:
    blob = Path(path).read_bytes()
    if not blob.startswith(MAGIC):
        raise ValueError(f"{path} is not a serialized oracle")
    body = memoryview(blob)[len(MAGIC) :]
    digest, payload = body[:_DIGEST], body[_DIGEST:]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError(f"{path} is a damaged oracle file: digest mismatch")
    try:
        store = _read_store(payload)
    except ValueError as exc:
        raise ValueError(f"{path} is a damaged oracle file: {exc}") from exc
    return OracleTree(store)
