"""Oracle persistence: a magic header, a SHA-256 digest of the payload, and
a deterministic pickle payload.

The node tree holds only lists, dicts, arrays, named tuples and slotted
classes, so serialize -> load -> serialize reproduces the byte stream exactly.
The digest is checked before unpickling, so a damaged file fails with
ValueError instead of loading into an oracle that answers wrongly.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

from .oracle import OracleTree

MAGIC = b"SDO4-ORACLE\x00"
_DIGEST = hashlib.sha256().digest_size
_PROTOCOL = 4
# What pickle raises on truncated or corrupted bytes.
_CORRUPT = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    MemoryError,
    OverflowError,
    TypeError,
    ValueError,
)


def dump_oracle(oracle: OracleTree) -> bytes:
    payload = pickle.dumps(oracle, protocol=_PROTOCOL)
    return MAGIC + hashlib.sha256(payload).digest() + payload


def save_oracle(oracle: OracleTree, path: str | Path) -> None:
    Path(path).write_bytes(dump_oracle(oracle))


def load_oracle(path: str | Path) -> OracleTree:
    blob = Path(path).read_bytes()
    if not blob.startswith(MAGIC):
        raise ValueError(f"{path} is not a serialized oracle")
    body = memoryview(blob)[len(MAGIC) :]
    digest, payload = body[:_DIGEST], body[_DIGEST:]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError(f"{path} is a damaged oracle file: digest mismatch")
    try:
        oracle = pickle.loads(payload)
    except _CORRUPT as exc:
        raise ValueError(f"{path} is a damaged oracle file: {exc}") from exc
    if not isinstance(oracle, OracleTree):
        raise ValueError(f"{path} does not contain an oracle tree")
    return oracle
