"""Oracle persistence: a magic header plus a deterministic pickle payload.

The node tree holds only lists, dicts, arrays and frozen dataclasses, so
serialize -> load -> serialize reproduces the byte stream exactly.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from .oracle import OracleTree

MAGIC = b"SDO2-ORACLE\x00"
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
    return MAGIC + pickle.dumps(oracle, protocol=_PROTOCOL)


def save_oracle(oracle: OracleTree, path: str | Path) -> None:
    Path(path).write_bytes(dump_oracle(oracle))


def load_oracle(path: str | Path) -> OracleTree:
    blob = Path(path).read_bytes()
    if not blob.startswith(MAGIC):
        raise ValueError(f"{path} is not a serialized oracle")
    try:
        oracle = pickle.loads(blob[len(MAGIC) :])
    except _CORRUPT as exc:
        raise ValueError(f"{path} is a damaged oracle file: {exc}") from exc
    if not isinstance(oracle, OracleTree):
        raise ValueError(f"{path} does not contain an oracle tree")
    return oracle
