"""Oracle persistence: a magic header, a SHA-256 digest of the payload, and
a deterministic pickle payload.

The node tree holds only lists, dicts, arrays, named tuples and slotted
classes, so serialize -> load -> serialize reproduces the byte stream exactly.
A level keeps primary-path tables only if its path holds an input edge. The
magic names the layout version. The digest is checked before unpickling, so
a damaged file fails with ValueError instead of loading into an oracle that
answers wrongly. Unpickling resolves only the globals an oracle holds (its
own classes, ``array`` and the UNREACHABLE restorer); a payload naming any
other global fails with ValueError before anything it names is called, so
loading runs no foreign code.
"""

from __future__ import annotations

import hashlib
import io
import pickle
from pathlib import Path

from .oracle import OracleTree

MAGIC = b"SDO6-ORACLE\x00"
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


# Every global a pickled OracleTree refers to, by module.
_GLOBALS = {
    "array": {"_array_reconstructor", "array"},
    "sdo.departing": {"DepArray", "DepBuildStats"},
    "sdo.graphs": {"Edge", "Graph", "_restore_unreachable"},
    "sdo.oracle": {"OracleNode", "OracleTree"},
    "sdo.spt": {"PathOnTree", "ShortestPathTree"},
}


class _OracleUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if name not in _GLOBALS.get(module, ()):
            raise ValueError(f"payload names {module}.{name}, which no oracle holds")
        return super().find_class(module, name)


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
        oracle = _OracleUnpickler(io.BytesIO(payload)).load()
    except _CORRUPT as exc:
        raise ValueError(f"{path} is a damaged oracle file: {exc}") from exc
    if not isinstance(oracle, OracleTree):
        raise ValueError(f"{path} does not contain an oracle tree")
    return oracle
