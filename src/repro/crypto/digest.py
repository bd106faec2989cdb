"""Message digests.

SHA-256 via :mod:`hashlib` (part of the Python standard library, not a
third-party dependency), plus helpers for hashing structured data
deterministically.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of raw bytes."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """SHA-256 digest as a lowercase hex string."""
    return hashlib.sha256(data).hexdigest()


def canonical_bytes(obj: Any) -> bytes:
    """Deterministic byte serialisation of a JSON-able structure.

    Used as the to-be-signed encoding for certificates and ROAs: the
    same logical object always hashes to the same digest, and any
    mutation of a signed field changes it.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
