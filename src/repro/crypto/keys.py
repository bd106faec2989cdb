"""RSA key containers and serialisation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.crypto.digest import sha256_hex


@dataclass(frozen=True)
class PublicKey:
    """An RSA public key ``(n, e)``."""

    modulus: int
    exponent: int

    @property
    def bits(self) -> int:
        return self.modulus.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.bits + 7) // 8

    def fingerprint(self) -> str:
        """Stable hex identifier for the key (SKI-like)."""
        blob = f"{self.modulus:x}:{self.exponent:x}".encode("ascii")
        return sha256_hex(blob)[:40]

    def to_dict(self) -> Dict[str, str]:
        return {"n": format(self.modulus, "x"), "e": format(self.exponent, "x")}


@dataclass(frozen=True)
class KeyPair:
    """An RSA key pair; ``private_exponent`` never leaves the holder."""

    public: PublicKey
    private_exponent: int

    @property
    def modulus(self) -> int:
        return self.public.modulus

    def fingerprint(self) -> str:
        return self.public.fingerprint()

    def __repr__(self) -> str:  # never print the private exponent
        return f"<KeyPair {self.public.bits}-bit {self.fingerprint()[:12]}>"
