"""Unit tests for repro.crypto — primes, RSA, keys."""

import pytest

from repro.crypto import (
    DeterministicRNG,
    KeyPair,
    PublicKey,
    generate_keypair,
    generate_prime,
    is_probable_prime,
    sign,
    verify,
)
from repro.crypto.digest import canonical_bytes, sha256, sha256_hex
from repro.crypto.errors import SignatureError


class TestPrimes:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 101, 199):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 6, 9, 100, 561, 1105, 6601):  # incl. Carmichael
            assert not is_probable_prime(c)

    def test_carmichael_numbers_rejected(self):
        # Classic Fermat pseudoprimes that Miller-Rabin must catch.
        for c in (561, 41041, 825265, 321197185):
            assert not is_probable_prime(c)

    def test_large_known_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert is_probable_prime((1 << 127) - 1)
        assert not is_probable_prime((1 << 127) - 3)

    def test_generate_prime_properties(self):
        rng = DeterministicRNG(1)
        p = generate_prime(128, rng)
        assert p.bit_length() == 128
        assert p % 2 == 1
        assert is_probable_prime(p)

    def test_generate_prime_min_size(self):
        with pytest.raises(ValueError):
            generate_prime(4, DeterministicRNG(1))


class TestKeyGeneration:
    def test_deterministic(self):
        a = generate_keypair(DeterministicRNG(7), bits=512)
        b = generate_keypair(DeterministicRNG(7), bits=512)
        assert a == b

    def test_distinct_seeds(self):
        a = generate_keypair(DeterministicRNG(1), bits=512)
        b = generate_keypair(DeterministicRNG(2), bits=512)
        assert a.modulus != b.modulus

    def test_key_size(self):
        pair = generate_keypair(DeterministicRNG(3), bits=512)
        assert 510 <= pair.public.bits <= 512

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            generate_keypair(DeterministicRNG(1), bits=128)

    def test_repr_hides_private_exponent(self):
        pair = generate_keypair(DeterministicRNG(4), bits=512)
        assert str(pair.private_exponent) not in repr(pair)


class TestSignatures:
    @pytest.fixture(scope="class")
    def pair(self):
        return generate_keypair(DeterministicRNG(99), bits=512)

    def test_roundtrip(self, pair):
        message = b"the quick brown fox"
        signature = sign(message, pair)
        assert verify(message, signature, pair.public)

    def test_tampered_message_fails(self, pair):
        signature = sign(b"original", pair)
        assert not verify(b"tampered", signature, pair.public)

    def test_tampered_signature_fails(self, pair):
        signature = sign(b"msg", pair)
        assert not verify(b"msg", signature + 1, pair.public)

    def test_wrong_key_fails(self, pair):
        other = generate_keypair(DeterministicRNG(100), bits=512)
        signature = sign(b"msg", pair)
        assert not verify(b"msg", signature, other.public)

    def test_signature_out_of_range_rejected(self, pair):
        assert not verify(b"msg", -1, pair.public)
        assert not verify(b"msg", pair.modulus, pair.public)

    def test_empty_message(self, pair):
        signature = sign(b"", pair)
        assert verify(b"", signature, pair.public)
        assert not verify(b"x", signature, pair.public)

    def test_modulus_too_small_for_padding(self):
        tiny = PublicKey(modulus=1 << 255 | 1, exponent=65537)
        assert not verify(b"msg", 1, tiny)
        fake_pair = KeyPair(tiny, 3)
        with pytest.raises(SignatureError):
            sign(b"msg", fake_pair)


class TestKeySerialisation:
    def test_fingerprint_stable_and_distinct(self):
        a = generate_keypair(DeterministicRNG(6), bits=512)
        b = generate_keypair(DeterministicRNG(7), bits=512)
        assert a.fingerprint() == a.public.fingerprint()
        assert a.fingerprint() != b.fingerprint()
        assert len(a.fingerprint()) == 40


class TestDigests:
    def test_sha256_known_vector(self):
        assert (
            sha256_hex(b"abc")
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
        assert sha256(b"abc").hex() == sha256_hex(b"abc")

    def test_canonical_bytes_order_independent(self):
        assert canonical_bytes({"b": 1, "a": 2}) == canonical_bytes({"a": 2, "b": 1})
