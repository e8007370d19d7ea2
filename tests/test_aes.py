"""Cipher-core tests: published vectors, an independent library oracle, and
the ShiftRows bookkeeping the last-round attack depends on. emgrid only
encrypts; the cryptography package decrypts for the round trips."""

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from emgrid.aes import (
    INV_SBOX,
    RCON,
    SBOX,
    SHIFT_MAP,
    SHIFT_ROWS_SELECT,
    T_TABLE,
    aes128_encrypt,
    encrypt_blocks,
    expand_keys,
    expand_keys_batch,
)
from final_round import final_round_inputs

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def reference_ecb_encrypt(key: bytes, blocks: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(blocks) + enc.finalize()


def reference_ecb_decrypt(key: bytes, blocks: bytes) -> bytes:
    dec = Cipher(algorithms.AES(key), modes.ECB()).decryptor()
    return dec.update(blocks) + dec.finalize()


def _xtime(b: int) -> int:
    return ((b << 1) ^ (0x1B if b & 0x80 else 0)) & 0xFF


def reference_round9_state(round_keys, pt) -> list:
    """The state entering the final round: AddRoundKey, then rounds 1-9 of
    FIPS-197, byte by byte. Row r of the state (bytes r, r+4, r+8, r+12)
    rotates left by r in ShiftRows."""
    s = [p ^ int(k) for p, k in zip(pt, round_keys[0])]
    for r in range(1, 10):
        s = [int(SBOX[b]) for b in s]
        s = [s[4 * ((c + row) % 4) + row] for c in range(4) for row in range(4)]
        mixed = []
        for c in range(4):
            a = s[4 * c:4 * c + 4]
            mixed += [_xtime(a[i]) ^ _xtime(a[(i + 1) % 4]) ^ a[(i + 1) % 4]
                      ^ a[(i + 2) % 4] ^ a[(i + 3) % 4] for i in range(4)]
        s = [b ^ int(k) for b, k in zip(mixed, round_keys[r])]
    return s


def master_key_from_round10(rk10) -> bytes:
    """Invert the key schedule from the round-10 key back to the master key."""
    rk10 = np.frombuffer(bytes(rk10), dtype=np.uint8)
    if rk10.shape != (16,):
        raise ValueError("round key must be 16 bytes")
    w = np.zeros((44, 4), dtype=np.uint8)
    w[40:44] = rk10.reshape(4, 4)
    for i in range(43, 3, -1):
        t = w[i - 1].copy()
        if i % 4 == 0:
            t = SBOX[np.roll(t, -1)]
            t[0] ^= RCON[i // 4 - 1]
        w[i - 4] = w[i] ^ t
    return w[:4].reshape(16).tobytes()


def test_fips_vector():
    assert aes128_encrypt(FIPS_PT, FIPS_KEY) == FIPS_CT


def test_encrypt_deterministic():
    assert aes128_encrypt(FIPS_PT, FIPS_KEY) == aes128_encrypt(FIPS_PT, FIPS_KEY)


def test_sbox_inverse_bijection():
    assert sorted(SBOX.tolist()) == list(range(256))
    assert np.array_equal(INV_SBOX[SBOX], np.arange(256))
    assert np.array_equal(SBOX[INV_SBOX], np.arange(256))


def test_shift_rows_tables():
    # Documented permutation: state byte j lands at ciphertext position
    # SHIFT_MAP[j]; SHIFT_ROWS_SELECT is the same move written as a gather.
    assert SHIFT_MAP.tolist() == [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3]
    assert SHIFT_ROWS_SELECT.tolist() == [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11]
    assert np.array_equal(SHIFT_MAP[SHIFT_ROWS_SELECT], np.arange(16))
    # Row r of the state (byte indices r, r+4, r+8, r+12) rotates left by r.
    for r in range(4):
        row = [4 * c + r for c in range(4)]
        rotated = [4 * ((c + r) % 4) + r for c in range(4)]
        assert [SHIFT_ROWS_SELECT[b] for b in row] == rotated


def test_round_trips_against_reference():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        key = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        pt = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        ct = aes128_encrypt(pt, key)
        assert ct == reference_ecb_encrypt(key, pt)
        assert reference_ecb_decrypt(key, ct) == pt


def test_batch_matches_reference_library():
    rng = np.random.default_rng(2)
    key = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
    pts = rng.integers(0, 256, (257, 16), dtype=np.uint8)
    rk = expand_keys(key)
    cts = encrypt_blocks(pts, rk)
    assert cts.tobytes() == reference_ecb_encrypt(key, pts.tobytes())
    assert reference_ecb_decrypt(key, cts.tobytes()) == pts.tobytes()


@pytest.mark.parametrize("n", [1, 7, 257])
def test_per_block_keys_match_reference_library(n):
    rng = np.random.default_rng(5 + n)
    keys = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    pts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    rks = expand_keys_batch(keys)
    assert rks.shape == (n, 11, 16)
    cts = encrypt_blocks(pts, rks)
    for key, pt, ct, rk in zip(keys, pts, cts, rks):
        assert ct.tobytes() == reference_ecb_encrypt(key.tobytes(), pt.tobytes())
        assert np.array_equal(rk, expand_keys(key.tobytes()))
    # inverting the final round under each block's own round-10 key
    # recovers its state entering the final round
    assert final_round_inputs(cts, rks[:, 10]).tolist() == \
        [reference_round9_state(rk, pt) for rk, pt in zip(rks, pts)]


def test_t_table_column_matches_fips_mixcolumns_example():
    # FIPS-197 MixColumns example: column db 13 53 45 becomes 8e 4d a1 bc.
    # T_TABLE[r] looks up the S-box input, so invert the S-box first.
    column = INV_SBOX[np.frombuffer(bytes.fromhex("db135345"), dtype=np.uint8)]
    word = np.bitwise_xor.reduce(T_TABLE[np.arange(4), column])
    assert np.array([word], dtype="<u4").tobytes() == bytes.fromhex("8e4da1bc")


def test_key_schedule_known_expansion():
    # Published expansion of 2b7e1516...: the final round key is
    # d014f9a8 c9ee2589 e13f0cc8 b6630ca6.
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    assert expand_keys(key)[10].tobytes() == \
        bytes.fromhex("d014f9a8c9ee2589e13f0cc8b6630ca6")


def test_key_schedule_inversion():
    rng = np.random.default_rng(3)
    for _ in range(100):
        key = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
        assert master_key_from_round10(expand_keys(key)[10]) == key


def test_round9_state_defines_final_round():
    rng = np.random.default_rng(4)
    key = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
    pts = rng.integers(0, 256, (64, 16), dtype=np.uint8)
    rk = expand_keys(key)
    s9 = np.array([reference_round9_state(rk, pt) for pt in pts], dtype=np.uint8)
    # Final round = SubBytes, ShiftRows, AddRoundKey applied to the state
    # after round 9; anything else and the HD leakage model would be
    # inconsistent.
    cts = encrypt_blocks(pts, rk)
    assert np.array_equal(SBOX[s9][:, SHIFT_ROWS_SELECT] ^ rk[10], cts)
    # And inverting the final round from a reference-verified ciphertext
    # recovers the same state.
    assert cts.tobytes() == reference_ecb_encrypt(key, pts.tobytes())
    assert np.array_equal(INV_SBOX[(cts ^ rk[10])[:, SHIFT_MAP]], s9)
    assert np.array_equal(final_round_inputs(cts, rk[10]), s9)


def test_bad_lengths_rejected():
    with pytest.raises(ValueError):
        aes128_encrypt(b"\x00" * 15, FIPS_KEY)
    with pytest.raises(ValueError):
        expand_keys(b"\x00" * 17)
    with pytest.raises(ValueError):
        master_key_from_round10(b"\x00" * 8)
