"""Tests-only last-round truth, written apart from emgrid.leakage: the state
byte that each ciphertext byte overwrote, found by inverting the final
round of ciphertexts that the cryptography package confirms.

FIPS-197's final round is SubBytes, ShiftRows and AddRoundKey, with no
MixColumns. ShiftRows moves state byte j to position SHIFT_MAP[j], so state
byte j is INV_SBOX[(ct ^ k10)[SHIFT_MAP[j]]]. tests/test_aes.py checks that
inversion against a byte-by-byte FIPS-197 round function."""

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from emgrid.aes import INV_SBOX, SHIFT_MAP, expand_keys_batch


def reference_encrypt(keys: np.ndarray, plaintexts: np.ndarray) -> np.ndarray:
    """(n, 16) ciphertexts from the cryptography package; keys is one (16,)
    key or one key per plaintext row, and each distinct key gets one ECB
    cipher."""
    keys = np.broadcast_to(keys, plaintexts.shape)
    rows_of = {}
    for i, key in enumerate(keys):
        rows_of.setdefault(key.tobytes(), []).append(i)
    out = np.empty_like(plaintexts)
    for key, rows in rows_of.items():
        enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        raw = enc.update(plaintexts[rows].tobytes()) + enc.finalize()
        out[rows] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 16)
    return out


def final_round_inputs(ciphertexts: np.ndarray, round10_keys) -> np.ndarray:
    """The state entering the final round of each ciphertext row."""
    return INV_SBOX[(ciphertexts ^ round10_keys)[:, SHIFT_MAP]]


def last_round_hds(keys: np.ndarray, plaintexts: np.ndarray,
                   ciphertexts: np.ndarray) -> np.ndarray:
    """(n, 16) uint8: the bit count of each ciphertext byte XOR the state
    byte it overwrote, once the ciphertexts are checked against the
    reference cipher."""
    assert np.array_equal(ciphertexts, reference_encrypt(keys, plaintexts))
    k10 = expand_keys_batch(np.broadcast_to(keys, plaintexts.shape))[:, 10]
    diff = ciphertexts ^ final_round_inputs(ciphertexts, k10)
    return np.unpackbits(diff[..., None], axis=-1).sum(axis=-1, dtype=np.uint8)
