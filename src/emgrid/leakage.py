"""Leakage models: the intermediate values attacks target.

Two families are supported. First-round models target a byte of the round-1
S-box input or output, computed from the plaintext and a key-byte guess; CPA
hypotheses are its Hamming weight, profiled classifiers label traces by the
byte itself. The last-round model predicts the Hamming distance between a
ciphertext byte and the state byte it overwrote, from the ciphertext and a
round-10 key-byte guess.

For the last-round model the guess for ciphertext byte j is the round-10 key
byte at position SHIFT_MAP[j] (see aes.SHIFT_MAP): ShiftRows moved the state
byte at position j to ciphertext position SHIFT_MAP[j], so inverting the final
round at ct[SHIFT_MAP[j]] recovers the state byte that ct[j] replaced.

Hypothesis matrices are gathered from 256 x 256 tables built at import, whose
row is the key-byte guess and whose column is the public byte: one gather per
first-round matrix, and for the last round one gather of the inverted state
byte followed by a Hamming-weight lookup.
"""

from dataclasses import dataclass

import numpy as np

from .aes import INV_SBOX, SBOX, SHIFT_MAP
from .errors import ConfigError

FIRST_ROUND_SBOX_INPUT = "FirstRoundSboxInput"
FIRST_ROUND_SBOX_OUTPUT = "FirstRoundSboxOutput"
LAST_ROUND_HD = "LastRoundHD"

MODEL_KINDS = (FIRST_ROUND_SBOX_INPUT, FIRST_ROUND_SBOX_OUTPUT, LAST_ROUND_HD)

HW_TABLE = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1).astype(np.uint8)

# Entry [k, v] of each table is the value under guess k for public byte v.
_GUESS_XOR = np.bitwise_xor.outer(np.arange(256, dtype=np.uint8),
                                  np.arange(256, dtype=np.uint8))
_SBOX_INPUT_HW = HW_TABLE[_GUESS_XOR]
_SBOX_OUTPUT_HW = HW_TABLE[SBOX[_GUESS_XOR]]
_INV_SBOX_OF_XOR = INV_SBOX[_GUESS_XOR]


@dataclass(frozen=True)
class LeakageModel:
    kind: str
    byte_index: int

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown leakage model kind {self.kind!r}")
        if not 0 <= self.byte_index < 16:
            raise ConfigError("byte_index must be in 0..15")


def first_round_table(kind: str) -> np.ndarray:
    """The (256, 256) uint8 table of a first-round model: entry [k, v] is the
    Hamming weight predicted under key-byte guess k for plaintext byte v."""
    if kind == FIRST_ROUND_SBOX_OUTPUT:
        return _SBOX_OUTPUT_HW
    if kind == FIRST_ROUND_SBOX_INPUT:
        return _SBOX_INPUT_HW
    raise ConfigError(f"not a first-round model kind: {kind!r}")


def build_hypothesis_matrix(publics: np.ndarray, model: LeakageModel) -> np.ndarray:
    """Predicted leakage for all 256 guesses over n public inputs.

    publics is (n, 16) uint8: plaintexts for first-round models, ciphertexts
    for the last-round model. Returns a (256, n) uint8 matrix; row j is the
    Hamming weight (first round) or Hamming distance (last round) predicted
    under guess j.
    """
    pub = np.atleast_2d(np.asarray(publics, dtype=np.uint8))
    if pub.ndim != 2 or pub.shape[1] != 16 or pub.shape[0] == 0:
        raise ConfigError("publics must be a non-empty (n, 16) byte array")
    j = model.byte_index
    # np.take, unlike table[:, cols], returns a C-ordered (256, n) matrix
    if model.kind == LAST_ROUND_HD:
        prev = np.take(_INV_SBOX_OF_XOR, pub[:, SHIFT_MAP[j]], axis=1)
        return np.take(HW_TABLE, pub[None, :, j] ^ prev)
    return np.take(first_round_table(model.kind), pub[:, j], axis=1)


def true_first_round_values(kind: str, plaintexts: np.ndarray, key,
                            byte_index: int) -> np.ndarray:
    """Per-trace true intermediate byte under the real key (no guessing).

    key is a single 16-byte key or an (n, 16) per-trace key array.
    """
    key = np.asarray(bytearray(key) if isinstance(key, (bytes, bytearray)) else key,
                     dtype=np.uint8)
    kb = key[:, byte_index] if key.ndim == 2 else key[byte_index]
    vals = plaintexts[:, byte_index] ^ kb
    if kind == FIRST_ROUND_SBOX_OUTPUT:
        vals = SBOX[vals]
    elif kind != FIRST_ROUND_SBOX_INPUT:
        raise ConfigError(f"not a first-round model kind: {kind!r}")
    return vals


def true_last_round_hds(ciphertexts: np.ndarray, round9_states: np.ndarray) -> np.ndarray:
    """True HD between each ciphertext byte and the state byte it replaced.

    Shapes (n, 16); uses the instrumented cipher's round-9 output, so no key
    guess is involved. Column j equals row k10[SHIFT_MAP[j]] of
    build_hypothesis_matrix(ct, LeakageModel(LAST_ROUND_HD, j)), the
    hypothesis under the true round-10 key byte.
    """
    return HW_TABLE[ciphertexts ^ round9_states]
