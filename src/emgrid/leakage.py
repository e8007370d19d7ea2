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


def hamming_weight(v):
    """Population count of a byte value; works elementwise on arrays."""
    return HW_TABLE[v]


@dataclass(frozen=True)
class LeakageModel:
    kind: str
    byte_index: int

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown leakage model kind {self.kind!r}")
        if not 0 <= self.byte_index < 16:
            raise ConfigError("byte_index must be in 0..15")


def first_round_sbox_input(plaintext, key_byte_guess: int, byte_index: int) -> int:
    return plaintext[byte_index] ^ key_byte_guess


def first_round_sbox_output(plaintext, key_byte_guess: int, byte_index: int) -> int:
    return int(SBOX[plaintext[byte_index] ^ key_byte_guess])


def last_round_hd_hypothesis(ciphertext, key_byte_guess: int, byte_index: int) -> int:
    """HW(ct[j] ^ InvSBox[ct[SHIFT_MAP[j]] ^ guess]) for j = byte_index."""
    prev = INV_SBOX[ciphertext[SHIFT_MAP[byte_index]] ^ key_byte_guess]
    return int(HW_TABLE[ciphertext[byte_index] ^ prev])


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
    guesses = np.arange(256, dtype=np.uint8)[:, None]
    j = model.byte_index
    if model.kind == LAST_ROUND_HD:
        prev = INV_SBOX[pub[None, :, SHIFT_MAP[j]] ^ guesses]
        return HW_TABLE[pub[None, :, j] ^ prev]
    vals = pub[None, :, j] ^ guesses
    if model.kind == FIRST_ROUND_SBOX_OUTPUT:
        vals = SBOX[vals]
    return HW_TABLE[vals]


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
    guess is involved. Column j matches last_round_hd_hypothesis(ct, k10
    [SHIFT_MAP[j]], j) when the guess is the true round-10 key byte.
    """
    return HW_TABLE[ciphertexts ^ round9_states]
