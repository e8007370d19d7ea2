"""Leakage models: the intermediate values attacks target, and their truth.

First-round models target a byte of the round-1 S-box input or output,
p ^ k or SBOX[p ^ k]; CPA hypotheses are its Hamming weight, profiled
classifiers label traces by the byte itself. The last-round model predicts
the Hamming distance between ciphertext byte j and the state byte it
overwrote, InvSBox[ct[σ(j)] ^ k10[σ(j)]] with σ = aes.SHIFT_MAP: ShiftRows
moved state byte j to position σ(j), and the final round has no MixColumns.

Each rule is one 256 x 256 table built at import, row the key byte and
column the public byte. A hypothesis matrix gathers the rows of all 256
guesses; the truth under the real key (true_first_round_values,
true_last_round_hds) gathers the real key's row, which true_guesses names.
So what the simulator leaks and what CPA ranks first are one rule.
"""

from dataclasses import dataclass

import numpy as np

from .aes import INV_SBOX, SBOX, SHIFT_MAP, expand_keys
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
_FIRST_ROUND_VALUES = {FIRST_ROUND_SBOX_INPUT: _GUESS_XOR,
                       FIRST_ROUND_SBOX_OUTPUT: SBOX[_GUESS_XOR]}
_FIRST_ROUND_HW = {kind: HW_TABLE[values]
                   for kind, values in _FIRST_ROUND_VALUES.items()}
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
    return _first_round(_FIRST_ROUND_HW, kind)


def _first_round(tables: dict, kind: str) -> np.ndarray:
    if kind not in tables:
        raise ConfigError(f"not a first-round model kind: {kind!r}")
    return tables[kind]


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


def true_first_round_values(kind: str, plaintexts: np.ndarray, keys: np.ndarray,
                            byte_index: int) -> np.ndarray:
    """Per-trace true intermediate byte under the real key (no guessing).

    keys is one (16,) uint8 key or an (n, 16) array of per-trace keys.
    """
    j = byte_index
    return _first_round(_FIRST_ROUND_VALUES, kind)[keys[..., j], plaintexts[:, j]]


def true_last_round_hds(ciphertexts: np.ndarray, round10_keys: np.ndarray) -> np.ndarray:
    """True HD between each ciphertext byte and the state byte it replaced.

    round10_keys is one (16,) uint8 round-10 key or an (n, 16) array of
    per-trace ones. Column j equals row true_guesses(LAST_ROUND_HD, key)[j]
    of build_hypothesis_matrix(ct, LeakageModel(LAST_ROUND_HD, j)).
    """
    prev = _INV_SBOX_OF_XOR[round10_keys[..., SHIFT_MAP], ciphertexts[:, SHIFT_MAP]]
    return HW_TABLE[ciphertexts ^ prev]


def true_guesses(kind: str, key: np.ndarray) -> np.ndarray:
    """The 16 guesses an attack on `kind` should rank first, as a (16,)
    uint8 array, for one 16-byte key: the key itself for first-round models,
    and round-10 key byte σ(j) for byte j of the last-round model."""
    if kind == LAST_ROUND_HD:
        return expand_keys(key)[10, SHIFT_MAP]
    return np.asarray(key, dtype=np.uint8)
