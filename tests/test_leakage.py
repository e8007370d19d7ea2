"""Leakage-model tests, checked against scalar pure-Python recomputation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emgrid.aes import SBOX, SHIFT_MAP, expand_keys, encrypt_blocks
from emgrid.errors import ConfigError
from emgrid.leakage import (
    FIRST_ROUND_SBOX_INPUT,
    FIRST_ROUND_SBOX_OUTPUT,
    LAST_ROUND_HD,
    LeakageModel,
    build_hypothesis_matrix,
    first_round_sbox_input,
    first_round_sbox_output,
    hamming_weight,
    last_round_hd_hypothesis,
    true_first_round_values,
    true_last_round_hds,
)

# Independent inverse S-box built by dict inversion, not by array scatter.
PY_INV_SBOX = {int(v): i for i, v in enumerate(SBOX.tolist())}


@given(st.integers(0, 255))
def test_hamming_weight_matches_bit_count(v):
    assert int(hamming_weight(v)) == v.bit_count()


def test_hamming_weight_examples():
    assert int(hamming_weight(0x00)) == 0
    assert int(hamming_weight(0xFF)) == 8
    assert int(hamming_weight(0xA5)) == 4


def test_first_round_examples():
    pt = bytearray(16)
    pt[3] = 0x3C
    assert first_round_sbox_input(pt, 0xA5, 3) == 0x99
    assert first_round_sbox_input(pt, 0x00, 0) == 0x00
    pt[7] = 0xAB
    assert first_round_sbox_input(pt, 0xAB, 7) == 0x00
    assert first_round_sbox_output(bytes(16), 0x00, 5) == 0x63
    assert first_round_sbox_output(bytes(16), 0x01, 5) == 0x7C


def test_sbox_output_bijective_over_guesses():
    pt = bytes([0x5A] * 16)
    outs = {first_round_sbox_output(pt, g, 0) for g in range(256)}
    assert outs == set(range(256))


def test_last_round_hd_crafted_zero_and_eight():
    # Craft ct so the reconstructed pre-final-round byte equals ct[i] (HD 0),
    # then flip all of ct[i]'s bits (HD 8). i=6 exercises a shifted row; i=0
    # sits on row 0 where SHIFT_MAP[0] == 0, so the guess is solved directly.
    prev = 0x3D
    guess = 0x71
    ct = bytearray(16)
    ct[6] = prev
    ct[SHIFT_MAP[6]] = SBOX[prev] ^ guess
    assert last_round_hd_hypothesis(ct, guess, 6) == 0
    ct[6] = prev ^ 0xFF
    assert last_round_hd_hypothesis(ct, guess, 6) == 8

    ct0 = bytearray(16)
    ct0[0] = prev
    guess0 = int(SBOX[prev]) ^ prev
    assert int(SHIFT_MAP[0]) == 0
    assert last_round_hd_hypothesis(ct0, guess0, 0) == 0


def test_last_round_hd_brute_force_oracle():
    rng = np.random.default_rng(10)
    ct = rng.integers(0, 256, 16, dtype=np.uint8)
    for i in range(16):
        for g in range(256):
            prev = PY_INV_SBOX[int(ct[SHIFT_MAP[i]]) ^ g]
            want = (int(ct[i]) ^ prev).bit_count()
            assert last_round_hd_hypothesis(ct, g, i) == want


def test_hypothesis_matrix_xor_zero_column():
    pub = np.zeros((1, 16), dtype=np.uint8)
    H = build_hypothesis_matrix(pub, LeakageModel(FIRST_ROUND_SBOX_INPUT, 4))
    assert np.array_equal(H[:, 0], [v.bit_count() for v in range(256)])


def test_hypothesis_matrix_identical_publics():
    pub = np.tile(np.arange(16, dtype=np.uint8), (2, 1))
    H = build_hypothesis_matrix(pub, LeakageModel(FIRST_ROUND_SBOX_OUTPUT, 9))
    assert np.array_equal(H[:, 0], H[:, 1])


def test_hypothesis_matrix_elementwise_oracle():
    rng = np.random.default_rng(11)
    pub = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    for kind, scalar in (
        (FIRST_ROUND_SBOX_INPUT, first_round_sbox_input),
        (FIRST_ROUND_SBOX_OUTPUT, first_round_sbox_output),
        (LAST_ROUND_HD, last_round_hd_hypothesis),
    ):
        model = LeakageModel(kind, 13)
        H = build_hypothesis_matrix(pub, model)
        for i in range(pub.shape[0]):
            for g in range(0, 256, 17):
                want = scalar(pub[i], g, 13)
                # first-round scalars give the byte, the matrix its weight;
                # the last-round scalar is already a distance
                if kind != LAST_ROUND_HD:
                    want = int(want).bit_count()
                assert H[g, i] == want


def test_hypothesis_matrix_guess_permutation_symmetry():
    # XORing the targeted plaintext byte by d relabels guesses by the same
    # XOR: row g of the shifted matrix equals row g^d of the original, for
    # every column at once. Distinguisher inputs are label-symmetric.
    rng = np.random.default_rng(12)
    pub = rng.integers(0, 256, (8, 16), dtype=np.uint8)
    model = LeakageModel(FIRST_ROUND_SBOX_INPUT, 2)
    H = build_hypothesis_matrix(pub, model)
    d = 0xB7
    shifted = pub.copy()
    shifted[:, 2] ^= d
    H2 = build_hypothesis_matrix(shifted, model)
    perm = np.arange(256) ^ d
    assert np.array_equal(H2, H[perm])


def test_hypothesis_matrix_validation():
    with pytest.raises(ConfigError):
        build_hypothesis_matrix(np.zeros((0, 16), np.uint8),
                                LeakageModel(FIRST_ROUND_SBOX_INPUT, 0))
    with pytest.raises(ConfigError):
        LeakageModel("FirstRoundSboxInputs", 0)
    with pytest.raises(ConfigError):
        LeakageModel(FIRST_ROUND_SBOX_INPUT, 16)


def test_true_values_and_true_hds():
    rng = np.random.default_rng(13)
    key = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
    pts = rng.integers(0, 256, (32, 16), dtype=np.uint8)
    rk = expand_keys(key)
    cts, s9 = encrypt_blocks(pts, rk, return_round9_state=True)

    vin = true_first_round_values(FIRST_ROUND_SBOX_INPUT, pts, key, 6)
    assert np.array_equal(vin, pts[:, 6] ^ key[6])
    vout = true_first_round_values(FIRST_ROUND_SBOX_OUTPUT, pts, key, 6)
    assert np.array_equal(vout, SBOX[vin])

    hds = true_last_round_hds(cts, s9)
    assert hds.shape == (32, 16)
    # With the true round-10 key byte, the guessed hypothesis must equal the
    # instrumented truth for every trace and byte position.
    k10 = np.frombuffer(rk[10].tobytes(), dtype=np.uint8)
    for j in range(16):
        g = int(k10[SHIFT_MAP[j]])
        for i in range(32):
            assert last_round_hd_hypothesis(cts[i], g, j) == hds[i, j]
