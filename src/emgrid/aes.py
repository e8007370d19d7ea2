"""FIPS-197 AES-128 encryption, vectorized over batches of blocks.

Everything here operates on flat 16-byte states in standard AES order:
byte b of a block sits at state-matrix row b % 4, column b // 4. Batch
functions take uint8 arrays of shape (n, 16) and never loop over n.

Rounds 1-9 of encrypt_blocks use a T-table: SubBytes, ShiftRows and
MixColumns are one gather from T_TABLE, whose entry [r, x] is the
MixColumns output column (a little-endian uint32 word) of S-box output
SBOX[x] standing alone in row r, so each output column is the XOR of four
entries. The key schedule likewise works on little-endian uint32 words.

Nothing here decrypts: the last-round leakage model inverts the final round
itself from a ciphertext and its round-10 key (see leakage.py).
"""

import numpy as np

SBOX = np.array([
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
], dtype=np.uint8)

INV_SBOX = np.zeros(256, dtype=np.uint8)
INV_SBOX[SBOX] = np.arange(256, dtype=np.uint8)

# ShiftRows as a gather: new_state[i] = old_state[SHIFT_ROWS_SELECT[i]].
SHIFT_ROWS_SELECT = np.array(
    [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11], dtype=np.intp)

# Same permutation as a scatter: the byte at state position j lands at
# position SHIFT_MAP[j] after ShiftRows. This is the 16-entry table the
# last-round Hamming-distance hypothesis is written against (see leakage.py).
SHIFT_MAP = np.zeros(16, dtype=np.intp)
SHIFT_MAP[SHIFT_ROWS_SELECT] = np.arange(16, dtype=np.intp)

RCON = np.array([0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36],
                dtype=np.uint8)


def _xtime(v: np.ndarray) -> np.ndarray:
    """Multiply each byte by x in GF(2^8) with the AES polynomial."""
    return ((v << 1) ^ ((v >> 7) * 0x1B)).astype(np.uint8)


def _t_table() -> np.ndarray:
    s = SBOX
    s2 = _xtime(s)
    # MixColumns of the column (s, 0, 0, 0): bytes 2s, s, s, 3s; a byte in
    # row r gives the same bytes rotated down by r
    column = np.stack([s2, s, s, s2 ^ s], axis=1)
    return np.stack([np.roll(column, r, axis=1) for r in range(4)]) \
        .view("<u4").reshape(4, 256)


T_TABLE = _t_table()

# Offsets into the flattened T_TABLE, which np.take reads, for the ShiftRows
# output: its byte j sits in row j % 4, so it looks up entry
# 256 * (j % 4) + state[SHIFT_ROWS_SELECT[j]].
# uint16 indices keep the gather's index array small: np.take runs about
# twice as fast on 16,384 blocks as with intp indices.
_T_ROW_OFFSET = np.arange(16, dtype=np.uint16) % 4 * 256


def expand_keys(key) -> np.ndarray:
    """AES-128 key schedule: 16-byte key -> (11, 16) uint8 round keys."""
    key = np.asarray(bytearray(key) if isinstance(key, (bytes, bytearray)) else key,
                     dtype=np.uint8)
    if key.shape != (16,):
        raise ValueError("key must be 16 bytes")
    return expand_keys_batch(key.reshape(1, 16))[0]


def expand_keys_batch(keys: np.ndarray) -> np.ndarray:
    """Key schedule vectorized over (n, 16) keys -> (n, 11, 16)."""
    keys = np.atleast_2d(np.asarray(keys, dtype=np.uint8))
    if keys.ndim != 2 or keys.shape[1] != 16:
        raise ValueError("keys must have shape (n, 16)")
    n = keys.shape[0]
    # w[i] holds schedule word i of every key, byte 0 in the low bits
    w = np.empty((44, n), dtype="<u4")
    w[:4] = np.ascontiguousarray(keys).view("<u4").T
    for i in range(4, 44):
        t = w[i - 1]
        if i % 4 == 0:
            t = SBOX[t.view(np.uint8)].view("<u4")  # SubWord
            t = (t >> 8 | t << 24) ^ RCON[i // 4 - 1]  # RotWord, Rcon into byte 0
        w[i] = w[i - 4] ^ t
    return np.ascontiguousarray(w.T).view(np.uint8).reshape(n, 11, 16)


def encrypt_blocks(plaintexts: np.ndarray, round_keys: np.ndarray) -> np.ndarray:
    """Encrypt a (n, 16) uint8 batch.

    round_keys is one schedule of shape (11, 16) shared by every block, or a
    per-block batch of schedules with shape (n, 11, 16).
    """
    pts = np.atleast_2d(np.asarray(plaintexts, dtype=np.uint8))
    if pts.ndim != 2 or pts.shape[1] != 16:
        raise ValueError("plaintexts must have shape (n, 16)")
    n = pts.shape[0]
    if round_keys.ndim == 3 and round_keys.shape != (n, 11, 16):
        raise ValueError("per-block round keys must have shape (n, 11, 16)")
    rk_words = np.ascontiguousarray(round_keys).view("<u4")
    state = pts ^ round_keys[..., 0, :]
    for r in range(1, 10):
        t = np.take(T_TABLE, state[:, SHIFT_ROWS_SELECT] + _T_ROW_OFFSET)
        t = t.reshape(n, 4, 4)  # [block, output column, source row]
        words = t[:, :, 0] ^ t[:, :, 1]
        words ^= t[:, :, 2]
        words ^= t[:, :, 3]
        words ^= rk_words[..., r, :]
        state = words.astype("<u4", copy=False).view(np.uint8)
    state = SBOX[state[:, SHIFT_ROWS_SELECT]]
    state ^= round_keys[..., 10, :]
    return state


def aes128_encrypt(plaintext, key) -> bytes:
    """Single-block convenience wrapper over encrypt_blocks."""
    pt = np.frombuffer(bytes(plaintext), dtype=np.uint8)
    if pt.shape != (16,):
        raise ValueError("plaintext must be 16 bytes")
    return encrypt_blocks(pt.reshape(1, 16), expand_keys(key))[0].tobytes()
