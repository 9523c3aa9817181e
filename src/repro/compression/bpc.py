"""Bit-Plane Compression (Kim et al., ISCA 2016), as used by SpZip.

BPC transforms a chunk of fixed-width elements so that value locality turns
into long runs of zero *bit planes*, then entropy-codes the planes.  The
paper's implementation "supports 32- or 64-bit elements, and uses a simple
byte-level symbol encoding for each bitplane" (Sec III-E); we implement the
same structure:

1. the first element of the chunk is the *base*, stored verbatim;
2. the remaining elements are delta-encoded against their predecessor
   (wrapped, width+1-bit signed deltas);
3. the deltas are transposed into ``width+1`` bit planes (plane ``k`` holds
   bit ``k`` of every delta) — the Delta-BitPlane (DBP) transform;
4. adjacent planes are XORed (DBX transform), which zeroes planes whenever
   consecutive bit positions agree across the chunk;
5. each DBX plane is emitted with a byte-level symbol code:

   ========  ==================================  =====
   symbol    meaning                             bytes
   ========  ==================================  =====
   ``0x00``  run of all-zero planes (+len byte)  2
   ``0x01``  all-ones plane                      1
   ``0x02``  single set bit (+position byte)     2
   ``0x03``  two consecutive set bits (+pos)     2
   ``0xFF``  raw plane payload follows           1+W/8
   ========  ==================================  =====

If the symbol-coded chunk would be no smaller than the raw chunk, the
encoder falls back to a raw chunk (1-byte flag + verbatim data), so BPC
never expands data by more than one byte per chunk.

BPC works well on long, sequentially accessed streams (update bins, vertex
data) and poorly on short ones; the registry's ``best-of`` codec picks
between BPC and delta per stream, as the paper does.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Codec, as_unsigned_bits, from_unsigned_bits

#: Default chunk length (elements); the paper compresses 32-element chunks.
BPC_CHUNK = 32

_FLAG_COMPRESSED = 0xC5
_FLAG_RAW = 0x52

_SYM_ZERO_RUN = 0x00
_SYM_ALL_ONES = 0x01
_SYM_SINGLE_ONE = 0x02
_SYM_TWO_ONES = 0x03
_SYM_RAW = 0xFF


def _dbx_planes(chunk_bits: np.ndarray, width: int) -> np.ndarray:
    """DBP+DBX transform of one chunk.

    Returns an int array of ``width + 1`` plane words; plane word ``k``
    packs bit ``k`` of each delta, delta ``d`` at bit position ``d``.
    Plane order in the output stream is MSB first (plane ``width`` down
    to plane 0) so that sign/exponent planes cluster at the front.
    """
    values = chunk_bits.astype(object)  # python ints: need width+1 bits
    deltas = [
        (int(values[i + 1]) - int(values[i])) & ((1 << (width + 1)) - 1)
        for i in range(len(values) - 1)
    ]
    nplanes = width + 1
    planes = np.zeros(nplanes, dtype=object)
    for d, delta in enumerate(deltas):
        for k in range(nplanes):
            if (delta >> k) & 1:
                planes[k] |= 1 << d
    # DBX: xor of adjacent DBP planes, walking from MSB down.
    dbx = np.zeros(nplanes, dtype=object)
    dbx[nplanes - 1] = planes[nplanes - 1]
    for k in range(nplanes - 2, -1, -1):
        dbx[k] = planes[k] ^ planes[k + 1]
    return dbx[::-1]  # MSB plane first


def _encode_planes(dbx: np.ndarray, plane_width: int) -> bytes:
    """Symbol-encode a sequence of DBX plane words."""
    out = bytearray()
    raw_bytes = (plane_width + 7) // 8
    i = 0
    n = len(dbx)
    while i < n:
        plane = int(dbx[i])
        if plane == 0:
            run = 1
            while i + run < n and int(dbx[i + run]) == 0 and run < 255:
                run += 1
            out.append(_SYM_ZERO_RUN)
            out.append(run)
            i += run
            continue
        all_ones = (1 << plane_width) - 1
        if plane == all_ones:
            out.append(_SYM_ALL_ONES)
        elif plane & (plane - 1) == 0:
            out.append(_SYM_SINGLE_ONE)
            out.append(plane.bit_length() - 1)
        elif _is_two_consecutive(plane):
            out.append(_SYM_TWO_ONES)
            out.append(plane.bit_length() - 2)
        else:
            out.append(_SYM_RAW)
            out += plane.to_bytes(raw_bytes, "little")
        i += 1
    return bytes(out)


def _is_two_consecutive(plane: int) -> bool:
    low = plane & -plane
    return plane == low | (low << 1)


def _decode_planes(data: bytes, offset: int, nplanes: int,
                   plane_width: int) -> tuple:
    """Inverse of :func:`_encode_planes`; returns ``(planes, next_offset)``."""
    raw_bytes = (plane_width + 7) // 8
    planes = []
    while len(planes) < nplanes:
        sym = data[offset]
        offset += 1
        if sym == _SYM_ZERO_RUN:
            run = data[offset]
            offset += 1
            planes.extend([0] * run)
        elif sym == _SYM_ALL_ONES:
            planes.append((1 << plane_width) - 1)
        elif sym == _SYM_SINGLE_ONE:
            planes.append(1 << data[offset])
            offset += 1
        elif sym == _SYM_TWO_ONES:
            planes.append(0b11 << data[offset])
            offset += 1
        elif sym == _SYM_RAW:
            plane = int.from_bytes(data[offset:offset + raw_bytes], "little")
            planes.append(plane)
            offset += raw_bytes
        else:
            raise ValueError(f"bad BPC plane symbol {sym:#x}")
    if len(planes) != nplanes:
        raise ValueError("BPC zero run overran plane count")
    return planes, offset


class BpcCodec(Codec):
    """Chunked Bit-Plane Compression with raw fallback per chunk."""

    name = "bpc"

    def __init__(self, chunk_elems: int = BPC_CHUNK) -> None:
        if chunk_elems < 2:
            raise ValueError("BPC chunks need at least 2 elements")
        self.chunk_elems = chunk_elems

    # -- encoding ---------------------------------------------------------

    def encode(self, values: np.ndarray) -> bytes:
        bits = as_unsigned_bits(values)
        width = 8 * bits.dtype.itemsize
        out = bytearray()
        for start in range(0, bits.size, self.chunk_elems):
            chunk = bits[start:start + self.chunk_elems]
            out += self._encode_chunk(chunk, width)
        return bytes(out)

    def _encode_chunk(self, chunk: np.ndarray, width: int) -> bytes:
        raw_payload = chunk.tobytes()
        if chunk.size < 2:
            return bytes([_FLAG_RAW]) + raw_payload
        base_bytes = int(chunk[0]).to_bytes(width // 8, "little")
        dbx = _dbx_planes(chunk, width)
        body = _encode_planes(dbx, plane_width=chunk.size - 1)
        compressed = bytes([_FLAG_COMPRESSED]) + base_bytes + body
        if len(compressed) >= 1 + len(raw_payload):
            return bytes([_FLAG_RAW]) + raw_payload
        return compressed

    def encoded_size(self, values: np.ndarray) -> int:
        return int(bpc_chunk_encoded_sizes(values, self.chunk_elems).sum())

    # -- decoding ---------------------------------------------------------

    def decode(self, data: bytes, count: int, dtype: np.dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        width = 8 * dtype.itemsize
        unsigned = np.dtype(f"u{dtype.itemsize}")
        out = np.empty(count, dtype=unsigned)
        offset = 0
        filled = 0
        while filled < count:
            n = min(self.chunk_elems, count - filled)
            chunk, offset = self._decode_chunk(data, offset, n, width, unsigned)
            out[filled:filled + n] = chunk
            filled += n
        return from_unsigned_bits(out, dtype)

    def _decode_chunk(self, data: bytes, offset: int, n: int, width: int,
                      unsigned: np.dtype) -> tuple:
        flag = data[offset]
        offset += 1
        item = width // 8
        if flag == _FLAG_RAW:
            chunk = np.frombuffer(data[offset:offset + n * item],
                                  dtype=unsigned).copy()
            return chunk, offset + n * item
        if flag != _FLAG_COMPRESSED:
            raise ValueError(f"bad BPC chunk flag {flag:#x}")
        base = int.from_bytes(data[offset:offset + item], "little")
        offset += item
        nplanes = width + 1
        dbx, offset = _decode_planes(data, offset, nplanes, plane_width=n - 1)
        # Undo DBX (MSB plane first) to recover DBP.
        dbp = [0] * nplanes
        dbp[0] = dbx[0]  # MSB
        for k in range(1, nplanes):
            dbp[k] = dbx[k] ^ dbp[k - 1]
        # dbp[0] is plane index `width`; re-index to plane k = bit k.
        planes = dbp[::-1]
        deltas = []
        for d in range(n - 1):
            delta = 0
            for k in range(nplanes):
                if (planes[k] >> d) & 1:
                    delta |= 1 << k
            deltas.append(delta)
        mask = (1 << width) - 1
        values = np.empty(n, dtype=unsigned)
        acc = base
        values[0] = acc & mask
        modulus = 1 << (width + 1)
        for d, delta in enumerate(deltas):
            acc = (acc + delta) % modulus
            values[d + 1] = acc & mask
        return values, offset


def bpc_chunk_encoded_sizes(values: np.ndarray,
                            chunk_elems: int = BPC_CHUNK) -> np.ndarray:
    """Exact encoded size of each BPC chunk, computed with vectorized numpy.

    Semantically identical to chunking ``values`` and measuring
    ``BpcCodec().encode`` per chunk, but runs in O(log chunk) numpy passes
    per chunk batch instead of per-bit python loops.  Used by the traffic
    model.
    """
    bits = as_unsigned_bits(values)
    width = 8 * bits.dtype.itemsize
    item = bits.dtype.itemsize
    if chunk_elems > 65:
        # Plane words no longer fit one uint64 lane set; use the exact
        # scalar encoder per chunk (rare: only ablations go this wide).
        codec = BpcCodec(chunk_elems)
        return np.array(
            [len(codec._encode_chunk(bits[s:s + chunk_elems], width))
             for s in range(0, bits.size, chunk_elems)], dtype=np.int64)
    sizes = []
    full = (bits.size // chunk_elems) * chunk_elems
    if full:
        table = bits[:full].reshape(-1, chunk_elems).astype(np.uint64)
        sizes.append(_batch_chunk_sizes(table, width, item))
    tail = bits[full:]
    if tail.size:
        tail_size = len(BpcCodec(chunk_elems)._encode_chunk(tail, width))
        sizes.append(np.array([tail_size], dtype=np.int64))
    if not sizes:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(sizes)


def _batch_chunk_sizes(table: np.ndarray, width: int, item: int) -> np.ndarray:
    """Exact :meth:`BpcCodec._encode_chunk` sizes for a (nchunks, chunk) table.

    Never builds plane words.  DBX plane ``k`` of a chunk is bit ``k`` of
    ``x_d = delta_d ^ (delta_d >> 1)`` across its deltas ``d``, where
    ``delta_d`` is the wrapped ``width + 1``-bit delta.  For 64-bit
    elements, bit 64 of ``(b - a) mod 2^65`` is set exactly when
    ``b < a`` (the borrow of the 64-bit subtraction); that plane rides in
    a second mask word.  A plane's symbol follows from how many deltas
    set its bit, so bit-sliced column counts classify every plane of
    every chunk at once:

    * zero: set by no delta;
    * all-ones: set in the AND of every ``x_d``;
    * single bit: set exactly once;
    * two adjacent bits: set exactly twice, and in the OR of
      ``x_d & x_{d+1}``;
    * raw: anything else.

    Popcounts of those per-plane masks give the symbol bytes; zero runs
    are counted at their lowest plane (a zero plane whose next-lower
    plane is not zero), and with at most 65 planes no run reaches the
    255-plane limit of its length byte.  ``tests/test_compression_codecs.py`` checks
    this against the scalar encoder chunk by chunk.
    """
    chunk = table.shape[1]
    raw_bytes = (chunk - 1 + 7) // 8  # one plane holds chunk - 1 bits
    diff = table[:, 1:] - table[:, :-1]
    if width < 64:
        delta = diff & np.uint64((1 << (width + 1)) - 1)
        x = (delta ^ (delta >> np.uint64(1)))[:, :, None]
        valid = np.array([(1 << (width + 1)) - 1], dtype=np.uint64)
    else:
        borrow = (table[:, 1:] < table[:, :-1]).astype(np.uint64)
        low = diff ^ (diff >> np.uint64(1)) ^ (borrow << np.uint64(63))
        x = np.stack([low, borrow], axis=2)
        valid = np.array([0xFFFFFFFFFFFFFFFF, 1], dtype=np.uint64)
    # x: (nchunks, deltas, words); every mask below is (nchunks, words).
    ones = np.bitwise_and.reduce(x, axis=1)
    pair = np.bitwise_or.reduce(x[:, 1:] & x[:, :-1], axis=1)
    c1, c2, c3 = _column_counts(x)
    single = c1 & ~c2 & ~ones
    two = c2 & ~c3 & pair & ~ones
    raw = c1 & ~(ones | single | two)
    zero = ~c1 & valid
    below = zero << np.uint64(1)
    below[:, 1:] |= zero[:, :-1] >> np.uint64(63)
    runs = zero & ~below

    def count(mask: np.ndarray) -> np.ndarray:
        return np.bitwise_count(mask).sum(axis=1, dtype=np.int64)

    body = count(ones) + 2 * count(single | two) \
        + (1 + raw_bytes) * count(raw) + 2 * count(runs)
    return np.minimum(1 + item + body, 1 + chunk * item)


def _column_counts(x: np.ndarray) -> tuple:
    """Per-bit "set in >= 1, >= 2, >= 3 rows of axis 1" masks of ``x``.

    A saturating bit-sliced counter, reduced pairwise over axis 1 so it
    takes log2(columns) passes.  Zero padding to a power of two leaves
    every count unchanged.
    """
    ncols = x.shape[1]
    padded = 1 << max(0, ncols - 1).bit_length()
    if padded != ncols:
        pad = np.zeros((x.shape[0], padded - ncols, x.shape[2]),
                       dtype=x.dtype)
        x = np.concatenate([x, pad], axis=1)
    c1, c2, c3 = x, np.zeros_like(x), np.zeros_like(x)
    while c1.shape[1] > 1:
        a1, b1 = c1[:, 0::2], c1[:, 1::2]
        a2, b2 = c2[:, 0::2], c2[:, 1::2]
        c3 = c3[:, 0::2] | c3[:, 1::2] | (a2 & b1) | (a1 & b2)
        c2 = a2 | b2 | (a1 & b1)
        c1 = a1 | b1
    return c1[:, 0], c2[:, 0], c3[:, 0]
