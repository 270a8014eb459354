/* Compiled kernels of the interleaved static rANS coder (rans.py) and of the
   LSB-first bit packer (numeric.py). native.py builds this file once per
   source hash and loads it with cffi; the Python wrappers own allocation and
   turn a negative return into CodecError.

   rANS layout: symbol i goes to lane i % N at step i / N. The decoder runs
   i = 0..n-1 and refills from one shared little-endian u16 stream; the
   encoder runs i = n-1..0 (steps T-1..0, lanes descending) and writes its
   words backwards from out + 2n, so the stream reads forward. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define RANS_L (1u << 16)

/* Returns the number of u16 words, which end at out + 2n; -1 if a symbol
   has no slot in freq, -4 if out of memory. */
int64_t rans_encode(const void *sym, int sym_bytes, int64_t n, int64_t N,
                    const uint32_t *freq, int64_t A, int prob_bits,
                    uint32_t *states, uint8_t *out)
{
    const uint8_t *s8 = sym;
    const uint16_t *s16 = sym;
    uint8_t *p = out + 2 * n;
    uint32_t *start = malloc((A + 1) * sizeof *start), acc = 0;
    if (!start) return -4;
    for (int64_t s = 0; s < A; s++) { start[s] = acc; acc += freq[s]; }
    for (int64_t k = 0; k < N; k++) states[k] = RANS_L;
    for (int64_t i = n - 1, lane = (n - 1) % N; i >= 0; i--) {
        uint32_t s = sym_bytes == 1 ? s8[i] : s16[i];
        if (s >= A || freq[s] == 0) { free(start); return -1; }
        uint32_t f = freq[s], x = states[lane];
        if (x >= (f << (32 - prob_bits))) {
            *--p = (uint8_t)(x >> 8);
            *--p = (uint8_t)x;
            x >>= 16;
        }
        states[lane] = ((x / f) << prob_bits) + x % f + start[s];
        lane = lane ? lane - 1 : N - 1;
    }
    free(start);
    return (out + 2 * n - p) / 2;
}

/* 0 on success; -1 bad frequency table, -2 stream overrun, -3 stream not
   consumed exactly or a lane not back at RANS_L (the encoder's start),
   -4 out of memory. */
int rans_decode(const uint8_t *stream, int64_t nbytes, uint32_t *states,
                int64_t N, int64_t n, const uint32_t *freq, int64_t A,
                int prob_bits, uint16_t *out)
{
    uint32_t M = 1u << prob_bits, mask = M - 1, pos = 0;
    uint32_t *start = malloc((A + 1) * sizeof *start);
    uint16_t *slot2sym = malloc(M * sizeof *slot2sym);
    int rc = 0;
    if (!start || !slot2sym) { rc = -4; goto done; }
    for (int64_t s = 0; s < A; s++) {
        if (freq[s] > M - pos || (freq[s] && s > 0xFFFF)) { rc = -1; goto done; }
        start[s] = pos;
        for (uint32_t j = 0; j < freq[s]; j++) slot2sym[pos++] = (uint16_t)s;
    }
    if (pos != M) { rc = -1; goto done; }
    int64_t ptr = 0, nwords = nbytes / 2;
    for (int64_t i = 0, lane = 0; i < n; i++) {
        uint32_t x = states[lane], s = slot2sym[x & mask];
        out[i] = (uint16_t)s;
        x = freq[s] * (x >> prob_bits) + (x & mask) - start[s];
        if (x < RANS_L) {
            if (ptr >= nwords) { rc = -2; goto done; }
            x = (x << 16) | stream[2 * ptr] | (uint32_t)stream[2 * ptr + 1] << 8;
            ptr++;
        }
        states[lane] = x;
        lane = lane + 1 == N ? 0 : lane + 1;
    }
    if (2 * ptr != nbytes) rc = -3;
    for (int64_t k = 0; k < N && !rc; k++)
        if (states[k] != RANS_L) rc = -3;
done:
    free(start);
    free(slot2sym);
    return rc;
}

static uint64_t load_le64(const uint8_t *b, int64_t avail)
{
    uint64_t v = 0;
    if (avail >= 8) {
        memcpy(&v, b, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        v = __builtin_bswap64(v);
#endif
        return v;
    }
    for (int64_t k = 0; k < avail; k++) v |= (uint64_t)b[k] << (8 * k);
    return v;
}

/* Value i takes bits [i*width, (i+1)*width) of out, bit j of byte k being
   bit 8k+j; out holds ceil(n*width/8) bytes. 1 <= width <= 64. */
void pack_uints(const uint64_t *v, int64_t n, int width, uint8_t *out)
{
    uint64_t mask = width == 64 ? ~0ull : (1ull << width) - 1, acc = 0;
    int bits = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t x = v[i] & mask;
        int tot = bits + width;
        acc |= x << bits;
        if (tot >= 64) {
            for (int k = 0; k < 8; k++) *out++ = (uint8_t)(acc >> (8 * k));
            acc = bits ? x >> (64 - bits) : 0;
            tot -= 64;
        }
        for (; tot >= 8; tot -= 8, acc >>= 8) *out++ = (uint8_t)acc;
        bits = tot;
    }
    if (bits) *out = (uint8_t)acc;
}

/* Inverse of pack_uints; -1 if buf is shorter than ceil(n*width/8). */
int unpack_uints(const uint8_t *buf, int64_t nbytes, int64_t n, int width,
                 uint64_t *out)
{
    uint64_t mask = width == 64 ? ~0ull : (1ull << width) - 1, bit = 0;
    if (nbytes < (n * width + 7) / 8) return -1;
    for (int64_t i = 0; i < n; i++, bit += width) {
        int64_t byte = bit >> 3;
        int sh = bit & 7;
        uint64_t x = load_le64(buf + byte, nbytes - byte) >> sh;
        if (sh + width > 64) x |= (uint64_t)buf[byte + 8] << (64 - sh);
        out[i] = x & mask;
    }
    return 0;
}
