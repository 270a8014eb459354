/* Compiled kernels of the codecs: the interleaved order-0 rANS coder
   (rans.py), the order-1 rANS coder (rans_ctx.py), the LSB-first bit packer
   (numeric.py, lz.py) and the LZ greedy parse and sequence expansion
   (lz.py). native.py builds this file once per source hash and loads it with
   cffi; the Python wrappers own allocation and turn a negative return into
   CodecError.

   rANS layout: symbol i goes to lane i % N at step i / N. The decoder runs
   i = 0..n-1 and refills from one shared little-endian u16 stream; the
   encoder runs i = n-1..0 (steps T-1..0, lanes descending) and writes its
   words backwards from out + 2n, so the stream reads forward. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define RANS_L (1u << 16)
#define INLINE static inline __attribute__((always_inline))

INLINE uint64_t load_le64(const uint8_t *b, int64_t avail)
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

/* Order-1 rANS (rans_ctx.py), 12-bit tables. Lane k owns the contiguous
   positions [kT, (k+1)T), T = ceil(n/N); at step t it codes position kT+t
   with the table of class cls[previous byte], or class 0 at t == 0. freq is
   a 16 x A row-major table; every row sums to 4096 or is all zero. The
   u16 words of one step are read in ascending lane order, so the encoder
   (steps T-1..0, lanes descending, words written backwards from out + 2n)
   is the exact time reversal of the decoder. */
#define CTX_CLASSES 16
#define CTX_BITS 12

/* Same returns as rans_encode. */
int64_t rans1_encode(const uint8_t *sym, int64_t n, int64_t N,
                     const uint8_t *cls, const uint32_t *freq, int64_t A,
                     uint32_t *states, uint8_t *out)
{
    int64_t T = (n + N - 1) / N;
    uint8_t *p = out + 2 * n;
    uint32_t *start = malloc(CTX_CLASSES * A * sizeof *start);
    if (!start) return -4;
    for (int64_t c = 0; c < CTX_CLASSES; c++) {
        uint32_t acc = 0;
        for (int64_t s = 0; s < A; s++) {
            start[c * A + s] = acc;
            acc += freq[c * A + s];
        }
    }
    for (int64_t k = 0; k < N; k++) states[k] = RANS_L;
    for (int64_t t = T - 1; t >= 0; t--) {
        for (int64_t k = N - 1; k >= 0; k--) {
            int64_t i = k * T + t;
            if (i >= n) continue;
            int64_t row = t ? (int64_t)(cls[sym[i - 1]] & 15) * A : 0;
            if (sym[i] >= A || freq[row + sym[i]] == 0) { free(start); return -1; }
            uint32_t f = freq[row + sym[i]], x = states[k];
            if (x >= (f << (32 - CTX_BITS))) {
                *--p = (uint8_t)(x >> 8);
                *--p = (uint8_t)x;
                x >>= 16;
            }
            states[k] = ((x / f) << CTX_BITS) + x % f + start[row + sym[i]];
        }
    }
    free(start);
    return (out + 2 * n - p) / 2;
}

/* Same returns as rans_decode; -1 also when a position's class has an
   all-zero row. */
int rans1_decode(const uint8_t *stream, int64_t nbytes, uint32_t *states,
                 int64_t N, int64_t n, const uint8_t *cls,
                 const uint32_t *freq, int64_t A, uint8_t *out)
{
    const uint32_t M = 1u << CTX_BITS, mask = M - 1;
    int64_t T = (n + N - 1) / N, ptr = 0, nwords = nbytes / 2;
    int rc = 0;
    uint32_t *start = malloc(CTX_CLASSES * A * sizeof *start);
    uint8_t *slot2sym = malloc(CTX_CLASSES * M);
    uint8_t *ctx = calloc(N, 1), live[CTX_CLASSES];
    if (!start || !slot2sym || !ctx) { rc = -4; goto done; }
    for (int64_t c = 0; c < CTX_CLASSES; c++) {
        uint32_t pos = 0;
        for (int64_t s = 0; s < A; s++) {
            uint32_t f = freq[c * A + s];
            if (f > M - pos) { rc = -1; goto done; }
            start[c * A + s] = pos;
            memset(slot2sym + c * M + pos, (int)s, f);
            pos += f;
        }
        if (pos != M && pos != 0) { rc = -1; goto done; }
        live[c] = pos == M;
    }
    for (int64_t t = 0; t < T; t++) {
        for (int64_t k = 0; k < N; k++) {
            int64_t i = k * T + t;
            if (i >= n) break;
            uint32_t c = ctx[k], x = states[k];
            if (!live[c]) { rc = -1; goto done; }
            uint32_t s = slot2sym[c * M + (x & mask)];
            out[i] = (uint8_t)s;
            x = freq[c * A + s] * (x >> CTX_BITS) + (x & mask) - start[c * A + s];
            if (x < RANS_L) {
                if (ptr >= nwords) { rc = -2; goto done; }
                x = (x << 16) | stream[2 * ptr] | (uint32_t)stream[2 * ptr + 1] << 8;
                ptr++;
            }
            states[k] = x;
            ctx[k] = cls[s] & 15;
        }
    }
    if (2 * ptr != nbytes) rc = -3;
    for (int64_t k = 0; k < N && !rc; k++)
        if (states[k] != RANS_L) rc = -3;
done:
    free(start);
    free(slot2sym);
    free(ctx);
    return rc;
}

/* LSB-first bit packing: value i takes the next widths[i] bits (or `width`
   bits each when widths is NULL), bit j of byte k being bit 8k+j of the
   stream; bits of a value at or above its width are dropped. The loops are
   inlined twice, so the constant-width case folds its width out of them. */

/* Total bits, or -1 if a width is outside 0..64. */
static int64_t total_bits(int64_t n, const int64_t *widths, int width)
{
    if (!widths) return width < 0 || width > 64 ? -1 : n * width;
    int64_t total = 0;
    for (int64_t i = 0; i < n; i++) {
        if (widths[i] < 0 || widths[i] > 64) return -1;
        total += widths[i];
    }
    return total;
}

INLINE uint64_t mask_of(int64_t w)
{
    return w == 64 ? ~0ull : (1ull << w) - 1;
}

INLINE void pack_loop(const uint64_t *v, int64_t n, const int64_t *widths,
                      int width, uint8_t *out)
{
    uint64_t acc = 0, mask = mask_of(width);
    int bits = 0;
    for (int64_t i = 0; i < n; i++) {
        int w = widths ? (int)widths[i] : width;
        uint64_t x = v[i] & (widths ? mask_of(w) : mask);
        int tot = bits + w;
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

INLINE void unpack_loop(const uint8_t *buf, int64_t nbytes, int64_t n,
                        const int64_t *widths, int width, uint64_t *out)
{
    uint64_t bit = 0, mask = mask_of(width);
    for (int64_t i = 0; i < n; i++) {
        int w = widths ? (int)widths[i] : width;
        int64_t byte = bit >> 3;
        int sh = bit & 7;
        uint64_t x = load_le64(buf + byte, nbytes - byte) >> sh;
        if (sh + w > 64) x |= (uint64_t)buf[byte + 8] << (64 - sh);
        out[i] = x & (widths ? mask_of(w) : mask);
        bit += w;
    }
}

/* out holds ceil(total bits / 8) bytes. Returns -1 on a width outside
   0..64. */
int pack_bits(const uint64_t *v, int64_t n, const int64_t *widths, int width,
              uint8_t *out)
{
    if (total_bits(n, widths, width) < 0) return -1;
    if (widths) pack_loop(v, n, widths, 0, out);
    else pack_loop(v, n, NULL, width, out);
    return 0;
}

/* Inverse of pack_bits; bytes past the last value are ignored. -1 on a
   width outside 0..64, -2 if buf ends before the last value. */
int unpack_bits(const uint8_t *buf, int64_t nbytes, int64_t n,
                const int64_t *widths, int width, uint64_t *out)
{
    int64_t total = total_bits(n, widths, width);
    if (total < 0) return -1;
    if (total > 8 * nbytes) return -2;
    if (widths) unpack_loop(buf, nbytes, n, widths, 0, out);
    else unpack_loop(buf, nbytes, n, NULL, width, out);
    return 0;
}

/* ------------------------------------------------------------------ LZ */

#define MIN_MATCH 5

static int bitlen(uint64_t v) { return 64 - __builtin_clzll(v); }

/* Length of the common prefix of d[j..n) and d[c..n), c < j, given that
   the first L bytes are known to match. */
static int64_t extend(const uint8_t *d, int64_t c, int64_t j, int64_t L, int64_t n)
{
    int64_t limit = n - j;
    while (L + 8 <= limit) {
        uint64_t x = load_le64(d + j + L, 8) ^ load_le64(d + c + L, 8);
        if (x) return L + (__builtin_ctzll(x) >> 3);
        L += 8;
    }
    while (L < limit && d[j + L] == d[c + L]) L++;
    return L;
}

/* Match length at j against candidate c, from the little-endian 8-byte
   packs g8: their xor names the first mismatching byte directly. */
static int64_t probe6(const uint8_t *d, int64_t n, const uint64_t *g8, int64_t c, int64_t j)
{
    uint64_t x = g8[j] ^ g8[c];
    return x ? __builtin_ctzll(x) >> 3 : extend(d, c, j, 8, n);
}

static int64_t probe16(const uint8_t *d, int64_t n, const uint64_t *g8, int64_t c, int64_t j)
{
    uint64_t x = g8[j] ^ g8[c];
    if (x) return __builtin_ctzll(x) >> 3;
    x = g8[j + 8] ^ g8[c + 8];
    return x ? 8 + (__builtin_ctzll(x) >> 3) : extend(d, c, j, 16, n);
}

/* Greedy parse of d[0..n) into (literal run, match) sequences. c6[j] and
   c16[j] are the nearest earlier positions with the same 6-gram and 16-gram
   hash (-1: none); n6 = n - 7 and n16 = max(n - 15, 0) are their sizes, and
   g8 holds the n6 little-endian 8-byte packs. At each position with a
   6-gram candidate: probe the 16-gram candidate first; below 64 bytes also
   the 6-gram candidate, and below 24 bytes one more hop along the 6-gram
   chain; keep the best by net bit gain 8*L - bitlen(offset). A match is
   taken when it is at least 5, 6 or 8 bytes long for offsets below 2^14,
   below 2^20 and beyond; otherwise the scan moves one byte on.
   Writes ll/ml/of (capacity n / MIN_MATCH + 1) and the literal bytes;
   returns the number of sequences and sets *nlit. */
int64_t lz_parse(const uint8_t *d, int64_t n, const uint64_t *g8,
                 const int32_t *c6, int64_t n6, const int32_t *c16, int64_t n16,
                 int32_t *ll, int32_t *ml, int32_t *of, uint8_t *lits,
                 int64_t *nlit)
{
    int64_t S = 0, nl = 0, anchor = 0;
    for (int64_t j = 0; j < n6; j++) {
        if (c6[j] < 0) continue;
        int64_t L = 0, c = -1, score = INT64_MIN;
        if (j < n16 && c16[j] >= 0) {
            c = c16[j];
            L = probe16(d, n, g8, c, j);
            score = 8 * L - bitlen(j - c);
        }
        if (L < 64) {
            int64_t c1 = c6[j];
            if (c1 != c) {
                int64_t L1 = probe6(d, n, g8, c1, j), s1 = 8 * L1 - bitlen(j - c1);
                if (s1 > score) { c = c1; L = L1; score = s1; }
            }
            int64_t cc = c6[c1];  /* one hop along the 6-gram chain */
            if (L < 24 && cc >= 0 && cc != c) {
                int64_t L2 = probe6(d, n, g8, cc, j), s2 = 8 * L2 - bitlen(j - cc);
                if (s2 > score) { c = cc; L = L2; score = s2; }
            }
        }
        int64_t off = j - c;
        /* far matches must be longer to pay for their offset extra bits */
        int64_t min_l = off < 1 << 14 ? MIN_MATCH : off < 1 << 20 ? 6 : 8;
        if (L < min_l) continue;
        ll[S] = (int32_t)(j - anchor);
        ml[S] = (int32_t)L;
        of[S] = (int32_t)off;
        S++;
        memcpy(lits + nl, d + anchor, j - anchor);
        nl += j - anchor;
        anchor = j + L;
        j = anchor - 1;
    }
    memcpy(lits + nl, d + anchor, n - anchor);
    *nlit = nl + n - anchor;
    return S;
}

/* Rebuild out[0..n) from S sequences and the literal bytes: each sequence
   copies ll[s] literals, then ml[s] bytes from of[s] back (overlapping when
   of[s] < ml[s]); the literals left over form the tail. Returns 0, -1 if a
   sequence reaches outside out or the literals or its offset points before
   the start of out, -2 if the literals left over do not fill the tail. */
int lz_expand(const int64_t *ll, const int64_t *ml, const int64_t *of,
              int64_t S, const uint8_t *lits, int64_t nlit, uint8_t *out,
              int64_t n)
{
    int64_t o = 0, lp = 0;
    for (int64_t s = 0; s < S; s++) {
        int64_t l = ll[s], m = ml[s], f = of[s];
        if (l < 0 || l > n - o || l > nlit - lp) return -1;
        memcpy(out + o, lits + lp, l);
        o += l;
        lp += l;
        if (m < 0 || m > n - o || f < 1 || f > o) return -1;
        if (f >= m) {
            memcpy(out + o, out + o - f, m);
        } else {
            for (int64_t k = 0; k < m; k++) out[o + k] = out[o + k - f];
        }
        o += m;
    }
    if (n - o != nlit - lp) return -2;
    memcpy(out + o, lits + lp, n - o);
    return 0;
}
