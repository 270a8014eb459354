/* Compiled kernels of the codecs: the interleaved order-0 rANS coder
   (rans.py), the order-1 rANS coder (rans_ctx.py), the byte and bigram
   histogram behind both rANS models, the LSB-first bit packer (numeric.py,
   lz.py), the LZ match finder, greedy parse and sequence expansion (lz.py)
   and the FSST greedy longest-match encode and decode (fsst.py). native.py
   builds this file once per source hash and loads it with cffi; the Python
   wrappers own allocation and turn a negative return into CodecError.

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

/* Byte histogram of d[0..n) for the rANS models (rans.py, rans_ctx.py):
   c1[b] counts byte value b; with c2 given, c2[a << 8 | b] counts the
   positions i >= 1 with d[i-1] == a and d[i] == b, and c1 is summed from
   it. Both are overwritten. */
void byte_hist(const uint8_t *d, int64_t n, int64_t *c1, int64_t *c2)
{
    memset(c1, 0, 256 * sizeof *c1);
    if (!c2) {
        for (int64_t i = 0; i < n; i++) c1[d[i]]++;
        return;
    }
    memset(c2, 0, 65536 * sizeof *c2);
    for (int64_t i = 1; i < n; i++) c2[d[i - 1] << 8 | d[i]]++;
    if (n) c1[d[0]]++;
    for (int a = 0; a < 256; a++)
        for (int b = 0; b < 256; b++) c1[b] += c2[a << 8 | b];
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
#define POS_BITS 24  /* lz.py cuts inputs into segments of fewer positions */
#define POS_MASK ((1ull << POS_BITS) - 1)
#define SLOT_EMPTY UINT64_MAX

static int bitlen(uint64_t v) { return 64 - __builtin_clzll(v); }

/* The 40-bit 6-gram and 16-gram hashes of the 8-byte packs at i and i + 8. */
INLINE uint64_t hash6(uint64_t g)
{
    return ((g & 0xFFFFFFFFFFFFull) * 0x9E3779B97F4A7C15ull) >> 24;
}

INLINE uint64_t hash16(uint64_t g, uint64_t g_next)
{
    return ((g * 0x9E3779B97F4A7C15ull) ^ (g_next * 0xC2B2AE3D27D4EB4Full)) >> 24;
}

/* Open-addressing table of cap slots, each hash << 24 | latest position or
   SLOT_EMPTY, keyed by the full 40-bit hash, probed linearly from the
   hash's share of cap. */
INLINE uint64_t *slot_of(uint64_t *tab, uint64_t cap, uint64_t h)
{
    return tab + (((h >> 8) * cap) >> 32);
}

#define BATCH 32

/* Positions i0, i0 + stride, ... with hashes h[0..nb): out[i] gets the
   position stored under the same hash before (-1: none) and i replaces
   it. The slots are prefetched first, so their cache misses overlap. */
INLINE void swap_latest(uint64_t *tab, uint64_t cap, const uint64_t *h, int64_t nb,
                        int64_t i0, int64_t stride, int32_t *out)
{
    for (int64_t b = 0; b < nb; b++) __builtin_prefetch(slot_of(tab, cap, h[b]), 1);
    for (int64_t b = 0; b < nb; b++) {
        uint64_t *e = slot_of(tab, cap, h[b]);
        int64_t i = i0 + b * stride;
        while (*e != SLOT_EMPTY && *e >> POS_BITS != h[b])
            if (++e == tab + cap) e = tab;
        out[i] = *e == SLOT_EMPTY ? -1 : (int32_t)(*e & POS_MASK);
        *e = h[b] << POS_BITS | (uint64_t)i;
    }
}

/* Match candidates of d[0..n), n < 2^24, for lz_parse: g8 gets the
   n6 = max(n - 7, 0) little-endian 8-byte packs, c6 (n6 entries) and c16
   (n16 = max(n6 - 8, 0) entries) the nearest earlier stride-aligned
   position with the same 40-bit 6-gram / 16-gram hash, -1 for none and at
   every position that is not a multiple of stride. The two tables are
   built one after the other in one allocation of 2m + 1 slots, m the
   number of aligned positions: 8 bytes per position per table, a load of
   at most one half. Returns 0, or -4 if out of memory. */
int lz_candidates(const uint8_t *d, int64_t n, int64_t stride, uint64_t *g8,
                  int32_t *c6, int32_t *c16)
{
    int64_t n6 = n > 7 ? n - 7 : 0, n16 = n6 > 8 ? n6 - 8 : 0;
    uint64_t cap = 2 * (uint64_t)((n6 + stride - 1) / stride) + 1, h[BATCH];
    uint64_t *tab = malloc(cap * sizeof *tab);
    if (!tab) return -4;
    for (int64_t i = 0; i < n6; i++) g8[i] = load_le64(d + i, 8);
    memset(tab, 0xFF, cap * sizeof *tab);
    for (int64_t i = 0; i < n6; i++) c6[i] = -1;
    for (int64_t i0 = 0; i0 < n6; i0 += BATCH * stride) {
        int64_t nb = 0;
        for (int64_t i = i0; i < n6 && nb < BATCH; i += stride) h[nb++] = hash6(g8[i]);
        swap_latest(tab, cap, h, nb, i0, stride, c6);
    }
    memset(tab, 0xFF, cap * sizeof *tab);
    for (int64_t i = 0; i < n16; i++) c16[i] = -1;
    for (int64_t i0 = 0; i0 < n16; i0 += BATCH * stride) {
        int64_t nb = 0;
        for (int64_t i = i0; i < n16 && nb < BATCH; i += stride)
            h[nb++] = hash16(g8[i], g8[i + 8]);
        swap_latest(tab, cap, h, nb, i0, stride, c16);
    }
    free(tab);
    return 0;
}

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

/* ---------------------------------------------------------------- FSST */

#define FSST_ESCAPE 255

/* A table holds nsym <= 255 symbols; symbol s is lens[s] (1..8) bytes,
   stored zero-padded in syms[8s..8s+8). Code 255 is the escape. */

INLINE uint64_t sym_mask(int len)
{
    return len >= 8 ? ~(uint64_t)0 : ((uint64_t)1 << (8 * len)) - 1;
}

/* Greedy longest-match encode of d[0..n): at each position emit the code
   of the longest symbol that matches there and step over it, or the
   escape, with the byte going to the literal stream. Of equal symbols the
   lowest code wins. Symbols of two or more bytes are bucketed by their
   first two bytes, longest first; one-byte symbols have a byte table.
   codes and lits need room for n bytes each. Returns the number of codes
   and sets *nlit. */
int64_t fsst_encode(const uint8_t *d, int64_t n, const uint8_t *syms,
                    const uint8_t *lens, int64_t nsym, uint8_t *codes,
                    uint8_t *lits, int64_t *nlit)
{
    int one[256];
    uint32_t key[255];   /* prefix << 16 | (8 - len) << 8 | code, sorted */
    uint64_t val[255];
    uint8_t first[65536]; /* 1 + index of the bucket's first entry, 0: none */
    int64_t nm = 0;
    for (int b = 0; b < 256; b++) one[b] = -1;
    for (int64_t s = nsym - 1; s >= 0; s--)
        if (lens[s] == 1) one[syms[8 * s]] = (int)s;
    for (int64_t s = 0; s < nsym; s++) {
        if (lens[s] < 2) continue;
        uint32_t k = (uint32_t)(syms[8 * s] | syms[8 * s + 1] << 8) << 16
                     | (uint32_t)(8 - lens[s]) << 8 | (uint32_t)s;
        int64_t j = nm++;
        for (; j > 0 && key[j - 1] > k; j--) key[j] = key[j - 1];
        key[j] = k;
    }
    memset(first, 0, sizeof first);
    for (int64_t j = nm - 1; j >= 0; j--) {
        val[j] = load_le64(syms + 8 * (key[j] & 0xFF), 8);
        first[key[j] >> 16] = (uint8_t)(j + 1);
    }
    int64_t i = 0, nc = 0, nl = 0;
    while (i < n) {
        int64_t avail = n - i;
        uint64_t w = load_le64(d + i, avail);
        int code = -1, len = 1;
        if (avail >= 2) {
            uint32_t pre = (uint32_t)(w & 0xFFFF);
            for (int64_t j = (int64_t)first[pre] - 1; j >= 0 && j < nm && key[j] >> 16 == pre; j++) {
                int L = 8 - (int)(key[j] >> 8 & 0xFF);
                if (L <= avail && !((w ^ val[j]) & sym_mask(L))) {
                    code = (int)(key[j] & 0xFF);
                    len = L;
                    break;
                }
            }
        }
        if (code < 0) code = one[d[i]];
        if (code >= 0) {
            codes[nc++] = (uint8_t)code;
            i += len;
        } else {
            codes[nc++] = FSST_ESCAPE;
            lits[nl++] = d[i++];
        }
    }
    *nlit = nl;
    return nc;
}

/* Expand ncodes codes through the table, each escape taking the next
   literal. With out == NULL only checks and measures; otherwise out needs
   room for the decoded length plus 8 bytes. Returns the decoded length,
   -1 if a code is neither the escape nor below nsym, -2 if the escapes
   do not take exactly nlit literals. */
int64_t fsst_decode(const uint8_t *codes, int64_t ncodes, const uint8_t *lits,
                    int64_t nlit, const uint8_t *syms, const uint8_t *lens,
                    int64_t nsym, uint8_t *out)
{
    int64_t o = 0, lp = 0;
    for (int64_t k = 0; k < ncodes; k++) {
        uint8_t c = codes[k];
        if (c == FSST_ESCAPE) {
            if (lp >= nlit) return -2;
            if (out) out[o] = lits[lp];
            lp++;
            o++;
        } else {
            if (c >= nsym) return -1;
            if (out) memcpy(out + o, syms + 8 * c, 8);
            o += lens[c];
        }
    }
    return lp == nlit ? o : -2;
}
