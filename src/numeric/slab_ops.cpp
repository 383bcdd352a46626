#include "numeric/slab_ops.h"

#include <cstring>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace fpraker {
namespace slab {

const char *
simdLevel()
{
#ifdef __SSE2__
    return "sse2";
#else
    return "scalar";
#endif
}

void
countTerms(const BFloat16 *values, size_t n, const uint8_t counts[256],
           uint64_t *zeros, uint64_t *terms)
{
    uint64_t z = 0, t = 0;
    for (size_t i = 0; i < n; ++i) {
        const BFloat16 v = values[i];
        if (v.isZero()) {
            z += 1;
            continue;
        }
        t += counts[v.significand()];
    }
    *zeros += z;
    *terms += t;
}

void
packBf16Scalar(const int16_t *biased_exp, const uint8_t *man,
               const uint8_t *neg, size_t n, BFloat16 *out)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = BFloat16::fromBits(static_cast<uint16_t>(
            (neg[i] ? 0x8000u : 0u) |
            (static_cast<unsigned>(biased_exp[i] & 0xff) << 7) |
            (man[i] & 0x7fu)));
}

void
packBf16(const int16_t *biased_exp, const uint8_t *man,
         const uint8_t *neg, size_t n, BFloat16 *out)
{
    size_t i = 0;
#ifdef __SSE2__
    const __m128i vzero = _mm_setzero_si128();
    for (; i + 8 <= n; i += 8) {
        __m128i e, m8, s8;
        std::memcpy(&e, biased_exp + i, 16);
        m8 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(man + i));
        s8 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(neg + i));
        const __m128i m16 = _mm_unpacklo_epi8(m8, vzero);
        const __m128i s16 = _mm_unpacklo_epi8(s8, vzero);
        const __m128i bits = _mm_or_si128(
            _mm_or_si128(
                _mm_slli_epi16(_mm_and_si128(e, _mm_set1_epi16(0xff)),
                               7),
                _mm_and_si128(m16, _mm_set1_epi16(0x7f))),
            _mm_slli_epi16(s16, 15));
        std::memcpy(static_cast<void *>(out + i), &bits, 16);
    }
#endif
    if (i < n)
        packBf16Scalar(biased_exp + i, man + i, neg + i, n - i,
                       out + i);
}

} // namespace slab
} // namespace fpraker
