/**
 * @file
 * Batched (slab-grain) operand kernels.
 *
 * The simulator's data-supply path — synthesizing operand values and
 * classifying them through the term LUT — used to run value-at-a-time
 * scalar loops. These helpers operate on whole slabs instead: a flat
 * run of bfloat16 values (one phase burst's A or B operands, a whole
 * benchmark workload).
 *
 * Each op has one body, chosen at compile time. countTerms is a plain
 * scalar loop over the 256-entry term-count LUT. packBf16 uses SSE2
 * when the compiler targets it (always on x86-64, where SSE2 is part
 * of the base ISA) and packBf16Scalar otherwise; both are
 * integer-exact over the same bit patterns, so the build can never
 * change a result. tests/test_fastpath.cpp pins both ops against
 * per-value references.
 */

#ifndef FPRAKER_NUMERIC_SLAB_OPS_H
#define FPRAKER_NUMERIC_SLAB_OPS_H

#include <cstddef>
#include <cstdint>

#include "numeric/bfloat16.h"

namespace fpraker {
namespace slab {

/** The packBf16 body compiled into this build: "sse2" or "scalar". */
const char *simdLevel();

/**
 * Count zero values and total encoded terms over a value slab.
 * @p counts is a 256-entry per-significand term-count table (use
 * TermLut::countsTable()); counts[0] must be 0 so zero values add no
 * terms. Adds to *zeros / *terms.
 */
void countTerms(const BFloat16 *values, size_t n,
                const uint8_t counts[256], uint64_t *zeros,
                uint64_t *terms);

/**
 * Assemble bfloat16 bit patterns from SoA field planes:
 * out[i] = neg[i]<<15 | (biased_exp[i] & 0xff)<<7 | (man[i] & 0x7f).
 * A zero value is represented as all-zero planes. @p neg entries are
 * 0 or 1.
 */
void packBf16(const int16_t *biased_exp, const uint8_t *man,
              const uint8_t *neg, size_t n, BFloat16 *out);

/** Portable packBf16 body: the reference for differential tests. */
void packBf16Scalar(const int16_t *biased_exp, const uint8_t *man,
                    const uint8_t *neg, size_t n, BFloat16 *out);

} // namespace slab
} // namespace fpraker

#endif // FPRAKER_NUMERIC_SLAB_OPS_H
