/**
 * @file
 * Precomputed term-stream lookup tables.
 *
 * The hardware shares one set of power-of-two encoders per tile column,
 * but the simulator used to re-run the NAF recoding of every serial
 * operand on every set. A significand is only 8 bits, so the full
 * encoding domain is 256 entries per encoding: TermLut materializes all
 * of them once (streams and term counts) and every hot path — the PE
 * column's beginSet, the tensor statistics used by the figure harnesses
 * — reads the shared, immutable tables instead of re-encoding.
 *
 * Lanes hold a pointer into the table rather than a copy, so beginning
 * a set costs one table index per lane and no memory traffic.
 */

#ifndef FPRAKER_NUMERIC_TERM_LUT_H
#define FPRAKER_NUMERIC_TERM_LUT_H

#include <cstdint>

#include "numeric/term_encoder.h"

namespace fpraker {

/** Immutable per-encoding table of all 256 significand encodings. */
class TermLut
{
  public:
    /**
     * Shared table for @p enc, built on first use (thread-safe) and
     * immutable afterwards, so concurrent simulation workers can read
     * it without synchronization.
     */
    static const TermLut &of(TermEncoding enc);

    /** Term stream of an 8-bit significand (0 or [128, 255]). */
    const TermStream &
    stream(int sig8) const
    {
        return streams_[sig8 & 0xff];
    }

    /** Term stream of a bfloat16 value's significand (zero -> empty). */
    const TermStream &
    stream(BFloat16 v) const
    {
        return streams_[v.significand()];
    }

    /** Number of terms the encoding produces for @p sig8. */
    int
    countTerms(int sig8) const
    {
        return counts_[sig8 & 0xff];
    }

    /**
     * The full 256-entry term-count table (counts_[0] == 0), for the
     * slab-grain classifier slab::countTerms (numeric/slab_ops.h).
     */
    const uint8_t *countsTable() const { return counts_; }

    TermEncoding encoding() const { return encoding_; }

  private:
    explicit TermLut(TermEncoding enc);

    TermEncoding encoding_;
    TermStream streams_[256];
    uint8_t counts_[256] = {};
};

} // namespace fpraker

#endif // FPRAKER_NUMERIC_TERM_LUT_H
