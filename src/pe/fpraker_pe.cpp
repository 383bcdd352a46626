#include "pe/fpraker_pe.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <cstring>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "common/logging.h"

namespace fpraker {

FPRakerColumn::FPRakerColumn(const PeConfig &cfg, int num_pes)
    : cfg_(cfg), numPes_(num_pes), lut_(&TermLut::of(cfg.encoding)),
      vlut_(&ValueLut::of(cfg.encoding))
{
    panic_if(cfg_.lanes < 1 || cfg_.lanes > kMaxLanes,
             "unsupported lane count %d", cfg_.lanes);
    panic_if(numPes_ < 1, "column needs at least one PE");
    panic_if(numPes_ > 64,
             "column of %d PEs exceeds the 64-PE transposed-mask limit",
             numPes_);
    panic_if(cfg_.maxDelta < 0, "negative shifter window");
    peAll_ = numPes_ == 64 ? ~0ull : (1ull << numPes_) - 1;
    pes_.reserve(static_cast<size_t>(numPes_));
    for (int r = 0; r < numPes_; ++r)
        pes_.emplace_back(cfg_.acc);
}

void
FPRakerColumn::beginSet(const BFloat16 *a, const BFloat16 *b,
                        int b_stride, int active_lanes)
{
    const int lanes = active_lanes < 0 ? cfg_.lanes : active_lanes;
    panic_if(lanes < 1 || lanes > cfg_.lanes,
             "bad active lane count %d", lanes);
    decodeScratch_.resize(static_cast<size_t>(numPes_));
    decodeBRows(b, b_stride, numPes_, lanes, decodeScratch_.data());
    beginSetDecoded(a, decodeScratch_.data(), lanes);
}

void
FPRakerColumn::decodeBRows(const BFloat16 *b, int b_stride, int rows,
                           int lanes, DecodedBRow *out)
{
#ifdef __SSE2__
    // Vector fast path for full 8-lane rows: the whole per-row field
    // split (zero/finite classification, exponent, significand, sign)
    // is 8 x 16-bit data — one SSE register per row. Integer-exact,
    // so bit-identical to the scalar path below.
    if (lanes == 8) {
        const __m128i vzero128 = _mm_setzero_si128();
        for (int r = 0; r < rows; ++r) {
            DecodedBRow &dr = out[r];
            const BFloat16 *brow =
                b + static_cast<size_t>(r) * b_stride;
            __m128i vb;
            std::memcpy(&vb, brow, 16);

            const __m128i vexpf =
                _mm_and_si128(vb, _mm_set1_epi16(0x7f80));
            if (_mm_movemask_epi8(_mm_cmpeq_epi16(
                    vexpf, _mm_set1_epi16(0x7f80)))) {
                for (int l = 0; l < 8; ++l)
                    panic_if(!brow[l].isFinite(),
                             "non-finite PE operand (b=%04x)",
                             brow[l].bits());
            }

            const __m128i vbzero = _mm_cmpeq_epi16(
                _mm_and_si128(vb, _mm_set1_epi16(0x7fff)), vzero128);
            const __m128i vbe = _mm_and_si128(_mm_srli_epi16(vb, 7),
                                              _mm_set1_epi16(0xff));
            _mm_store_si128(
                reinterpret_cast<__m128i *>(dr.beBiased), vbe);
            _mm_store_si128(
                reinterpret_cast<__m128i *>(dr.zero16), vbzero);
            const __m128i vsig16 = _mm_andnot_si128(
                vbzero,
                _mm_or_si128(_mm_and_si128(vb, _mm_set1_epi16(0x7f)),
                             _mm_set1_epi16(0x80)));
            _mm_storel_epi64(reinterpret_cast<__m128i *>(dr.sig),
                             _mm_packus_epi16(vsig16, vzero128));
            dr.negMask = static_cast<uint32_t>(
                _mm_movemask_epi8(_mm_packs_epi16(
                    _mm_srai_epi16(vb, 15), vzero128)));
        }
        return;
    }
#endif // __SSE2__
    // Scalar fallback: the whole per-value field split is one load
    // from the decoded-value table (the value memoization grain; the
    // B-side fields are encoding-independent).
    const ValueLut &vlut = ValueLut::bDecode();
    for (int r = 0; r < rows; ++r) {
        DecodedBRow &dr = out[r];
        const BFloat16 *brow = b + static_cast<size_t>(r) * b_stride;
        dr.negMask = 0;
        for (int l = 0; l < lanes; ++l) {
            const ValueLut::Entry &e = vlut.entry(brow[l].bits());
            panic_if(!(e.flags & ValueLut::kFinite),
                     "non-finite PE operand (b=%04x)", brow[l].bits());
            dr.beBiased[l] = e.biasedExp;
            dr.zero16[l] =
                (e.flags & ValueLut::kZero) ? int16_t(-1) : int16_t(0);
            dr.sig[l] = e.sig;
            if (e.flags & ValueLut::kNegative)
                dr.negMask |= 1u << l;
        }
    }
}

void
FPRakerColumn::beginSetDecoded(const BFloat16 *a,
                               const DecodedBRow *brows,
                               int active_lanes)
{
    panic_if(inSet_, "beginSet while a set is in flight");
    activeLanes_ = active_lanes < 0 ? cfg_.lanes : active_lanes;
    panic_if(activeLanes_ < 1 || activeLanes_ > cfg_.lanes,
             "bad active lane count %d", activeLanes_);

    // The serial operands are shared by every PE in the column: hoist
    // their exponents, signs, and term streams out of the per-PE loop.
    int16_t a_exp[kMaxLanes];
    int8_t shift0[kMaxLanes];  //!< First-term shift of live lanes.
    uint8_t nterms[kMaxLanes]; //!< Stream length per lane.
    uint32_t a_neg = 0;
    uint32_t a_nonzero = 0;
    uint64_t zero_slots = 0;
    liveMask_ = 0;
    for (int l = 0; l < activeLanes_; ++l) {
        // The value memoization grain: every field this loop used to
        // re-derive per value (term schedule, exponents, sign/zero
        // class, first-term shift) is one decoded-table load.
        const ValueLut::Entry &e = vlut_->entry(a[l].bits());
        panic_if(!(e.flags & ValueLut::kFinite),
                 "non-finite PE operand (a=%04x)", a[l].bits());
        streams_[l].terms = e.stream;
        streams_[l].cursor = 0;
        nterms[l] = e.nterms;
        if (e.nterms) {
            liveMask_ |= 1u << l;
            shift0[l] = e.shift0;
        }
        a_exp[l] = e.unbiasedExp;
        if (e.flags & ValueLut::kNegative)
            a_neg |= 1u << l;
        if (!(e.flags & ValueLut::kZero))
            a_nonzero |= 1u << l;
        zero_slots += static_cast<uint64_t>(kTermSlots - e.nterms);
        firedPes_[l] = 0;
        obPes_[l] = 0;
    }

    // The post-set settle is folded in: before any term fires the only
    // possible encoder feedback is a first-term out-of-bounds flag (and
    // the consensus drop when every PE raises it), so both are resolved
    // here and the set starts settled.
    const int thr =
        cfg_.skipOutOfBounds ? cfg_.effectiveObThreshold() : INT_MAX;
    uint32_t all_ob = liveMask_;

#ifdef __SSE2__
    // Vector fast path for full 8-lane sets: combining the decoded
    // rows with the column's A stream (product exponents, MAX-tree
    // input, first-term OB compare) is 8 x 16-bit data — one SSE
    // register. Integer-exact, so bit-identical to the scalar path
    // below.
    if (activeLanes_ == 8) {
        const __m128i vzero128 = _mm_setzero_si128();
        __m128i va_exp_m127;
        __m128i va_nonzero16 = vzero128;
        __m128i vshift0_16 = vzero128;
        {
            int16_t tmp[8];
            for (int l = 0; l < 8; ++l)
                tmp[l] = static_cast<int16_t>(a_exp[l] - 127);
            std::memcpy(&va_exp_m127, tmp, 16);
            int16_t nz[8];
            int16_t sh[8];
            for (int l = 0; l < 8; ++l) {
                nz[l] = (a_nonzero >> l) & 1u ? int16_t(-1) : int16_t(0);
                sh[l] = (liveMask_ >> l) & 1u ? shift0[l] : int16_t(0);
            }
            std::memcpy(&va_nonzero16, nz, 16);
            std::memcpy(&vshift0_16, sh, 16);
        }
        const __m128i vthr16 = _mm_set1_epi16(
            static_cast<int16_t>(thr > 16000 ? 16000 : thr));
        const bool do_ob = thr != INT_MAX;

        for (int r = 0; r < numPes_; ++r) {
            PeState &pe = pes_[r];
            const DecodedBRow &dr = brows[r];
            __m128i vbe, vbzero;
            std::memcpy(&vbe, dr.beBiased, 16);
            std::memcpy(&vbzero, dr.zero16, 16);
            const __m128i vab = _mm_add_epi16(va_exp_m127, vbe);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(pe.abExp),
                             vab);
            std::memcpy(pe.bSig, dr.sig, 8);
            pe.prodNegMask = a_neg ^ dr.negMask;
            pe.firedMask = 0;

            int emax = pe.acc.chunkRegister().exponent();
            const __m128i vactive =
                _mm_andnot_si128(vbzero, va_nonzero16);
            if (_mm_movemask_epi8(vactive)) {
                __m128i vm = _mm_or_si128(
                    _mm_and_si128(vactive, vab),
                    _mm_andnot_si128(vactive,
                                     _mm_set1_epi16(INT16_MIN)));
                vm = _mm_max_epi16(vm, _mm_srli_si128(vm, 8));
                vm = _mm_max_epi16(vm, _mm_srli_si128(vm, 4));
                vm = _mm_max_epi16(vm, _mm_srli_si128(vm, 2));
                const int m = static_cast<int16_t>(
                    _mm_extract_epi16(vm, 0));
                if (m > emax)
                    emax = m;
            }
            pe.acc.chunkRegister().alignTo(emax);

            uint32_t ob = 0;
            if (do_ob) {
                const int acc_exp = pe.acc.chunkRegister().exponent();
                if (acc_exp > -16000) {
                    // acc_exp fits int16 here (bfloat16 exponents cap
                    // it near +-300); below -16000 the register is the
                    // zero sentinel and no term can be out-of-bounds.
                    const __m128i vk = _mm_add_epi16(
                        _mm_sub_epi16(
                            _mm_set1_epi16(
                                static_cast<int16_t>(acc_exp)),
                            vab),
                        vshift0_16);
                    ob = static_cast<uint32_t>(_mm_movemask_epi8(
                             _mm_packs_epi16(
                                 _mm_cmpgt_epi16(vk, vthr16),
                                 vzero128))) &
                         liveMask_;
                    for (uint32_t mm = ob; mm; mm &= mm - 1) {
                        const int l = std::countr_zero(mm);
                        pe.stats.termsObSkipped += nterms[l];
                        obPes_[l] |= 1ull << r;
                    }
                }
            }
            pe.obMask = ob;
            all_ob &= ob;

            pe.stats.termsZeroSkipped += zero_slots;
            pe.stats.sets += 1;
            pe.stats.macs += static_cast<uint64_t>(activeLanes_);
        }
    } else
#endif // __SSE2__
    {
        for (int r = 0; r < numPes_; ++r) {
            PeState &pe = pes_[r];
            const DecodedBRow &dr = brows[r];
            int emax = pe.acc.chunkRegister().exponent();
            for (int l = 0; l < activeLanes_; ++l) {
                // Zero operands carry an all-zero exponent field;
                // their product exponents are far below any normal
                // value, so the MAX tree ignores them and the
                // out-of-bounds check retires the lane immediately.
                const int ab = a_exp[l] + dr.beBiased[l] - 127;
                pe.abExp[l] = static_cast<int16_t>(ab);
                pe.bSig[l] = dr.sig[l];
                if (((a_nonzero >> l) & 1u) && dr.zero16[l] == 0 &&
                    ab > emax)
                    emax = ab;
            }
            pe.prodNegMask = a_neg ^ dr.negMask;
            pe.firedMask = 0;
            pe.acc.chunkRegister().alignTo(emax);

            uint32_t ob = 0;
            if (thr != INT_MAX) {
                const int acc_exp = pe.acc.chunkRegister().exponent();
                for (uint32_t m = liveMask_; m; m &= m - 1) {
                    const int l = std::countr_zero(m);
                    if (acc_exp - pe.abExp[l] + shift0[l] > thr) {
                        ob |= 1u << l;
                        pe.stats.termsObSkipped += nterms[l];
                        obPes_[l] |= 1ull << r;
                    }
                }
            }
            pe.obMask = ob;
            all_ob &= ob;

            pe.stats.termsZeroSkipped += zero_slots;
            pe.stats.sets += 1;
            pe.stats.macs += static_cast<uint64_t>(activeLanes_);
        }
    }

    // Consensus drop of lanes every PE flagged on their first term.
    for (uint32_t m = all_ob; m; m &= m - 1) {
        const int l = std::countr_zero(m);
        streams_[l].cursor = streams_[l].terms->size();
    }
    liveMask_ &= ~all_ob;

    // Seed the cursor-term cache for the surviving lanes.
    curNegMask_ = 0;
    for (uint32_t m = liveMask_; m; m &= m - 1) {
        const int l = std::countr_zero(m);
        const Term &t = (*streams_[l].terms)[0];
        curShift_[l] = t.shift;
        if (t.neg)
            curNegMask_ |= 1u << l;
    }

    setCycles_ = 0;
    inSet_ = true;
}

void
FPRakerColumn::settleLane(int l, int thr)
{
    LaneStream &s = streams_[l];
    const TermStream &ts = *s.terms;
    const uint32_t bit = 1u << l;
    for (;;) {
        const int shift = ts[s.cursor].shift;
        // The transposed masks resolve the cursor term's status with
        // mask algebra: only PEs that have neither consumed the term
        // nor dropped the stream still need an out-of-bounds verdict —
        // usually none, because settle runs right after the term fired
        // everywhere it could. Accumulator exponents are constant
        // while settling, so they are read straight off the PEs.
        bool consumed = true;
        for (uint64_t m = peAll_ & ~obPes_[l] & ~firedPes_[l]; m;
             m &= m - 1) {
            const int r = std::countr_zero(m);
            PeState &pe = pes_[static_cast<size_t>(r)];
            const int k = pe.acc.chunkRegister().exponent() -
                          pe.abExp[l] + shift;
            if (k > thr) {
                // Terms stream MSB-first, so every remaining term of
                // this pair is guaranteed out-of-bounds too.
                pe.obMask |= bit;
                obPes_[l] |= 1ull << r;
                pe.stats.termsObSkipped +=
                    static_cast<uint64_t>(ts.size() - s.cursor);
            } else {
                consumed = false;
            }
        }
        if (!consumed)
            return;
        if (obPes_[l] == peAll_) {
            // The shared encoder drops the rest of the stream once
            // every PE in the column has flagged the lane.
            s.cursor = ts.size();
            liveMask_ &= ~bit;
            return;
        }
        ++s.cursor;
        for (uint64_t m = firedPes_[l]; m; m &= m - 1)
            pes_[static_cast<size_t>(std::countr_zero(m))].firedMask &=
                ~bit;
        firedPes_[l] = 0;
        if (s.cursor >= ts.size()) {
            liveMask_ &= ~bit;
            return;
        }
        const Term &t = ts[s.cursor];
        curShift_[l] = t.shift;
        curNegMask_ = (curNegMask_ & ~bit) | (t.neg ? bit : 0u);
    }
}

void
FPRakerColumn::settle(uint32_t mask)
{
    mask &= liveMask_;
    if (!mask)
        return;
    const int thr =
        cfg_.skipOutOfBounds ? cfg_.effectiveObThreshold() : INT_MAX;
    for (uint32_t m = mask; m; m &= m - 1)
        settleLane(std::countr_zero(m), thr);
}

bool
FPRakerColumn::busy() const
{
    return inSet_ && liveMask_ != 0;
}

void
FPRakerColumn::emitTrace(int r, int acc_exp, int base, uint32_t pend,
                         uint32_t fire, const int *k_of) const
{
    PeCycleTrace tr;
    tr.cycle = setCycles_;
    tr.pe = r;
    tr.base = base;
    tr.accExp = acc_exp;
    tr.action.assign(static_cast<size_t>(cfg_.lanes),
                     PeCycleTrace::LaneAction::Idle);
    tr.k.assign(static_cast<size_t>(cfg_.lanes), 0);
    for (uint32_t m = pend; m; m &= m - 1) {
        const int l = std::countr_zero(m);
        tr.action[static_cast<size_t>(l)] =
            (fire >> l) & 1u ? PeCycleTrace::LaneAction::Fired
                             : PeCycleTrace::LaneAction::ShiftStall;
        tr.k[static_cast<size_t>(l)] = k_of[l];
    }
    trace_(tr);
}

void
FPRakerColumn::stepCycle()
{
    if (!inSet_)
        return;

    // No settle on entry: beginSet leaves the set settled and every
    // cycle re-settles on exit, so out-of-bounds state is always
    // current here.
    if (!liveMask_)
        return;

    ++setCycles_;
    uint32_t firedUnion = 0;
    bool expMoved = false;

    // Cursor terms are column-shared and cached (curShift_ /
    // curNegMask_ track every cursor advance), so the per-cycle
    // snapshot is free.
    const int8_t *shiftOf = curShift_;
    const uint32_t negMask = curNegMask_;

    const bool tracing = static_cast<bool>(trace_);
    for (int r = 0; r < numPes_; ++r) {
        PeState &pe = pes_[r];
        const int acc_exp = pe.acc.chunkRegister().exponent();
        const uint32_t pend = liveMask_ & ~pe.firedMask & ~pe.obMask;

        if (!pend) {
            // Nothing to do for this PE this cycle: every lane is either
            // exhausted, retired, or waiting for a sibling PE.
            pe.stats.laneNoTerm += static_cast<uint64_t>(activeLanes_);
            if (tracing)
                emitTrace(r, acc_exp, 0, 0, 0, nullptr);
            continue;
        }

        // Select the lanes that fire this cycle: those whose alignment
        // shift k lies within maxDelta of the base (minimum) shift.
        // Then reduce their contributions exactly (the adder tree) and
        // accumulate. The exact int64 tree covers spreads up to 48
        // bits — far beyond FPRaker's 3-position window; wider
        // configurations (the Bit-Pragmatic comparison PE has
        // unrestricted shifters) fall back to per-contribution
        // accumulation.
        int k_of[kMaxLanes];
        int base = INT_MAX;
        uint32_t fire = 0;
        int lsb_min = INT_MAX;
        int lsb_max = INT_MIN;
        for (uint32_t m = pend; m; m &= m - 1) {
            const int l = std::countr_zero(m);
            const int k = acc_exp - pe.abExp[l] + shiftOf[l];
            k_of[l] = k;
            if (k < base)
                base = k;
        }
        for (uint32_t m = pend; m; m &= m - 1) {
            const int l = std::countr_zero(m);
            if (k_of[l] - base > cfg_.maxDelta)
                continue;
            // lsb exponent of this contribution: (Ae+Be) - t - 7
            // (equivalently acc_exp - k - 7; the accumulator exponent
            // cancels, so the LSB is independent of alignment).
            const int lsb = pe.abExp[l] - shiftOf[l] - 7;
            fire |= 1u << l;
            lsb_min = std::min(lsb_min, lsb);
            lsb_max = std::max(lsb_max, lsb);
        }
        const bool exact_tree = lsb_max - lsb_min <= 48;

        int64_t sum = 0;
        for (uint32_t m = fire; m; m &= m - 1) {
            const int l = std::countr_zero(m);
            firedPes_[l] |= 1ull << r;
            const int lsb = pe.abExp[l] - shiftOf[l] - 7;
            const bool neg = (((pe.prodNegMask ^ negMask) >> l) & 1u) != 0;
            if (exact_tree) {
                const int64_t contrib =
                    static_cast<int64_t>(pe.bSig[l]) << (lsb - lsb_min);
                sum += neg ? -contrib : contrib;
            } else if (pe.bSig[l] != 0) {
                pe.acc.chunkRegister().addValue(
                    neg, lsb, static_cast<uint64_t>(pe.bSig[l]));
            }
        }
        pe.firedMask |= fire;

        const uint64_t fired_n =
            static_cast<uint64_t>(std::popcount(fire));
        const uint64_t pend_n =
            static_cast<uint64_t>(std::popcount(pend));
        pe.stats.laneUseful += fired_n;
        pe.stats.termsProcessed += fired_n;
        pe.stats.laneShiftRange += pend_n - fired_n;
        pe.stats.laneNoTerm +=
            static_cast<uint64_t>(activeLanes_) - pend_n;

        if (sum != 0) {
            pe.acc.chunkRegister().addValue(
                sum < 0, lsb_min,
                static_cast<uint64_t>(sum < 0 ? -sum : sum));
        }
        firedUnion |= fire;
        if (pe.acc.chunkRegister().exponent() != acc_exp)
            expMoved = true;

        if (tracing)
            emitTrace(r, acc_exp, base, pend, fire, k_of);
    }

    // Only fired lanes can advance, and out-of-bounds verdicts can only
    // change where an accumulator exponent moved — so the end-of-cycle
    // settle usually touches just the lanes that fired.
    settle(expMoved ? liveMask_ : firedUnion);
}

int
FPRakerColumn::finishSet()
{
    panic_if(!inSet_, "finishSet without beginSet");
    // (An entire set may be OB-retired in beginSet itself, in which
    // case the loop body never runs.)
    while (busy())
        stepCycle();

    int cycles = setCycles_;
    const uint64_t floor_lanes =
        cycles < cfg_.exponentFloor
            ? static_cast<uint64_t>(cfg_.exponentFloor - cycles) *
                  activeLanes_
            : 0;
    if (cycles < cfg_.exponentFloor)
        cycles = cfg_.exponentFloor;
    for (int r = 0; r < numPes_; ++r) {
        pes_[r].stats.laneExponent += floor_lanes;
        pes_[r].stats.setCycles += static_cast<uint64_t>(cycles);
        pes_[r].acc.tickMacs(activeLanes_);
    }
    inSet_ = false;
    return cycles;
}

int
FPRakerColumn::dot(const BFloat16 *a, const BFloat16 *b, int b_stride,
                   size_t len)
{
    const size_t lanes = static_cast<size_t>(cfg_.lanes);
    int cycles = 0;
    for (size_t i = 0; i < len; i += lanes) {
        // Only the final set of the dot can be ragged.
        const int act = static_cast<int>(std::min(lanes, len - i));
        cycles += runSet(a + i, b + i, b_stride, act);
    }
    return cycles;
}

void
FPRakerColumn::chargeInterPeStall(int cycles)
{
    panic_if(cycles < 0, "negative stall charge");
    for (int r = 0; r < numPes_; ++r) {
        pes_[r].stats.laneInterPe +=
            static_cast<uint64_t>(cycles) * cfg_.lanes;
        pes_[r].stats.setCycles += static_cast<uint64_t>(cycles);
    }
}

ChunkedAccumulator &
FPRakerColumn::accumulator(int pe)
{
    return pes_[static_cast<size_t>(pe)].acc;
}

const ChunkedAccumulator &
FPRakerColumn::accumulator(int pe) const
{
    return pes_[static_cast<size_t>(pe)].acc;
}

void
FPRakerColumn::resetAccumulators()
{
    for (auto &pe : pes_)
        pe.acc.reset();
}

const PeStats &
FPRakerColumn::stats(int pe) const
{
    return pes_[static_cast<size_t>(pe)].stats;
}

PeStats
FPRakerColumn::aggregateStats() const
{
    PeStats agg;
    for (const auto &pe : pes_)
        agg.merge(pe.stats);
    return agg;
}

void
FPRakerColumn::clearStats()
{
    for (auto &pe : pes_)
        pe.stats = PeStats{};
}

FPRakerPe::FPRakerPe(const PeConfig &cfg)
    : column_(cfg, 1)
{
}

int
FPRakerPe::processSet(const MacPair *pairs, int n)
{
    panic_if(n != column_.config().lanes,
             "set arity %d does not match PE lanes %d", n,
             column_.config().lanes);
    BFloat16 a[ExponentBlockResult::kMaxLanes];
    BFloat16 b[ExponentBlockResult::kMaxLanes];
    for (int l = 0; l < n; ++l) {
        a[l] = pairs[l].a;
        b[l] = pairs[l].b;
    }
    return column_.runSet(a, b, n);
}

int
FPRakerPe::dot(const std::vector<BFloat16> &a, const std::vector<BFloat16> &b)
{
    panic_if(a.size() != b.size(), "dot of mismatched lengths %zu vs %zu",
             a.size(), b.size());
    // Ragged tails run as masked sets (padded lanes would be
    // architecturally absent, so they must not show up in cycles or
    // statistics). A single-PE column reads its B stream at the same
    // flat offsets as A, so the row stride is irrelevant.
    return column_.dot(a.data(), b.data(), 0, a.size());
}

} // namespace fpraker
