/**
 * @file
 * The FPRaker processing element — the paper's core contribution.
 *
 * An FPRaker PE multiplies 8 bfloat16 (A, B) pairs concurrently and
 * accumulates the result into an extended-precision accumulator. The A
 * significands are recoded on the fly into streams of signed powers of
 * two (terms) and processed term-serially, most-significant first:
 *
 *  - Block 1 (exponent): once per set, product exponents Ae+Be are formed
 *    and compared (with the accumulator exponent) to find emax; the
 *    accumulator is aligned up to emax.
 *  - Block 2 (shift & reduce): each cycle, every lane's pending term
 *    yields an alignment shift k = e_acc - (Ae+Be) + t. A per-cycle base
 *    shift is set to the minimum k; lanes within maxDelta (3) of the base
 *    fire, shifting their B significand by k - base into a small adder
 *    tree whose output the shared base shifter aligns with the
 *    accumulator. Lanes further out stall one cycle (shift-range stall).
 *  - Block 3 (accumulate): the reduced partial sum is added to the
 *    accumulator, which is normalized and rounded (RNE) every step.
 *
 * Terms whose k exceeds the accumulator precision are out-of-bounds: they
 * cannot affect the result, so the lane signals its term encoder and the
 * remainder of the stream is skipped (OB skipping). Because zero operands
 * carry all-zero exponent fields, zero-valued B operands also retire
 * through the OB path.
 *
 * FPRakerColumn models a *column* of PEs that share one A stream and its
 * term encoders (as in the tile): term consumption is lockstepped, and a
 * lane's stream is dropped only when every PE in the column flags it
 * out-of-bounds. FPRakerPe is the single-PE convenience wrapper.
 *
 * Implementation notes (the simulator, not the hardware): the model is
 * bit-identical to the seed algorithm (ReferenceColumn in src/sim/) but
 * restructured for host speed. Operands decode through the ValueLut
 * (SSE2 for full 8-lane sets); lane term streams are read-only pointers
 * into the shared TermLut instead of per-set encoder runs, with each
 * lane's pending term cached; fired / out-of-bounds flags are per-PE
 * bitmasks, mirrored per lane as PE bitmasks; and the encoder-feedback
 * fixpoint (settle) drains each lane independently instead of
 * rescanning every (PE, lane) pair per iteration — legal because the
 * accumulator exponents are constant between processing cycles, which
 * makes lanes independent inside a settle pass. Every PE steps every
 * cycle through the one base-select / adder-tree path; a trace
 * callback only observes that path, it never selects another.
 */

#ifndef FPRAKER_PE_FPRAKER_PE_H
#define FPRAKER_PE_FPRAKER_PE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "numeric/term_lut.h"
#include "numeric/value_lut.h"
#include "pe/exponent_block.h"
#include "pe/pe_common.h"

namespace fpraker {

/** Per-cycle trace record for walkthroughs and deep tests. */
struct PeCycleTrace
{
    /** What a lane did in a traced cycle. */
    enum class LaneAction
    {
        Fired,      //!< Term processed this cycle.
        ShiftStall, //!< Pending term outside the base+maxDelta window.
        Idle,       //!< No term pending (exhausted, fired, or waiting).
        ObRetired,  //!< Lane dropped as out-of-bounds this cycle.
    };

    int cycle = 0; //!< Cycle index within the current set (from 1).
    int pe = 0;    //!< PE (row) index within the column.
    int base = 0;  //!< Base shift chosen this cycle (k of nearest lane).
    int accExp = 0;
    std::vector<LaneAction> action; //!< Per lane.
    std::vector<int> k;             //!< Per lane (valid unless Idle).
};

/**
 * A vertical group of FPRaker PEs sharing one serial-operand stream.
 */
class FPRakerColumn
{
  public:
    /**
     * @param cfg     PE parameters (shared by all PEs in the column)
     * @param num_pes number of PEs (rows) sharing the A stream
     */
    FPRakerColumn(const PeConfig &cfg, int num_pes);

    /**
     * One parallel-operand row, decoded once: in a tile every column
     * of a step consumes the same broadcast B rows, so the per-value
     * field split (exponent, significand, sign, zero/finite check)
     * runs once per row instead of once per (row, column). Layouts
     * are chosen so the vectorized beginSetDecoded path loads them
     * directly; zero16 lanes are 0 / -1 masks.
     */
    struct DecodedBRow
    {
        alignas(32) int16_t beBiased[ExponentBlockResult::kMaxLanes];
        alignas(32) int16_t zero16[ExponentBlockResult::kMaxLanes];
        uint8_t sig[ExponentBlockResult::kMaxLanes];
        uint32_t negMask = 0;
    };

    /**
     * Decode @p rows parallel-operand rows (row r lane l at
     * b[r * b_stride + l], @p lanes lanes each) into @p out. Performs
     * the finite-operand panic, so beginSetDecoded can skip it.
     */
    static void decodeBRows(const BFloat16 *b, int b_stride, int rows,
                            int lanes, DecodedBRow *out);

    /**
     * Start a new operand set.
     *
     * @param a        cfg.lanes serial operands, shared by every PE
     * @param b        parallel operands, PE r lane l at b[r*b_stride + l]
     * @param b_stride row stride within @p b
     * @param active_lanes lanes carrying real operands (< 0: all).
     *        Ragged dot-product tails pass the true count so padded
     *        lanes contribute neither cycles nor statistics.
     */
    void beginSet(const BFloat16 *a, const BFloat16 *b, int b_stride,
                  int active_lanes = -1);

    /**
     * beginSet against pre-decoded parallel operands: @p brows holds
     * numPes() rows from decodeBRows. Bit-identical to beginSet; the
     * tile uses this to share one B decode across all its columns.
     */
    void beginSetDecoded(const BFloat16 *a, const DecodedBRow *brows,
                         int active_lanes = -1);

    /** True while the current set still has terms to process. */
    bool busy() const;

    /** Advance one processing cycle (no-op when not busy). */
    void stepCycle();

    /**
     * Run the current set to completion and apply the exponent-block
     * floor. @return cycles consumed by the set.
     */
    int finishSet();

    /** Convenience: beginSet + finishSet. */
    int
    runSet(const BFloat16 *a, const BFloat16 *b, int b_stride,
           int active_lanes = -1)
    {
        beginSet(a, b, b_stride, active_lanes);
        return finishSet();
    }

    /**
     * Accumulate a full dot product for every PE of the column:
     * config().lanes pairs per set, PE r's parallel operands at
     * b[r * b_stride + i], one runSet per set; a ragged tail runs as
     * a masked set. @return total cycles.
     */
    int dot(const BFloat16 *a, const BFloat16 *b, int b_stride,
            size_t len);

    /** Charge tile-level broadcast-wait cycles to every lane. */
    void chargeInterPeStall(int cycles);

    /** Accumulator of PE @p pe. */
    ChunkedAccumulator &accumulator(int pe);
    const ChunkedAccumulator &accumulator(int pe) const;

    /** Reset all accumulators (new output block). */
    void resetAccumulators();

    /** Statistics of PE @p pe. */
    const PeStats &stats(int pe) const;

    /** Column-aggregate statistics. */
    PeStats aggregateStats() const;

    /** Clear statistics. */
    void clearStats();

    /** Install a per-cycle trace observer (nullptr to remove). */
    void
    setTraceCallback(std::function<void(const PeCycleTrace &)> cb)
    {
        trace_ = std::move(cb);
    }

    int numPes() const { return numPes_; }
    const PeConfig &config() const { return cfg_; }

  private:
    static constexpr int kMaxLanes = ExponentBlockResult::kMaxLanes;

    /** Shared per-lane term stream state: a view into the TermLut. */
    struct LaneStream
    {
        const TermStream *terms = nullptr;
        int cursor = 0;
    };

    /** Per-PE state; lane-indexed fields are packed for mask scans. */
    struct PeState
    {
        ChunkedAccumulator acc;
        PeStats stats;
        int16_t abExp[kMaxLanes] = {};  //!< Product exponent per lane.
        uint8_t bSig[kMaxLanes] = {};   //!< B significand per lane.
        uint32_t prodNegMask = 0;       //!< Product-sign bit per lane.
        uint32_t firedMask = 0;         //!< Consumed the cursor term.
        uint32_t obMask = 0;            //!< Stream remainder dropped.

        explicit PeState(const AccumulatorConfig &acc_cfg)
            : acc(acc_cfg)
        {}
    };

    /**
     * Retire out-of-bounds lanes and advance fully-consumed cursors to
     * a fixpoint, for the lanes in @p mask. Both are encoder feedback
     * paths, not datapath work: they consume no processing cycles.
     * Accumulator exponents are constant while settling, so each live
     * lane drains independently — and a lane can only need settling
     * when it fired or when some accumulator exponent moved, which is
     * what lets stepCycle pass a narrow mask.
     */
    void settle(uint32_t mask);

    /** Drain one lane to its settle fixpoint. @p thr is the OB bound. */
    void settleLane(int l, int thr);

    /** Cold path: build and deliver one PE's cycle trace record. */
    void emitTrace(int r, int acc_exp, int base, uint32_t pend,
                   uint32_t fire, const int *k_of) const;

    PeConfig cfg_;
    int numPes_;
    const TermLut *lut_;
    const ValueLut *vlut_; //!< Whole-bf16 decode table (value memo).
    std::vector<DecodedBRow> decodeScratch_; //!< beginSet's rows.
    LaneStream streams_[kMaxLanes];
    /**
     * Cursor-term cache: the shift and sign of each live lane's
     * pending term, refreshed whenever a cursor advances. stepCycle
     * reads these instead of chasing stream pointers every cycle.
     */
    int8_t curShift_[kMaxLanes] = {};
    uint32_t curNegMask_ = 0;
    /**
     * Transposed lane state: for lane l, the set of PEs (as bits) that
     * have fired its cursor term / dropped its stream. Kept in sync
     * with the per-PE firedMask/obMask so the settle fixpoint resolves
     * a term's column-wide status with mask compares instead of a
     * per-PE scan. Bounds the column at 64 PEs (enforced in the ctor).
     */
    uint64_t firedPes_[kMaxLanes] = {};
    uint64_t obPes_[kMaxLanes] = {};
    uint64_t peAll_ = 0; //!< Bit per PE.
    std::vector<PeState> pes_;
    std::function<void(const PeCycleTrace &)> trace_;
    uint32_t liveMask_ = 0; //!< Lanes whose stream is not exhausted.
    int activeLanes_ = 0;   //!< Lanes carrying real operands this set.
    int setCycles_ = 0;
    bool inSet_ = false;
};

/**
 * A standalone FPRaker PE (a column of one). The quickstart-facing API:
 * feed 8-pair sets, read cycles, stats, and the accumulated value.
 */
class FPRakerPe
{
  public:
    explicit FPRakerPe(const PeConfig &cfg = PeConfig{});

    /**
     * Process one set of @p n = cfg.lanes operand pairs to completion.
     * @return cycles the set consumed.
     */
    int processSet(const MacPair *pairs, int n);

    /**
     * Accumulate a full dot product, 8 (lanes) pairs per set. Ragged
     * tails run as masked sets: the padded lanes are architecturally
     * absent and contribute neither cycles nor statistics.
     * @return total cycles.
     */
    int dot(const std::vector<BFloat16> &a, const std::vector<BFloat16> &b);

    ChunkedAccumulator &accumulator() { return column_.accumulator(0); }
    const ChunkedAccumulator &
    accumulator() const
    {
        return column_.accumulator(0);
    }

    /** Result so far as bfloat16 / float. */
    BFloat16
    resultBF16() const
    {
        return BFloat16::fromFloat(accumulator().total());
    }
    float resultFloat() const { return accumulator().total(); }

    const PeStats &stats() const { return column_.stats(0); }
    void clearStats() { column_.clearStats(); }
    void reset() { column_.resetAccumulators(); }

    void
    setTraceCallback(std::function<void(const PeCycleTrace &)> cb)
    {
        column_.setTraceCallback(std::move(cb));
    }

    const PeConfig &config() const { return column_.config(); }

  private:
    FPRakerColumn column_;
};

} // namespace fpraker

#endif // FPRAKER_PE_FPRAKER_PE_H
