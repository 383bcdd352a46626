/**
 * @file
 * Tests for the parallel simulation subsystem: the precomputed term
 * LUT, the SimEngine determinism guarantee, the optimized column's
 * bit-parity with the seed reference algorithm, and masked-tail sets.
 */

#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "accel/accelerator.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "numeric/term_lut.h"
#include "pe/fpraker_pe.h"
#include "sim/reference_column.h"
#include "sim/sim_engine.h"
#include "trace/model_zoo.h"

namespace fpraker {
namespace {

// ---------------------------------------------------------------- LUT

TEST(TermLut, MatchesDirectEncodingForAllSignificands)
{
    for (TermEncoding e :
         {TermEncoding::Canonical, TermEncoding::RawBits}) {
        const TermLut &lut = TermLut::of(e);
        TermEncoder enc(e);
        for (int sig : {0}) {
            EXPECT_EQ(lut.stream(sig).size(), 0) << "sig " << sig;
            EXPECT_EQ(lut.countTerms(sig), 0);
        }
        for (int sig = 0x80; sig <= 0xff; ++sig) {
            TermStream direct = enc.encodeSignificand(sig);
            const TermStream &cached = lut.stream(sig);
            ASSERT_EQ(cached.size(), direct.size()) << "sig " << sig;
            for (int i = 0; i < direct.size(); ++i) {
                EXPECT_EQ(cached[i].shift, direct[i].shift)
                    << "sig " << sig << " term " << i;
                EXPECT_EQ(cached[i].neg, direct[i].neg)
                    << "sig " << sig << " term " << i;
            }
            EXPECT_EQ(lut.countTerms(sig), enc.countTerms(sig))
                << "sig " << sig;
        }
    }
}

TEST(TermLut, SharedInstancePerEncoding)
{
    EXPECT_EQ(&TermLut::of(TermEncoding::Canonical),
              &TermLut::of(TermEncoding::Canonical));
    EXPECT_NE(&TermLut::of(TermEncoding::Canonical),
              &TermLut::of(TermEncoding::RawBits));
}

// ------------------------------------------- column vs seed reference

std::vector<BFloat16>
randomValues(Rng &rng, size_t n, double sparsity, double exp_sigma)
{
    std::vector<BFloat16> v(n);
    for (auto &x : v) {
        if (rng.bernoulli(sparsity)) {
            x = BFloat16();
            continue;
        }
        double mag = std::exp2(rng.gaussian(0.0, exp_sigma)) *
                     rng.uniform(1.0, 2.0);
        x = bf16(static_cast<float>(rng.bernoulli(0.5) ? -mag : mag));
    }
    return v;
}

void
expectStatsEqual(const PeStats &a, const PeStats &b, const char *what)
{
    EXPECT_EQ(a.laneUseful, b.laneUseful) << what;
    EXPECT_EQ(a.laneNoTerm, b.laneNoTerm) << what;
    EXPECT_EQ(a.laneShiftRange, b.laneShiftRange) << what;
    EXPECT_EQ(a.laneExponent, b.laneExponent) << what;
    EXPECT_EQ(a.laneInterPe, b.laneInterPe) << what;
    EXPECT_EQ(a.setCycles, b.setCycles) << what;
    EXPECT_EQ(a.sets, b.sets) << what;
    EXPECT_EQ(a.macs, b.macs) << what;
    EXPECT_EQ(a.termsProcessed, b.termsProcessed) << what;
    EXPECT_EQ(a.termsZeroSkipped, b.termsZeroSkipped) << what;
    EXPECT_EQ(a.termsObSkipped, b.termsObSkipped) << what;
}

/** Fuzz the optimized column against the seed-parity reference. */
class ColumnParity : public ::testing::TestWithParam<int>
{
};

TEST_P(ColumnParity, BitIdenticalToReference)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 7717 + 3);
    for (int trial = 0; trial < 6; ++trial) {
        PeConfig cfg;
        cfg.maxDelta = static_cast<int>(rng.uniformInt(0, 6));
        cfg.obThreshold = rng.bernoulli(0.5)
                              ? -1
                              : static_cast<int>(rng.uniformInt(0, 14));
        cfg.skipOutOfBounds = rng.bernoulli(0.8);
        cfg.encoding = rng.bernoulli(0.5) ? TermEncoding::Canonical
                                          : TermEncoding::RawBits;
        cfg.acc.fracBits = static_cast<int>(rng.uniformInt(6, 16));
        const int pes = static_cast<int>(rng.uniformInt(1, 4));
        double sparsity = rng.uniform(0.0, 0.6);
        double sigma = rng.uniform(0.5, 5.0);

        FPRakerColumn opt(cfg, pes);
        ReferenceColumn ref(cfg, pes);
        for (int set = 0; set < 24; ++set) {
            auto a = randomValues(rng, 8, sparsity, sigma);
            auto b = randomValues(
                rng, static_cast<size_t>(pes) * 8, sparsity, sigma);
            int c_opt = opt.runSet(a.data(), b.data(), 8);
            int c_ref = ref.runSet(a.data(), b.data(), 8);
            ASSERT_EQ(c_opt, c_ref)
                << "cycles diverged, trial " << trial << " set " << set;
        }
        for (int r = 0; r < pes; ++r) {
            ASSERT_EQ(opt.accumulator(r).total(),
                      ref.accumulator(r).total())
                << "trial " << trial << " pe " << r;
            ASSERT_EQ(
                opt.accumulator(r).chunkRegister().readDouble(),
                ref.accumulator(r).chunkRegister().readDouble())
                << "trial " << trial << " pe " << r;
        }
        expectStatsEqual(opt.aggregateStats(), ref.aggregateStats(),
                         "column stats");
    }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ColumnParity, ::testing::Range(0, 8));

/**
 * Wide-row parity: the Fig. 19/20 geometries put up to 16 PEs on one
 * serial-operand stream, so a lane survives until every one of them
 * flags it out-of-bounds and most PEs spend their tail cycles idle.
 * 64 PEs is the column's limit (one bit per PE in the transposed
 * masks). Every cycle count, accumulator bit, and stat counter must
 * match the seed reference exactly.
 */
class WideRowParity : public ::testing::TestWithParam<int>
{
};

TEST_P(WideRowParity, ObRetirementIsBitIdenticalToReference)
{
    const int pes = GetParam();
    Rng rng(static_cast<uint64_t>(pes) * 40503 + 11);
    for (int trial = 0; trial < 4; ++trial) {
        PeConfig cfg;
        // Narrow accumulators + wide exponent spreads retire lanes
        // aggressively, so OB-retired PEs dominate the run.
        cfg.obThreshold = static_cast<int>(rng.uniformInt(4, 10));
        cfg.acc.fracBits = static_cast<int>(rng.uniformInt(6, 12));
        double sparsity = rng.uniform(0.1, 0.5);
        double sigma = rng.uniform(2.0, 5.0);

        FPRakerColumn opt(cfg, pes);
        ReferenceColumn ref(cfg, pes);
        for (int set = 0; set < 16; ++set) {
            auto a = randomValues(rng, 8, sparsity, sigma);
            auto b = randomValues(
                rng, static_cast<size_t>(pes) * 8, sparsity, sigma);
            int c_opt = opt.runSet(a.data(), b.data(), 8);
            int c_ref = ref.runSet(a.data(), b.data(), 8);
            ASSERT_EQ(c_opt, c_ref)
                << "cycles diverged, trial " << trial << " set " << set;
        }
        for (int r = 0; r < pes; ++r)
            ASSERT_EQ(opt.accumulator(r).total(),
                      ref.accumulator(r).total())
                << "trial " << trial << " pe " << r;
        expectStatsEqual(opt.aggregateStats(), ref.aggregateStats(),
                         "wide-row column stats");
    }
}

INSTANTIATE_TEST_SUITE_P(Fig19Geometries, WideRowParity,
                         ::testing::Values(2, 4, 16, 32, 64));

TEST(WideRowParity, WideTileMatchesReferenceTile)
{
    // A 16-row tile (the widest Fig. 19/20 point) over a multi-burst
    // step sequence, against the seed tile walk.
    Rng rng(6063);
    TileConfig cfg;
    cfg.rows = 16;
    cfg.cols = 2;
    cfg.pe.obThreshold = 8;
    const int lanes = cfg.pe.lanes;
    const size_t a_len = static_cast<size_t>(cfg.cols) * lanes;
    const size_t b_len = static_cast<size_t>(cfg.rows) * lanes;
    const size_t steps = 24;

    auto a = randomValues(rng, steps * a_len, 0.25, 3.0);
    auto b = randomValues(rng, steps * b_len, 0.25, 3.0);

    Tile tile(cfg);
    std::vector<TileStepView> views(steps);
    for (size_t s = 0; s < steps; ++s)
        views[s] = TileStepView{a.data() + s * a_len,
                                b.data() + s * b_len};
    TileRunResult opt = tile.run(views.data(), steps);

    ReferenceTile ref(cfg.pe, cfg.rows, cfg.cols, cfg.bufferDepth);
    ReferenceTileResult res = ref.run(a.data(), b.data(), steps);

    EXPECT_EQ(opt.cycles, res.cycles);
    for (int r = 0; r < cfg.rows; ++r)
        for (int c = 0; c < cfg.cols; ++c)
            EXPECT_EQ(tile.output(r, c), ref.output(r, c))
                << "PE (" << r << "," << c << ")";
    expectStatsEqual(tile.aggregateStats(), ref.aggregateStats(),
                     "wide tile stats");
}

TEST(TileParity, MatchesReferenceTileOverBursts)
{
    Rng rng(2024);
    TileConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    const int lanes = cfg.pe.lanes;
    const size_t a_len = static_cast<size_t>(cfg.cols) * lanes;
    const size_t b_len = static_cast<size_t>(cfg.rows) * lanes;
    const size_t steps = 40;

    auto a = randomValues(rng, steps * a_len, 0.3, 2.0);
    auto b = randomValues(rng, steps * b_len, 0.3, 2.0);

    Tile tile(cfg);
    std::vector<TileStepView> views(steps);
    for (size_t s = 0; s < steps; ++s)
        views[s] = TileStepView{a.data() + s * a_len,
                                b.data() + s * b_len};
    TileRunResult opt = tile.run(views.data(), steps);

    ReferenceTile ref(cfg.pe, cfg.rows, cfg.cols, cfg.bufferDepth);
    ReferenceTileResult res = ref.run(a.data(), b.data(), steps);

    EXPECT_EQ(opt.cycles, res.cycles);
    for (int r = 0; r < cfg.rows; ++r)
        for (int c = 0; c < cfg.cols; ++c)
            EXPECT_EQ(tile.output(r, c), ref.output(r, c))
                << "PE (" << r << "," << c << ")";
    expectStatsEqual(tile.aggregateStats(), ref.aggregateStats(),
                     "tile stats");
}

// ------------------------------------------------------- masked tails

TEST(MaskedTail, PaddedLanesContributeNoStats)
{
    // 19 = 2 full sets + a 3-lane tail. The tail's five padded lanes
    // must not show up in macs, zero-term slots, or lane-cycle counts.
    Rng rng(77);
    auto a = randomValues(rng, 19, 0.0, 1.0);
    auto b = randomValues(rng, 19, 0.0, 1.0);

    FPRakerPe pe((PeConfig()));
    pe.dot(a, b);
    EXPECT_EQ(pe.stats().macs, 19u);
    EXPECT_EQ(pe.stats().sets, 3u);
    // Lane-cycles partition against the per-set active lane counts:
    // the tail set contributes 3 lanes per cycle, not 8.
    uint64_t tail_cycles = 0;
    {
        FPRakerPe full((PeConfig()));
        std::vector<BFloat16> a2(a.begin(), a.begin() + 16);
        std::vector<BFloat16> b2(b.begin(), b.begin() + 16);
        uint64_t full_cycles =
            static_cast<uint64_t>(full.dot(a2, b2));
        tail_cycles = pe.stats().setCycles - full_cycles;
        EXPECT_EQ(pe.stats().laneCycles(),
                  full_cycles * 8 + tail_cycles * 3);
    }
}

TEST(MaskedTail, ResultMatchesZeroPadding)
{
    // Masking drops the padded lanes' bookkeeping but must not change
    // the arithmetic: zero-padded lanes never fire a term.
    Rng rng(78);
    for (int trial = 0; trial < 10; ++trial) {
        size_t n = 8 + rng.uniformInt(15); // 8..22, ragged tails
        auto a = randomValues(rng, n, 0.2, 2.0);
        auto b = randomValues(rng, n, 0.2, 2.0);

        FPRakerPe masked((PeConfig()));
        masked.dot(a, b);

        auto a_pad = a;
        auto b_pad = b;
        while (a_pad.size() % 8) {
            a_pad.push_back(BFloat16());
            b_pad.push_back(BFloat16());
        }
        FPRakerPe padded((PeConfig()));
        // Drive the padded run through full sets.
        for (size_t i = 0; i < a_pad.size(); i += 8) {
            MacPair pairs[8];
            for (int l = 0; l < 8; ++l)
                pairs[l] = MacPair{a_pad[i + l], b_pad[i + l]};
            padded.processSet(pairs, 8);
        }
        // The chunk cadence differs (padded lanes tick the chunk
        // counter), so compare the mathematically exact register state
        // rather than bitwise totals.
        EXPECT_NEAR(masked.resultFloat(), padded.resultFloat(),
                    1e-3f * (std::fabs(padded.resultFloat()) + 1.0f))
            << "trial " << trial;
    }
}

// --------------------------------------------------------- SimEngine

TEST(SimEngine, ParallelForCoversEveryIndexOnce)
{
    for (int threads : {1, 2, 8}) {
        SimEngine engine(threads);
        const size_t n = 103;
        std::vector<std::atomic<int>> hits(n);
        engine.parallelFor(n, [&](size_t i) { hits[i] += 1; });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(SimEngine, NestedParallelForDoesNotDeadlock)
{
    SimEngine engine(4);
    std::atomic<int> total{0};
    engine.parallelFor(6, [&](size_t) {
        engine.parallelFor(6, [&](size_t) { total += 1; });
    });
    EXPECT_EQ(total.load(), 36);
}

TEST(SimEngine, ZeroRequestsDefaultThreads)
{
    SimEngine engine(0);
    EXPECT_GE(engine.threads(), 1);
}

uint64_t
reportFingerprint(const ModelRunReport &r)
{
    Fnv64 h;
    h.addRaw(r.fprCycles);
    h.addRaw(r.baseCycles);
    h.addRaw(r.fprEnergy.totalPj());
    h.addRaw(r.baseEnergy.totalPj());
    h.addRaw(static_cast<double>(r.activity.laneUseful));
    h.addRaw(static_cast<double>(r.activity.termsProcessed));
    for (const LayerOpReport &op : r.ops) {
        h.addRaw(op.fprCycles);
        h.addRaw(op.baseCycles);
        h.addRaw(op.avgCyclesPerStep);
        h.addRaw(static_cast<double>(op.sampleStats.setCycles));
        h.addRaw(static_cast<double>(op.sampleStats.termsObSkipped));
    }
    return h.value();
}

TEST(SimEngine, ModelRunIsBitIdenticalAcrossThreadCounts)
{
    const ModelInfo &model = findModel("SNLI");
    uint64_t fingerprints[3];
    double totals[3];
    int idx = 0;
    for (int threads : {1, 2, 8}) {
        AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
        cfg.sampleSteps = 24;
        cfg.threads = threads;
        Accelerator accel(cfg);
        ModelRunReport r = accel.runModel(model, 0.5);
        fingerprints[idx] = reportFingerprint(r);
        totals[idx] = r.fprCycles;
        ++idx;
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]);
    EXPECT_EQ(fingerprints[0], fingerprints[2]);
    EXPECT_EQ(totals[0], totals[1]);
    EXPECT_EQ(totals[0], totals[2]);
}

TEST(SimEngine, TileRunIsBitIdenticalAcrossThreadCounts)
{
    Rng rng(4096);
    TileConfig cfg;
    const int lanes = cfg.pe.lanes;
    const size_t a_len = static_cast<size_t>(cfg.cols) * lanes;
    const size_t b_len = static_cast<size_t>(cfg.rows) * lanes;
    const size_t steps = 24;
    auto a = randomValues(rng, steps * a_len, 0.25, 2.0);
    auto b = randomValues(rng, steps * b_len, 0.25, 2.0);
    std::vector<TileStepView> views(steps);
    for (size_t s = 0; s < steps; ++s)
        views[s] = TileStepView{a.data() + s * a_len,
                                b.data() + s * b_len};

    uint64_t cycles[3];
    float out00[3];
    uint64_t useful[3];
    int idx = 0;
    for (int threads : {1, 2, 8}) {
        SimEngine engine(threads);
        Tile tile(cfg);
        TileRunResult res = tile.run(views.data(), steps, &engine);
        cycles[idx] = res.cycles;
        out00[idx] = tile.output(0, 0);
        useful[idx] = tile.aggregateStats().laneUseful;
        ++idx;
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(cycles[0], cycles[2]);
    EXPECT_EQ(out00[0], out00[1]);
    EXPECT_EQ(out00[0], out00[2]);
    EXPECT_EQ(useful[0], useful[1]);
    EXPECT_EQ(useful[0], useful[2]);
}

} // namespace
} // namespace fpraker
