/**
 * @file
 * Tests for memoization: the whole-bf16 ValueLut differential
 * against TermEncoder over the full 16-bit domain, SimMemo's
 * exact-by-construction cache behaviors (key verification, budget
 * admission, LRU eviction), phase-runner bit-identity with the burst
 * memo off, cold, warm, and evicting — at 1, 2, and 8 threads — the
 * phase counters staying memo-independent, and the generator-identity
 * burst keys: shared leading bursts across sample budgets, and a miss
 * whenever any generator input changes.
 */

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "accel/phase_runner.h"
#include "numeric/term_encoder.h"
#include "numeric/value_lut.h"
#include "obs/metrics.h"
#include "sim/sim_engine.h"
#include "sim/sim_memo.h"
#include "trace/model_zoo.h"
#include "trace/tensor_gen.h"

namespace fpraker {
namespace {

TEST(ValueLut, FullDomainMatchesTermEncoder)
{
    for (TermEncoding enc :
         {TermEncoding::Canonical, TermEncoding::RawBits}) {
        const ValueLut &lut = ValueLut::of(enc);
        const TermEncoder encoder(enc);
        ASSERT_EQ(lut.encoding(), enc);
        for (uint32_t bits = 0; bits < 65536; ++bits) {
            const BFloat16 v =
                BFloat16::fromBits(static_cast<uint16_t>(bits));
            const ValueLut::Entry &e =
                lut.entry(static_cast<uint16_t>(bits));

            ASSERT_EQ((e.flags & ValueLut::kNegative) != 0,
                      v.isNegative())
                << "bits " << bits;
            ASSERT_EQ((e.flags & ValueLut::kZero) != 0, v.isZero())
                << "bits " << bits;
            ASSERT_EQ((e.flags & ValueLut::kFinite) != 0, v.isFinite())
                << "bits " << bits;
            ASSERT_EQ(e.unbiasedExp, v.unbiasedExponent())
                << "bits " << bits;
            ASSERT_EQ(e.biasedExp, v.biasedExponent())
                << "bits " << bits;
            ASSERT_EQ(e.sig, v.significand()) << "bits " << bits;

            const TermStream want = encoder.encode(v);
            ASSERT_EQ(e.nterms, want.size()) << "bits " << bits;
            ASSERT_NE(e.stream, nullptr) << "bits " << bits;
            ASSERT_EQ(e.stream->size(), want.size()) << "bits " << bits;
            for (int i = 0; i < want.size(); ++i)
                ASSERT_TRUE((*e.stream)[i] == want[i])
                    << "bits " << bits << " term " << i;
            if (want.size() > 0) {
                ASSERT_EQ(e.shift0, want[0].shift) << "bits " << bits;
            }
        }
    }
}

TEST(ValueLut, BDecodeSharesEncodingIndependentFields)
{
    // The B-side decode fields must not depend on the term encoding.
    const ValueLut &canon = ValueLut::of(TermEncoding::Canonical);
    const ValueLut &raw = ValueLut::of(TermEncoding::RawBits);
    ASSERT_EQ(&ValueLut::bDecode(), &canon);
    for (uint32_t bits = 0; bits < 65536; bits += 17) {
        const ValueLut::Entry &a =
            canon.entry(static_cast<uint16_t>(bits));
        const ValueLut::Entry &b =
            raw.entry(static_cast<uint16_t>(bits));
        ASSERT_EQ(a.flags, b.flags) << "bits " << bits;
        ASSERT_EQ(a.biasedExp, b.biasedExp) << "bits " << bits;
        ASSERT_EQ(a.sig, b.sig) << "bits " << bits;
    }
}

TEST(SimMemo, RoundTripVerifiesFullKey)
{
    SimMemo memo(1 << 20);
    const char key[] = "burst-key-bytes";
    const uint64_t value = 0xdeadbeefcafef00dull;
    uint64_t got = 0;

    EXPECT_FALSE(memo.lookup(7, key, sizeof(key), &got, sizeof(got)));
    memo.insert(7, key, sizeof(key), &value, sizeof(value));
    ASSERT_TRUE(memo.lookup(7, key, sizeof(key), &got, sizeof(got)));
    EXPECT_EQ(got, value);

    // A 64-bit hash collision with different key bytes must be a
    // miss, never a wrong value.
    const char other[] = "other-key-bytes";
    static_assert(sizeof(other) == sizeof(key), "same length");
    got = 0;
    EXPECT_FALSE(
        memo.lookup(7, other, sizeof(other), &got, sizeof(got)));
    EXPECT_EQ(got, 0u);
    // A matching key with a different value size is a miss too.
    uint32_t small = 0;
    EXPECT_FALSE(
        memo.lookup(7, key, sizeof(key), &small, sizeof(small)));

    SimMemo::Stats st = memo.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 3u);
    EXPECT_EQ(st.insertions, 1u);
    EXPECT_EQ(st.entries, 1u);
    EXPECT_GT(st.bytes, 0u);
}

TEST(SimMemo, OversizedEntryNeverCached)
{
    SimMemo memo(256); // Far below one entry's cost.
    std::vector<unsigned char> key(512, 0xab);
    uint64_t value = 1, got = 0;
    memo.insert(1, key.data(), key.size(), &value, sizeof(value));
    EXPECT_FALSE(
        memo.lookup(1, key.data(), key.size(), &got, sizeof(got)));
    SimMemo::Stats st = memo.stats();
    EXPECT_EQ(st.insertions, 0u);
    EXPECT_EQ(st.bytes, 0u);
}

TEST(SimMemo, LruEvictsOldestAndRespectsBudget)
{
    // Small budget -> a single stripe; entries cost ~136 bytes each
    // (allocator chunks and nodes included), so the table holds a
    // handful and must evict in LRU order.
    SimMemo memo(512);
    uint64_t got = 0;
    auto put = [&](uint64_t i) {
        memo.insert(i, &i, sizeof(i), &i, sizeof(i));
    };
    auto has = [&](uint64_t i) {
        return memo.lookup(i, &i, sizeof(i), &got, sizeof(got));
    };
    for (uint64_t i = 1; i <= 32; ++i)
        put(i);
    SimMemo::Stats st = memo.stats();
    EXPECT_GT(st.evictions, 0u);
    EXPECT_LE(memo.bytesHeld(), memo.budget());
    EXPECT_TRUE(has(32));  // Most recent insert survives...
    EXPECT_FALSE(has(1));  // ...the oldest was evicted.

    // A hit refreshes recency: touch the LRU-oldest survivor, insert
    // until eviction strikes again, and the touched entry survives.
    uint64_t oldest = 0;
    for (uint64_t i = 1; i <= 32; ++i)
        if (has(i)) {
            oldest = i;
            break;
        }
    ASSERT_NE(oldest, 0u);
    const uint64_t evictions_before = memo.stats().evictions;
    for (uint64_t i = 100; memo.stats().evictions <
                           evictions_before + 2; ++i) {
        put(i);
        EXPECT_TRUE(has(oldest));
        has(oldest); // Keep it most-recent.
    }
}

// ---------------------------------------------------------------- phase

void
expectPhaseEqual(const PhaseRunResult &a, const PhaseRunResult &b,
                 const char *what)
{
    EXPECT_EQ(a.avgCyclesPerStep, b.avgCyclesPerStep) << what;
    EXPECT_EQ(a.steps, b.steps) << what;
    EXPECT_EQ(a.serialSide, b.serialSide) << what;
    EXPECT_EQ(a.peStats.laneUseful, b.peStats.laneUseful) << what;
    EXPECT_EQ(a.peStats.laneNoTerm, b.peStats.laneNoTerm) << what;
    EXPECT_EQ(a.peStats.laneShiftRange, b.peStats.laneShiftRange)
        << what;
    EXPECT_EQ(a.peStats.laneExponent, b.peStats.laneExponent) << what;
    EXPECT_EQ(a.peStats.laneInterPe, b.peStats.laneInterPe) << what;
    EXPECT_EQ(a.peStats.setCycles, b.peStats.setCycles) << what;
    EXPECT_EQ(a.peStats.sets, b.peStats.sets) << what;
    EXPECT_EQ(a.peStats.macs, b.peStats.macs) << what;
    EXPECT_EQ(a.peStats.termsProcessed, b.peStats.termsProcessed)
        << what;
    EXPECT_EQ(a.peStats.termsZeroSkipped, b.peStats.termsZeroSkipped)
        << what;
    EXPECT_EQ(a.peStats.termsObSkipped, b.peStats.termsObSkipped)
        << what;
    EXPECT_EQ(a.serialStats.values, b.serialStats.values) << what;
    EXPECT_EQ(a.serialStats.zeros, b.serialStats.zeros) << what;
    EXPECT_EQ(a.serialStats.terms, b.serialStats.terms) << what;
    EXPECT_EQ(a.parallelStats.values, b.parallelStats.values) << what;
    EXPECT_EQ(a.parallelStats.zeros, b.parallelStats.zeros) << what;
    EXPECT_EQ(a.parallelStats.terms, b.parallelStats.terms) << what;
}

PhaseRunConfig
basePhaseConfig()
{
    PhaseRunConfig cfg;
    cfg.tile = TileConfig{};
    cfg.sampleSteps = 96;
    cfg.stepsPerOutput = 16;
    cfg.seed = 42;
    return cfg;
}

TEST(PhaseMemo, ColdAndWarmMatchMemoOffAcrossThreadCounts)
{
    const ModelInfo &model = findModel("ResNet18-Q");
    const LayerShape &layer = model.layers.front();

    // Reference: the unmemoized serial path.
    PhaseRunConfig off = basePhaseConfig();
    off.memoize = false;
    const PhaseRunResult ref = runPhaseSample(
        model, layer, TrainingOp::Forward, 0.5, off);
    EXPECT_EQ(ref.memoHits, 0u);
    EXPECT_EQ(ref.memoMisses, 0u);

    for (int threads : {1, 2, 8}) {
        SimEngine engine(threads);
        SimMemo memo(8u << 20);
        PhaseRunConfig cfg = basePhaseConfig();
        cfg.engine = &engine;
        cfg.memo = &memo;

        PhaseRunResult cold = runPhaseSample(
            model, layer, TrainingOp::Forward, 0.5, cfg);
        expectPhaseEqual(cold, ref,
                         ("cold t=" + std::to_string(threads)).c_str());
        EXPECT_EQ(cold.memoHits, 0u) << threads;
        EXPECT_GT(cold.memoMisses, 0u) << threads;

        // Generated bursts key on the generator identity: the warm
        // rerun hits every burst and skips even operand generation.
        PhaseRunResult warm = runPhaseSample(
            model, layer, TrainingOp::Forward, 0.5, cfg);
        expectPhaseEqual(warm, ref,
                         ("warm t=" + std::to_string(threads)).c_str());
        const PhasePlan plan = planPhaseSample(
            model, layer, TrainingOp::Forward, 0.5, cfg);
        EXPECT_EQ(warm.memoHits, plan.bursts) << threads;
        EXPECT_EQ(warm.memoMisses, 0u) << threads;
    }
}

TEST(PhaseMemo, PhaseCountersIndependentOfMemo)
{
    const ModelInfo &model = findModel("ResNet18-Q");
    const LayerShape &layer = model.layers.front();

    // The registry's per-layer phase counters must count the same
    // simulated work whether a burst ran the tile or replayed a memo
    // entry, so the registry never under-reports a warm run.
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter *counters[] = {
        &reg.counter("phase.bursts", ""),
        &reg.counter("phase.steps", ""),
        &reg.counter("phase.sim_cycles", ""),
    };
    struct Delta
    {
        uint64_t v[3];
    };
    auto run = [&](const PhaseRunConfig &cfg) {
        Delta d;
        for (int i = 0; i < 3; ++i)
            d.v[i] = counters[i]->value();
        runPhaseSample(model, layer, TrainingOp::Forward, 0.5, cfg);
        for (int i = 0; i < 3; ++i)
            d.v[i] = counters[i]->value() - d.v[i];
        return d;
    };

    PhaseRunConfig off = basePhaseConfig();
    off.memoize = false;
    const Delta ref = run(off);
    const PhasePlan plan = planPhaseSample(
        model, layer, TrainingOp::Forward, 0.5, off);
    EXPECT_EQ(ref.v[0], plan.bursts);
    EXPECT_EQ(ref.v[1], static_cast<uint64_t>(off.sampleSteps));
    EXPECT_GT(ref.v[2], 0u);

    for (int threads : {1, 2, 8}) {
        SimEngine engine(threads);
        SimMemo memo(8u << 20);
        PhaseRunConfig cfg = basePhaseConfig();
        cfg.engine = &engine;
        cfg.memo = &memo;
        const Delta cold = run(cfg);
        const Delta warm = run(cfg);
        const char *names[] = {"bursts", "steps", "sim_cycles"};
        for (int i = 0; i < 3; ++i) {
            EXPECT_EQ(cold.v[i], ref.v[i])
                << names[i] << " cold t=" << threads;
            EXPECT_EQ(warm.v[i], ref.v[i])
                << names[i] << " warm t=" << threads;
        }
    }
}

TEST(PhaseMemo, BurstGrainHitsEveryBurstOnTraceBackedWarmRun)
{
    const ModelInfo &model = findModel("ResNet18-Q");
    const LayerShape &layer = model.layers.front();

    PhaseRunConfig off = basePhaseConfig();
    off.memoize = false;
    const PhaseRunResult ref = runPhaseSample(
        model, layer, TrainingOp::Forward, 0.5, off);

    // An external supply's bursts key on their operand bytes (the
    // content lives in the supplied bytes). Feed the same generator
    // streams through the supply seam to keep ref parity.
    const PhasePlan plan = planPhaseSample(
        model, layer, TrainingOp::Forward, 0.5, basePhaseConfig());
    GeneratorSlabSupply supply(plan.serialProfile, plan.parallelProfile,
                               plan.baseSeed);

    for (int threads : {1, 2, 8}) {
        SimEngine engine(threads);
        SimMemo memo(8u << 20);
        PhaseRunConfig cfg = basePhaseConfig();
        cfg.engine = &engine;
        cfg.memo = &memo;
        cfg.supply = &supply;

        PhaseRunResult cold = runPhaseSample(
            model, layer, TrainingOp::Forward, 0.5, cfg);
        expectPhaseEqual(cold, ref,
                         ("cold t=" + std::to_string(threads)).c_str());
        EXPECT_EQ(cold.memoHits, 0u) << threads;
        EXPECT_EQ(cold.memoMisses, plan.bursts) << threads;

        PhaseRunResult warm = runPhaseSample(
            model, layer, TrainingOp::Forward, 0.5, cfg);
        expectPhaseEqual(warm, ref,
                         ("warm t=" + std::to_string(threads)).c_str());
        EXPECT_EQ(warm.memoHits, plan.bursts) << threads;
        EXPECT_EQ(warm.memoMisses, 0u) << threads;
    }
}

TEST(PhaseMemo, EvictionUnderTinyBudgetStaysBitIdentical)
{
    const ModelInfo &model = findModel("ResNet18-Q");
    const LayerShape &layer = model.layers.front();

    PhaseRunConfig off = basePhaseConfig();
    off.memoize = false;
    const PhaseRunResult ref = runPhaseSample(
        model, layer, TrainingOp::Forward, 0.5, off);

    const PhasePlan plan = planPhaseSample(
        model, layer, TrainingOp::Forward, 0.5, basePhaseConfig());
    GeneratorSlabSupply supply(plan.serialProfile, plan.parallelProfile,
                               plan.baseSeed);

    // Budgets holding roughly one trace-keyed burst entry (its key is
    // the ~4 KiB operand window) or two generator-keyed entries
    // (~0.4 KiB each): inserts keep evicting earlier bursts, and the
    // results must still be bit-identical to the unmemoized run.
    struct Case
    {
        const char *name;
        const SlabSupply *supply;
        size_t budget;
    };
    for (const Case &c : {Case{"trace", &supply, 8u << 10},
                          Case{"generator", nullptr, 1u << 10}}) {
        SimMemo memo(c.budget);
        PhaseRunConfig cfg = basePhaseConfig();
        cfg.memo = &memo;
        cfg.supply = c.supply;
        for (int pass = 0; pass < 3; ++pass) {
            PhaseRunResult got = runPhaseSample(
                model, layer, TrainingOp::Forward, 0.5, cfg);
            expectPhaseEqual(got, ref,
                             (std::string(c.name) + " pass " +
                              std::to_string(pass))
                                 .c_str());
        }
        SimMemo::Stats st = memo.stats();
        EXPECT_GT(st.evictions, 0u) << c.name;
        EXPECT_LE(memo.bytesHeld(), memo.budget()) << c.name;
    }
}

// ---------------------------------- generator-identity burst keys

TEST(PhaseMemo, GeneratedBudgetsShareLeadingFullBursts)
{
    const ModelInfo &model = findModel("ResNet18-Q");
    const LayerShape &layer = model.layers.front();

    auto memoOff = [&](int sample_steps) {
        PhaseRunConfig off = basePhaseConfig();
        off.sampleSteps = sample_steps;
        off.memoize = false;
        return runPhaseSample(model, layer, TrainingOp::Forward, 0.5,
                              off);
    };
    const PhaseRunResult ref96 = memoOff(96);
    const PhaseRunResult ref112 = memoOff(112);
    const PhaseRunResult ref104 = memoOff(104);

    for (int threads : {1, 2, 8}) {
        const std::string t = " t=" + std::to_string(threads);
        SimEngine engine(threads);
        SimMemo memo(8u << 20);
        PhaseRunConfig cfg = basePhaseConfig();
        cfg.engine = &engine;
        cfg.memo = &memo;
        const PhasePlan plan = planPhaseSample(
            model, layer, TrainingOp::Forward, 0.5, cfg);
        ASSERT_EQ(plan.stepsPerOutput, 16);
        ASSERT_EQ(plan.bursts, 6u);

        // 96 steps: six full bursts, all cold.
        PhaseRunResult r96 = runPhaseSample(
            model, layer, TrainingOp::Forward, 0.5, cfg);
        expectPhaseEqual(r96, ref96, ("96" + t).c_str());
        EXPECT_EQ(r96.memoHits, 0u) << t;
        EXPECT_EQ(r96.memoMisses, 6u) << t;

        // 112 steps: bursts 0-5 are the same generator windows, so
        // exactly those six hit; burst 6 misses.
        cfg.sampleSteps = 112;
        PhaseRunResult r112 = runPhaseSample(
            model, layer, TrainingOp::Forward, 0.5, cfg);
        expectPhaseEqual(r112, ref112, ("112" + t).c_str());
        EXPECT_EQ(r112.memoHits, 6u) << t;
        EXPECT_EQ(r112.memoMisses, 1u) << t;

        // 104 steps: the short last burst (8 steps) must not match
        // 112's full burst 6 — its fill length is part of the key.
        cfg.sampleSteps = 104;
        PhaseRunResult r104 = runPhaseSample(
            model, layer, TrainingOp::Forward, 0.5, cfg);
        expectPhaseEqual(r104, ref104, ("104" + t).c_str());
        EXPECT_EQ(r104.memoHits, 6u) << t;
        EXPECT_EQ(r104.memoMisses, 1u) << t;
    }
}

/** @p model with @p kind's profile replaced by the constant @p p. */
ModelInfo
withProfile(ModelInfo model, TensorKind kind, const ValueProfile &p)
{
    const TensorProfile constant = TensorProfile::constant(p);
    switch (kind) {
      case TensorKind::Activation:
        model.profile.activation = constant;
        break;
      case TensorKind::Weight:
        model.profile.weight = constant;
        break;
      case TensorKind::Gradient:
        model.profile.gradient = constant;
        break;
    }
    return model;
}

TEST(PhaseMemo, GeneratedKeysCoverEveryProfileFieldAndTheSeed)
{
    const ModelInfo &zoo = findModel("ResNet18-Q");
    const LayerShape &layer = zoo.layers.front();

    SimMemo memo(8u << 20);
    PhaseRunConfig cfg = basePhaseConfig();
    cfg.memo = &memo;
    cfg.autoSerialSide = false; // Nudges must not flip the sides.
    const PhasePlan plan = planPhaseSample(
        zoo, layer, TrainingOp::Forward, 0.5, cfg);
    // Pin both operands to constant profiles so one field can move
    // at a time.
    const ModelInfo base =
        withProfile(withProfile(zoo, plan.serialSide, plan.serialProfile),
                    plan.parallelSide, plan.parallelProfile);
    runPhaseSample(base, layer, TrainingOp::Forward, 0.5, cfg);
    ASSERT_EQ(runPhaseSample(base, layer, TrainingOp::Forward, 0.5, cfg)
                  .memoHits,
              plan.bursts);

    // One nudge per ValueProfile field; a new field needs its own.
    static_assert(sizeof(ValueProfile) == 7 * sizeof(uint64_t),
                  "nudge the new ValueProfile field below");
    auto unit = [](double &x) { x = x > 0.5 ? x - 0.0625 : x + 0.0625; };
    const std::vector<std::function<void(ValueProfile &)>> nudges = {
        [&](ValueProfile &p) { unit(p.sparsity); },
        [](ValueProfile &p) { p.zeroClusterLen += 1.0; },
        [](ValueProfile &p) { p.expMu += 0.5; },
        [](ValueProfile &p) { p.expSigma += 0.25; },
        [&](ValueProfile &p) { unit(p.expCorr); },
        [](ValueProfile &p) {
            p.mantissaBits = p.mantissaBits == 7 ? 6 : 7;
        },
        [&](ValueProfile &p) { unit(p.bitDensity); },
    };
    for (bool serial : {true, false}) {
        for (size_t f = 0; f < nudges.size(); ++f) {
            ValueProfile p =
                serial ? plan.serialProfile : plan.parallelProfile;
            nudges[f](p);
            const ModelInfo m = withProfile(
                base, serial ? plan.serialSide : plan.parallelSide, p);
            PhaseRunResult r = runPhaseSample(
                m, layer, TrainingOp::Forward, 0.5, cfg);
            EXPECT_EQ(r.memoHits, 0u)
                << (serial ? "serial" : "parallel") << " field " << f;
        }
    }

    PhaseRunConfig reseeded = cfg;
    reseeded.seed += 1;
    EXPECT_EQ(runPhaseSample(base, layer, TrainingOp::Forward, 0.5,
                             reseeded)
                  .memoHits,
              0u);
}

TEST(PhaseMemo, MemoizeFalseBypassesEvenAnInstalledMemo)
{
    const ModelInfo &model = findModel("ResNet18-Q");
    const LayerShape &layer = model.layers.front();

    SimMemo memo(8u << 20);
    PhaseRunConfig cfg = basePhaseConfig();
    cfg.memo = &memo;
    cfg.memoize = false;
    PhaseRunResult r = runPhaseSample(model, layer,
                                      TrainingOp::Forward, 0.5, cfg);
    EXPECT_EQ(r.memoHits, 0u);
    EXPECT_EQ(r.memoMisses, 0u);
    SimMemo::Stats st = memo.stats();
    EXPECT_EQ(st.hits + st.misses + st.insertions, 0u);
}

} // namespace
} // namespace fpraker
