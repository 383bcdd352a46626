#include "accel/phase_runner.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/clock.h"
#include "common/fnv.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fpraker {

namespace {

FPRAKER_METRIC_COUNTER(g_phaseRuns, "phase.runs",
                       "phase samples run");
FPRAKER_METRIC_COUNTER(g_phaseBursts, "phase.bursts",
                       "bursts executed (memo hits included)");
FPRAKER_METRIC_COUNTER(g_phaseSteps, "phase.steps",
                       "sample steps attributed to executed phases");
FPRAKER_METRIC_COUNTER(g_phaseCycles, "phase.sim_cycles",
                       "simulated tile cycles accumulated by phases");
FPRAKER_METRIC_HISTOGRAM(g_burstSeconds, "phase.burst_seconds",
                         "wall seconds one burst took (memo hits "
                         "included — they are the cheap mode)",
                         obs::Buckets::latency());

// ------------------------------------------------------- memo keying
//
// Every memo key starts with a digest over the full simulated-machine
// context (every TileConfig/PeConfig/AccumulatorConfig field plus the
// effective accumulation depth) and a key-kind tag, so entries from
// different machines or kinds can never verify against each other.

constexpr uint64_t kBurstGrainTag = 0xb5b5b5b5'00000001ull;
constexpr uint64_t kGeneratedBurstGrainTag = 0xb5b5b5b5'00000003ull;

uint64_t
tileContextDigest(const TileConfig &t, int steps_per_output)
{
    Fnv64 h;
    h.add(static_cast<uint64_t>(t.pe.lanes));
    h.add(static_cast<uint64_t>(t.pe.maxDelta));
    h.add(static_cast<uint64_t>(t.pe.skipOutOfBounds ? 1 : 0));
    h.add(static_cast<uint64_t>(t.pe.obThreshold));
    h.add(static_cast<uint64_t>(t.pe.encoding));
    h.add(static_cast<uint64_t>(t.pe.acc.fracBits));
    h.add(static_cast<uint64_t>(t.pe.acc.intBits));
    h.add(static_cast<uint64_t>(t.pe.acc.chunkSize));
    h.add(static_cast<uint64_t>(t.pe.exponentFloor));
    h.add(static_cast<uint64_t>(t.rows));
    h.add(static_cast<uint64_t>(t.cols));
    h.add(static_cast<uint64_t>(t.bufferDepth));
    h.add(static_cast<uint64_t>(steps_per_output));
    return h.value();
}

void
appendU64(std::vector<unsigned char> &buf, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<unsigned char>(v >> (i * 8)));
}

void
appendDouble(std::vector<unsigned char> &buf, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    appendU64(buf, bits);
}

// Every field below enters the key: a field added to ValueProfile
// changes what the generator synthesizes, so it must be appended here
// (and this assert updated) or memo hits would ignore it.
static_assert(sizeof(ValueProfile) == 7 * sizeof(uint64_t),
              "ValueProfile changed: append the new field to "
              "appendProfile so the memo keys still cover it");

void
appendProfile(std::vector<unsigned char> &buf, const ValueProfile &p)
{
    appendDouble(buf, p.sparsity);
    appendDouble(buf, p.zeroClusterLen);
    appendDouble(buf, p.expMu);
    appendDouble(buf, p.expSigma);
    appendDouble(buf, p.expCorr);
    appendU64(buf, static_cast<uint64_t>(p.mantissaBits));
    appendDouble(buf, p.bitDensity);
}

/**
 * Identity of a generator-backed phase's operand streams: the window
 * widths plus everything GeneratorSlabSupply::fill* reads besides the
 * burst index and fill length — the base seed and both profiles,
 * serial then parallel. Built once per phase and appended to every
 * generated burst's key.
 */
std::vector<unsigned char>
generatorIdentity(const PhasePlan &plan)
{
    std::vector<unsigned char> id;
    appendU64(id, static_cast<uint64_t>(plan.aLen));
    appendU64(id, static_cast<uint64_t>(plan.bLen));
    appendU64(id, plan.baseSeed);
    appendProfile(id, plan.serialProfile);
    appendProfile(id, plan.parallelProfile);
    return id;
}

/** Cached burst payload — everything a phase run reads of a burst. */
struct BurstMemoValue
{
    uint64_t cycles = 0;
    PeStats peStats;
    TensorStats serialStats;
    TensorStats parallelStats;
};
static_assert(std::is_trivially_copyable_v<BurstMemoValue> &&
                  sizeof(BurstMemoValue) ==
                      (1 + 11 + 3 + 3) * sizeof(uint64_t),
              "BurstMemoValue must be a packed POD (memo byte copies)");

} // namespace

TensorKind
chooseSerialSide(const ModelInfo &model, TrainingOp op, double progress)
{
    OpOperands operands = operandsOf(op);
    ValueProfile a = model.profile.of(operands.first).at(progress);
    ValueProfile b = model.profile.of(operands.second).at(progress);
    return a.expectedTermsPerValue() <= b.expectedTermsPerValue()
               ? operands.first
               : operands.second;
}

PhasePlan
planPhaseSample(const ModelInfo &model, const LayerShape &layer,
                TrainingOp op, double progress, const PhaseRunConfig &cfg)
{
    panic_if(cfg.sampleSteps < 1, "need at least one sample step");

    PhasePlan plan;
    OpOperands operands = operandsOf(op);
    plan.serialSide = cfg.autoSerialSide
                          ? chooseSerialSide(model, op, progress)
                          : operands.first;
    plan.parallelSide = plan.serialSide == operands.first
                            ? operands.second
                            : operands.first;
    plan.serialProfile =
        model.profile.of(plan.serialSide).at(progress);
    plan.parallelProfile =
        model.profile.of(plan.parallelSide).at(progress);

    // Seed streams per (layer, op) so repeated runs are reproducible
    // but distinct layers see distinct values.
    plan.baseSeed = cfg.seed * 1000003 +
                    std::hash<std::string>{}(layer.name) +
                    static_cast<uint64_t>(op) * 97;

    const int lanes = cfg.tile.pe.lanes;
    plan.aLen = static_cast<size_t>(cfg.tile.cols) * lanes;
    plan.bLen = static_cast<size_t>(cfg.tile.rows) * lanes;
    plan.sampleSteps = cfg.sampleSteps;

    // Cap the accumulation depth at the layer's actual K traversal.
    plan.stepsPerOutput = std::max<int>(
        1, std::min<int64_t>(cfg.stepsPerOutput,
                             (layer.k + lanes - 1) / lanes));
    plan.bursts = (static_cast<size_t>(cfg.sampleSteps) +
                   static_cast<size_t>(plan.stepsPerOutput) - 1) /
                  static_cast<size_t>(plan.stepsPerOutput);
    return plan;
}

PhaseRunResult
runPhaseSample(const ModelInfo &model, const LayerShape &layer,
               TrainingOp op, double progress, const PhaseRunConfig &cfg)
{
    const PhasePlan plan =
        planPhaseSample(model, layer, op, progress, cfg);
    const size_t a_len = plan.aLen;
    const size_t b_len = plan.bLen;

    g_phaseRuns.add();
    obs::TraceSpan phaseSpan(
        "phase", obs::TraceCollector::instance().enabled()
                     ? layer.name + ":" + opLabel(op)
                     : std::string());

    SimMemo *memo =
        cfg.memoize ? (cfg.memo ? cfg.memo : SimMemo::global()) : nullptr;
    const uint64_t ctx_digest =
        memo ? tileContextDigest(cfg.tile, plan.stepsPerOutput) : 0;

    // A generated burst keys on the phase's generator identity (built
    // once here); a trace-backed burst keys on its operand bytes.
    const bool generated_supply = !cfg.supply;
    const std::vector<unsigned char> gen_identity =
        memo && generated_supply ? generatorIdentity(plan)
                                 : std::vector<unsigned char>();

    // Operand streams arrive through the SlabSupply seam: the default
    // generator-backed supply synthesizes each burst's windows from
    // the profile substreams (exactly the historical per-burst
    // generators), while a trace-backed supply replays recorded
    // streams. Either way the fill is a pure function of the burst
    // index, so sharding stays bit-identical.
    GeneratorSlabSupply generated(plan.serialProfile,
                                  plan.parallelProfile, plan.baseSeed);
    const SlabSupply &supply = cfg.supply ? *cfg.supply : generated;

    // A burst covers one output block (the accumulators reset between
    // blocks), which makes bursts fully independent simulation units:
    // each fills its own operand windows through the supply and runs a
    // private tile. Bursts therefore shard across the engine and
    // reduce in burst order, bit-identical to the serial walk at any
    // thread count.
    const size_t n_bursts = plan.bursts;

    struct BurstResult
    {
        uint64_t cycles = 0;
        PeStats peStats;
        TensorStats serialStats;
        TensorStats parallelStats;
        bool memoHit = false;
    };
    std::vector<BurstResult> bursts(n_bursts);

    const bool shard_bursts =
        cfg.engine && cfg.engine->threads() > 1 && n_bursts > 1;
    // When the bursts themselves shard, the tile runs serially inside
    // each one — handing it the engine too would only over-post helper
    // tasks that find the column batch already drained.
    SimEngine *tile_engine = shard_bursts ? nullptr : cfg.engine;

    // Every field matters, not just geometry: a pool built for a
    // different encoding/threshold/accumulator would silently hand
    // out tiles that simulate the wrong machine.
    panic_if(cfg.pool && !(cfg.pool->config() == cfg.tile),
             "tile pool config does not match the phase config");

    auto run_burst = [&](size_t bi) {
        const size_t burst = plan.burstSteps(bi);
        const int64_t burst_t0 = now_ns();
        obs::TraceSpan burstSpan(
            "burst", obs::TraceCollector::instance().enabled()
                         ? layer.name + ":b" + std::to_string(bi)
                         : std::string());
        BurstResult &out = bursts[bi];

        // Burst grain: a burst is a pure function of the machine
        // context and its operand window bytes (accumulators reset
        // between bursts and phase runs never read the tile's float
        // outputs), so identical content — re-sampled phases sharing
        // their leading bursts, im2col-overlapping conv windows —
        // skips the tile entirely. A hit copies bytes a prior
        // identical computation produced, so results stay
        // bit-identical; only WHICH bursts hit can vary with thread
        // interleaving, which is why hit counts are provenance, never
        // fingerprint.
        thread_local std::vector<unsigned char> key_buf;
        uint64_t burst_hash = 0;
        auto probe = [&]() {
            Fnv64 h;
            h.addBytes(key_buf.data(), key_buf.size());
            burst_hash = h.value();
            BurstMemoValue v;
            if (!memo->lookup(burst_hash, key_buf.data(), key_buf.size(),
                              &v, sizeof(v)))
                return false;
            out.cycles = v.cycles;
            out.peStats = v.peStats;
            out.serialStats = v.serialStats;
            out.parallelStats = v.parallelStats;
            out.memoHit = true;
            g_phaseBursts.add();
            g_burstSeconds.observe(
                static_cast<double>(now_ns() - burst_t0) * 1e-9);
            return true;
        };

        // A generated burst's bytes are a pure function of the phase's
        // generator identity, the burst index and the fill length, so
        // it keys on those and a hit skips the operand fill too.
        if (memo && generated_supply) {
            key_buf.clear();
            appendU64(key_buf, ctx_digest);
            appendU64(key_buf, kGeneratedBurstGrainTag);
            appendU64(key_buf, static_cast<uint64_t>(burst));
            appendU64(key_buf, static_cast<uint64_t>(bi));
            key_buf.insert(key_buf.end(), gen_identity.begin(),
                           gen_identity.end());
            if (probe())
                return;
        }

        // Borrow pooled scratch when a pool is configured; otherwise
        // construct the burst's working set locally. Pooled reuse is
        // bit-identical (Tile::resetForReuse) and allocation-free.
        std::optional<TilePool::Lease> lease;
        std::optional<TilePool::Scratch> local;
        if (cfg.pool)
            lease.emplace(cfg.pool->acquire());
        else
            local.emplace(cfg.tile);
        TilePool::Scratch &scratch = lease ? **lease : *local;
        scratch.a.resize(burst * a_len);
        scratch.b.resize(burst * b_len);
        scratch.views.resize(burst);

        // One window per operand covers the whole burst (the
        // generator's fill is chunk-invariant, so this matches the
        // historical per-step fills byte for byte).
        supply.fillSerial(bi, scratch.a.data(), burst * a_len);
        supply.fillParallel(bi, scratch.b.data(), burst * b_len);

        // A trace-backed burst has no generator behind it: its bytes
        // are its identity, so the key holds them verbatim.
        if (memo && !generated_supply) {
            key_buf.clear();
            appendU64(key_buf, ctx_digest);
            appendU64(key_buf, kBurstGrainTag);
            appendU64(key_buf, static_cast<uint64_t>(burst));
            appendU64(key_buf, static_cast<uint64_t>(a_len));
            appendU64(key_buf, static_cast<uint64_t>(b_len));
            const size_t header = key_buf.size();
            key_buf.resize(header +
                           (burst * a_len + burst * b_len) *
                               sizeof(BFloat16));
            std::memcpy(key_buf.data() + header, scratch.a.data(),
                        burst * a_len * sizeof(BFloat16));
            std::memcpy(key_buf.data() + header +
                            burst * a_len * sizeof(BFloat16),
                        scratch.b.data(),
                        burst * b_len * sizeof(BFloat16));
            if (probe())
                return;
        }

        for (size_t s = 0; s < burst; ++s) {
            BFloat16 *a = scratch.a.data() + s * a_len;
            BFloat16 *b = scratch.b.data() + s * b_len;
            out.serialStats.merge(
                measureTensor(a, a_len, cfg.tile.pe.encoding));
            out.parallelStats.merge(
                measureTensor(b, b_len, cfg.tile.pe.encoding));
            scratch.views[s] = TileStepView{a, b};
        }

        TileRunResult run = scratch.tile.run(scratch.views.data(),
                                             burst, tile_engine);
        out.cycles = run.cycles;
        out.peStats = scratch.tile.aggregateStats();

        if (memo) {
            BurstMemoValue v;
            v.cycles = out.cycles;
            v.peStats = out.peStats;
            v.serialStats = out.serialStats;
            v.parallelStats = out.parallelStats;
            memo->insert(burst_hash, key_buf.data(), key_buf.size(),
                         &v, sizeof(v));
        }
        g_phaseBursts.add();
        g_burstSeconds.observe(
            static_cast<double>(now_ns() - burst_t0) * 1e-9);
    };

    if (shard_bursts)
        cfg.engine->parallelFor(n_bursts, run_burst);
    else
        for (size_t bi = 0; bi < n_bursts; ++bi)
            run_burst(bi);

    PhaseRunResult result;
    result.serialSide = plan.serialSide;
    uint64_t total_cycles = 0;
    for (const BurstResult &b : bursts) {
        total_cycles += b.cycles;
        result.peStats.merge(b.peStats);
        result.serialStats.merge(b.serialStats);
        result.parallelStats.merge(b.parallelStats);
        if (b.memoHit)
            result.memoHits += 1;
        else if (memo)
            result.memoMisses += 1;
    }
    result.steps = static_cast<uint64_t>(cfg.sampleSteps);
    result.avgCyclesPerStep = static_cast<double>(total_cycles) /
                              static_cast<double>(cfg.sampleSteps);
    g_phaseSteps.add(result.steps);
    g_phaseCycles.add(total_cycles);
    return result;
}

} // namespace fpraker
