/**
 * @file
 * Perf-regression experiment: times fixed, seeded workloads on the
 * cycle-level simulator and emits BENCH_PR10.json, extending the
 * BENCH_PR<N>.json trajectory each perf PR must beat
 * (docs/PERFORMANCE.md explains how to read and append it).
 *
 * Timed sections:
 *
 *  - tile_kernel — the PR 1 comparison, unchanged: the seed algorithm
 *    (ReferenceColumn / ReferenceTile), the optimized engine at one
 *    thread, and at --threads=N, over identical pre-generated operand
 *    slabs.
 *  - sweep — the PR 2 tentpole: several whole tile-kernel jobs (the
 *    kernel workload replicated under per-job RNG substreams, keeping
 *    sets/sec comparable) submitted through one SweepRunner and timed
 *    at 1, 2, and 8 threads. The FNV-1a checksum over every job's
 *    outputs must be identical at every thread count.
 *  - model_sweep — a three-model sweep of full accelerator runs (the
 *    Fig. 11 unit of work) through the same runner, serial vs
 *    parallel.
 *  - generation — the PR 4 data-supply benchmark: the scalar
 *    value-at-a-time TensorGenerator walk vs the batched slab path
 *    (integer-threshold Bernoullis + SIMD field packing), which must
 *    produce identical bits, plus the slab term classifier
 *    (slab_ops countTerms) timed on its own.
 *  - baseline_tile — the functional bit-parallel tile's batched row
 *    walk, serial, with an output digest.
 *  - serving — the PR 5 serving layer (src/serve/): a cold/hot
 *    request replay against an in-process JobScheduler, reporting
 *    requests/s on both paths, hot p50/p99 latency, and the cache
 *    hit rate (scripts/check_perf_floor.py gates the hot/cold
 *    ratio).
 *  - shed — the PR 6 robustness layer: an open-loop overload burst
 *    against a bounded scheduler queue; admission control must shed
 *    the overflow with retry_after hints at flat accept latency,
 *    and every shed spec must complete under the client
 *    RetryPolicy.
 *  - workload — the PR 8 ingestion seam: replaying a recorded
 *    PhaseTrace through the SlabSupply seam vs synthesizing the same
 *    operand streams with the generator, over one im2col-lowered
 *    conv phase. The replayed and synthesized streams must be
 *    bit-identical.
 *  - memo — the PR 9 burst memo (sim/sim_memo.h): the same conv
 *    phase simulated end-to-end through runPhaseSample with the memo
 *    off, cold (fresh: every burst misses and inserts), and warm
 *    (primed: every burst hits, skipping the tile), over the trace
 *    supply (content keys) and again over the generator supply
 *    (generator-identity keys; a warm hit skips the operand fill
 *    too). All five result digests must be identical; the
 *    warm-replay speedup over cold is the payoff
 *    scripts/check_perf_floor.py gates.
 *  - telemetry — the PR 10 observability layer (src/obs/): the
 *    per-operation cost of one counter add, one histogram observe,
 *    and a TraceSpan with tracing disabled, over tight loops.
 *    scripts/check_perf_floor.py bounds these absolutely (ns/op):
 *    an instrumented-but-idle seam must stay invisible next to a
 *    microsecond-scale tile step.
 *
 * The experiment refuses to report a speedup over diverging runs
 * (Result::ok goes false, exit status 1). Because the document
 * contains wall-clock readings, it overrides its content fingerprint
 * with the combined determinism checksums — which ARE run-invariant —
 * so `run --all` fingerprint comparisons stay meaningful.
 *
 *   fpraker run perf_regression [--threads=N] [--steps=N] [--reps=N]
 *                               [--out=FILE]
 *
 * FPRAKER_SAMPLE_STEPS scales the tile workload (CI smoke runs pin a
 * small budget and compare the emitted checksums against
 * bench/SMOKE_BASELINE.json via scripts/check_smoke_checksums.sh).
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <functional>

#include <thread>

#include "api/api.h"
#include "common/clock.h"
#include "common/fnv.h"
#include "numeric/slab_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/throughput.h"
#include "numeric/term_lut.h"
#include "sim/sim_memo.h"
#include "sim/reference_column.h"
#include "trace/rng_stream.h"
#include "trace/tensor_gen.h"
#include "workload/supply.h"

namespace fpraker {
namespace {

using namespace api;

/**
 * Raw (separator-free) FNV-1a over native value bytes — the framing
 * bench/SMOKE_BASELINE.json pins, now layered on common/fnv.h.
 */
class Checksum
{
  public:
    void addBytes(const void *data, size_t n) { h_.addBytes(data, n); }
    void add(uint64_t v) { h_.addRaw(v); }
    void add(double v) { h_.addRaw(v); }
    void add(float v) { h_.addRaw(v); }

    void
    add(const PeStats &s)
    {
        add(s.laneUseful);
        add(s.laneNoTerm);
        add(s.laneShiftRange);
        add(s.laneExponent);
        add(s.laneInterPe);
        add(s.setCycles);
        add(s.sets);
        add(s.macs);
        add(s.termsProcessed);
        add(s.termsZeroSkipped);
        add(s.termsObSkipped);
    }

    uint64_t value() const { return h_.value(); }

  private:
    Fnv64 h_;
};

double
now()
{
    return monotonicSeconds();
}

std::string
hex16(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

struct TileTiming
{
    double seconds = 0;
    uint64_t cycles = 0;
    uint64_t checksum = 0;
};

/** The fixed tile workload: geometry, burst length, operand slabs. */
struct Workload
{
    TileConfig tile;
    int steps = 0;
    int burst = 32; //!< Steps per output block (accumulator reset).
    std::vector<BFloat16> a; //!< [step][col * lanes + l]
    std::vector<BFloat16> b; //!< [step][row * lanes + l]
};

Workload
makeWorkload(const ModelInfo &model, int steps, uint64_t seed)
{
    Workload w;
    w.tile = AcceleratorConfig::paperDefault().tile;
    w.steps = steps;
    const int lanes = w.tile.pe.lanes;
    const size_t a_len = static_cast<size_t>(w.tile.cols) * lanes;
    const size_t b_len = static_cast<size_t>(w.tile.rows) * lanes;

    ValueProfile serial =
        model.profile.of(TensorKind::Activation).at(0.5);
    ValueProfile parallel = model.profile.of(TensorKind::Weight).at(0.5);
    TensorGenerator a_gen(serial, seed);
    TensorGenerator b_gen(parallel, seed ^ 0x5eed);
    w.a.resize(static_cast<size_t>(steps) * a_len);
    w.b.resize(static_cast<size_t>(steps) * b_len);
    a_gen.fill(w.a.data(), w.a.size());
    b_gen.fill(w.b.data(), w.b.size());
    return w;
}

/** Time the seed-parity algorithm over the workload. */
TileTiming
runSeedSerial(const Workload &w)
{
    const int lanes = w.tile.pe.lanes;
    const size_t a_len = static_cast<size_t>(w.tile.cols) * lanes;
    const size_t b_len = static_cast<size_t>(w.tile.rows) * lanes;

    ReferenceTile tile(w.tile.pe, w.tile.rows, w.tile.cols,
                       w.tile.bufferDepth);
    TileTiming t;
    Checksum sum;
    double t0 = now();
    for (int s = 0; s < w.steps; s += w.burst) {
        size_t burst = static_cast<size_t>(
            std::min(w.burst, w.steps - s));
        ReferenceTileResult res =
            tile.run(w.a.data() + static_cast<size_t>(s) * a_len,
                     w.b.data() + static_cast<size_t>(s) * b_len, burst);
        t.cycles += res.cycles;
        for (int r = 0; r < w.tile.rows; ++r)
            for (int c = 0; c < w.tile.cols; ++c)
                sum.add(tile.output(r, c));
        tile.resetAccumulators();
    }
    t.seconds = now() - t0;
    sum.add(t.cycles);
    sum.add(tile.aggregateStats());
    t.checksum = sum.value();
    return t;
}

/** Time the optimized engine over the workload at a thread count. */
TileTiming
runOptimized(const Workload &w, int threads)
{
    const int lanes = w.tile.pe.lanes;
    const size_t a_len = static_cast<size_t>(w.tile.cols) * lanes;
    const size_t b_len = static_cast<size_t>(w.tile.rows) * lanes;

    SimEngine engine(threads);
    Tile tile(w.tile);
    std::vector<TileStepView> views(static_cast<size_t>(w.burst));
    TileTiming t;
    Checksum sum;
    double t0 = now();
    for (int s = 0; s < w.steps; s += w.burst) {
        size_t burst = static_cast<size_t>(
            std::min(w.burst, w.steps - s));
        for (size_t i = 0; i < burst; ++i) {
            size_t step = static_cast<size_t>(s) + i;
            views[i] = TileStepView{w.a.data() + step * a_len,
                                    w.b.data() + step * b_len};
        }
        TileRunResult res = tile.run(views.data(), burst, &engine);
        t.cycles += res.cycles;
        for (int r = 0; r < w.tile.rows; ++r)
            for (int c = 0; c < w.tile.cols; ++c)
                sum.add(tile.output(r, c));
        tile.resetAccumulators();
    }
    t.seconds = now() - t0;
    sum.add(t.cycles);
    sum.add(tile.aggregateStats());
    t.checksum = sum.value();
    return t;
}

uint64_t
reportChecksum(const ModelRunReport &r)
{
    Checksum sum;
    sum.add(r.fprCycles);
    sum.add(r.baseCycles);
    sum.add(r.fprEnergy.totalPj());
    sum.add(r.baseEnergy.totalPj());
    for (const LayerOpReport &op : r.ops) {
        sum.add(op.fprCycles);
        sum.add(op.baseCycles);
        sum.add(op.avgCyclesPerStep);
        sum.add(op.trafficBytesCompressed);
        sum.add(op.sampleStats);
    }
    return sum.value();
}

REGISTER_EXPERIMENT("perf_regression", "Perf",
                    "perf regression: wall-clock trajectory "
                    "(BENCH_PR<N>.json) + determinism gate",
                    "kernel, sweep, and generation throughput no "
                    "worse than BENCH_PR3.json; checksums "
                    "bit-identical across the seed, serial, parallel, "
                    "sweep, and slab-generation paths")
{
    // The legacy harness defaulted to 8 threads regardless of
    // FPRAKER_THREADS; an explicit --threads=N still wins.
    const int threads = session.threadsExplicit()
                            ? session.requestedThreads()
                            : 8;
    const int steps =
        session.intOption("steps", session.sampleSteps(4096));
    const int reps = session.intOption("reps", 3);
    const std::string out_path =
        session.strOption("out", "BENCH_PR10.json");

    const char *model_name = "ResNet18-Q";
    const ModelInfo &model = findModel(model_name);
    const uint64_t seed = 0xf9a4e5;
    Workload w = makeWorkload(model, steps, seed);
    const uint64_t sets =
        static_cast<uint64_t>(w.steps) * w.tile.cols;

    Result res;
    res.defaultJsonPath = out_path;
    // This experiment drives its own engines at `threads` and samples
    // `steps` tile steps, not the session defaults — record the knobs
    // actually used so the provenance reproduces the run.
    res.threads = threads;
    res.sampleSteps = steps;

    // Best-of-N: each configuration re-runs the identical workload
    // from a fresh tile; the minimum wall time is the least-perturbed
    // sample and every rep must checksum identically.
    bool deterministic_reps = true;
    auto best = [&](const std::function<TileTiming()> &f) {
        TileTiming best_t = f();
        for (int i = 1; i < reps; ++i) {
            TileTiming t = f();
            if (t.checksum != best_t.checksum)
                deterministic_reps = false;
            if (t.seconds < best_t.seconds)
                best_t = t;
        }
        return best_t;
    };
    TileTiming seed_t = best([&] { return runSeedSerial(w); });
    TileTiming serial_t = best([&] { return runOptimized(w, 1); });
    TileTiming par_t = best([&] { return runOptimized(w, threads); });

    bool tile_identical = seed_t.checksum == serial_t.checksum &&
                          seed_t.checksum == par_t.checksum;
    double speedup_serial = seed_t.seconds / serial_t.seconds;
    double speedup_parallel = seed_t.seconds / par_t.seconds;

    char caption[128];
    std::snprintf(caption, sizeof(caption),
                  "tile kernel: %d steps (%" PRIu64
                  " column-sets), %dx%d tile",
                  w.steps, sets, w.tile.rows, w.tile.cols);
    ResultTable &kt = res.table("tile_kernel",
                                {"config", "seconds", "sets/s",
                                 "vs seed", "checksum"});
    kt.caption = caption;
    kt.addRow({"seed serial", Table::cell(seed_t.seconds, 3),
               Table::cell(sets / seed_t.seconds, 0), "1.00",
               hex16(seed_t.checksum)});
    kt.addRow({"optimized serial", Table::cell(serial_t.seconds, 3),
               Table::cell(sets / serial_t.seconds, 0),
               Table::cell(speedup_serial), hex16(serial_t.checksum)});
    kt.addRow({std::to_string(threads) + " threads",
               Table::cell(par_t.seconds, 3),
               Table::cell(sets / par_t.seconds, 0),
               Table::cell(speedup_parallel), hex16(par_t.checksum)});

    // Sweep section: several whole tile-kernel jobs submitted through
    // a single SweepRunner. Jobs replicate the kernel workload (same
    // model profile, so sets/sec stays comparable across the
    // BENCH_PR<N> trajectory) with per-job RNG substreams, and
    // pre-generate their slabs untimed; the timed region is the
    // sharded simulation itself. Every thread count must reproduce
    // the same combined checksum.
    const size_t sweep_jobs = 6;
    const int sweep_steps = std::max(1, steps / 2);
    std::vector<Workload> sweep_w;
    for (size_t j = 0; j < sweep_jobs; ++j)
        sweep_w.push_back(
            makeWorkload(model, sweep_steps, substreamSeed(seed, j)));
    const uint64_t sweep_sets = static_cast<uint64_t>(sweep_jobs) *
                                static_cast<uint64_t>(sweep_steps) *
                                w.tile.cols;

    const int sweep_threads[3] = {1, 2, 8};
    double sweep_s[3] = {};
    uint64_t sweep_sum[3] = {};
    for (int ti = 0; ti < 3; ++ti) {
        auto run_once = [&]() {
            SweepRunner runner(sweep_threads[ti]);
            std::vector<uint64_t> job_sums(sweep_jobs);
            TileTiming t;
            double t0 = now();
            runner.parallelFor(sweep_jobs, [&](size_t j) {
                TileTiming jt = runOptimized(sweep_w[j], 1);
                job_sums[j] = jt.checksum;
            });
            t.seconds = now() - t0;
            Checksum sum;
            for (uint64_t s_j : job_sums)
                sum.add(s_j);
            t.checksum = sum.value();
            return t;
        };
        TileTiming t = best(run_once);
        sweep_s[ti] = t.seconds;
        sweep_sum[ti] = t.checksum;
    }
    bool sweep_identical = sweep_sum[0] == sweep_sum[1] &&
                           sweep_sum[0] == sweep_sum[2];
    double sweep_best_s = std::min({sweep_s[0], sweep_s[1], sweep_s[2]});

    std::snprintf(caption, sizeof(caption),
                  "sweep: %zu tile-kernel jobs (%d steps each, %" PRIu64
                  " column-sets total) via SweepRunner",
                  sweep_jobs, sweep_steps, sweep_sets);
    ResultTable &st = res.table(
        "sweep", {"threads", "seconds", "sets/s", "checksum"});
    st.caption = caption;
    for (int ti = 0; ti < 3; ++ti)
        st.addRow({std::to_string(sweep_threads[ti]),
                   Table::cell(sweep_s[ti], 3),
                   Table::cell(sweep_sets / sweep_s[ti], 0),
                   hex16(sweep_sum[ti])});

    // Model sweep: full accelerator runs (the Fig. 11 unit of work)
    // for three models through one runner, serial vs parallel.
    const char *sweep_models[3] = {"ResNet18-Q", "SNLI",
                                   "SqueezeNet 1.1"};
    AcceleratorConfig mcfg = AcceleratorConfig::paperDefault();
    mcfg.sampleSteps = session.sampleSteps(96);
    // The serial run would warm the memo for the parallel run,
    // contaminating the serial-vs-parallel comparison; values are
    // bit-identical either way, so turn it off for this section.
    mcfg.memoize = false;
    auto model_sweep = [&](int t) {
        SweepRunner runner(t);
        const Accelerator &accel = runner.addAccelerator(mcfg);
        std::vector<SweepJob> jobs;
        for (const char *name : sweep_models)
            jobs.push_back(SweepJob{&accel, &findModel(name), 0.5});
        double t0 = now();
        std::vector<ModelRunReport> reports = runner.runModels(jobs);
        double secs = now() - t0;
        Checksum sum;
        for (const ModelRunReport &r : reports)
            sum.add(reportChecksum(r));
        return std::pair<double, uint64_t>(secs, sum.value());
    };
    auto [model_serial_s, model_sum_1] = model_sweep(1);
    auto [model_parallel_s, model_sum_n] = model_sweep(threads);
    bool model_identical = model_sum_1 == model_sum_n;

    std::snprintf(caption, sizeof(caption),
                  "model sweep (3 models, %d sample steps/op):",
                  mcfg.sampleSteps);
    ResultTable &mt = res.table(
        "model_sweep", {"mode", "seconds", "speedup", "checksum"});
    mt.caption = caption;
    mt.addRow({"serial", Table::cell(model_serial_s, 3), "1.00",
               hex16(model_sum_1)});
    mt.addRow({std::to_string(threads) + " threads",
               Table::cell(model_parallel_s, 3),
               Table::cell(model_serial_s / model_parallel_s),
               hex16(model_sum_n)});

    // Generation section: the tensor data-supply path. Scalar
    // value-at-a-time walk vs the batched slab path over the same
    // profile/seed (digests must match bit for bit), plus the term
    // classifier over the kernel's A slab.
    const size_t gen_n = std::max<size_t>(w.a.size(), 4096);
    std::vector<BFloat16> gen_buf(gen_n);
    ValueProfile gen_profile =
        model.profile.of(TensorKind::Activation).at(0.5);
    auto gen_run = [&](bool batched) {
        TensorGenerator gen(gen_profile, seed ^ 0x6e6);
        TileTiming t;
        double t0 = now();
        if (batched)
            gen.fill(gen_buf.data(), gen_n);
        else
            gen.fillScalar(gen_buf.data(), gen_n);
        t.seconds = now() - t0;
        Checksum sum;
        sum.addBytes(gen_buf.data(), gen_buf.size() * sizeof(BFloat16));
        t.checksum = sum.value();
        return t;
    };
    TileTiming gen_scalar_t = best([&] { return gen_run(false); });
    TileTiming gen_batched_t = best([&] { return gen_run(true); });
    bool gen_identical = gen_scalar_t.checksum == gen_batched_t.checksum;
    double gen_speedup = gen_scalar_t.seconds / gen_batched_t.seconds;

    const TermLut &lut = TermLut::of(TermEncoding::Canonical);
    TileTiming count_t = best([&] {
        TileTiming t;
        uint64_t zeros = 0, terms = 0;
        double t0 = now();
        slab::countTerms(w.a.data(), w.a.size(), lut.countsTable(),
                         &zeros, &terms);
        t.seconds = now() - t0;
        Checksum sum;
        sum.add(zeros);
        sum.add(terms);
        t.checksum = sum.value();
        return t;
    });

    std::snprintf(caption, sizeof(caption),
                  "generation: %zu values (batched slab path, SIMD "
                  "level %s)",
                  gen_n, slab::simdLevel());
    ResultTable &gt = res.table(
        "generation", {"path", "seconds", "values/s", "speedup"});
    gt.caption = caption;
    gt.addRow({"tensor-gen scalar", Table::cell(gen_scalar_t.seconds, 4),
               Table::cell(gen_n / gen_scalar_t.seconds, 0), "1.00"});
    gt.addRow({"tensor-gen batched",
               Table::cell(gen_batched_t.seconds, 4),
               Table::cell(gen_n / gen_batched_t.seconds, 0),
               Table::cell(gen_speedup)});
    gt.addRow({"term-count scalar", Table::cell(count_t.seconds, 4),
               Table::cell(w.a.size() / count_t.seconds, 0), "1.00"});

    // Workload ingestion (PR 8): one im2col-lowered conv phase
    // (AlexNet conv2 forward), operand streams supplied two ways —
    // synthesized by the generator-backed supply vs replayed from a
    // recorded PhaseTrace — through the same SlabSupply seam the
    // phase runner consumes. The streams must be bit-identical; the
    // replay should stay ahead of synthesis (it is a window copy).
    const workload::CatalogModel &wl_cat =
        workload::findWorkloadModel("AlexNet");
    workload::LoweredModel wl_model(wl_cat,
                                    workload::BatchGeometry{16, 64});
    AcceleratorConfig wl_cfg = AcceleratorConfig::paperDefault();
    wl_cfg.sampleSteps = steps;
    size_t wl_unit = 0;
    for (size_t i = 0; i < wl_model.units().size(); ++i)
        if (wl_model.units()[i].layer->name == "conv2" &&
            wl_model.units()[i].op == TrainingOp::Forward)
            wl_unit = i;
    const PhasePlan wl_plan =
        workload::unitPlan(wl_model, wl_unit, wl_cfg, 0.5);
    workload::PhaseTrace wl_trace =
        workload::PhaseTrace::capture(wl_plan);
    workload::TraceSlabSupply wl_replay(wl_trace);
    GeneratorSlabSupply wl_gen(wl_plan.serialProfile,
                               wl_plan.parallelProfile,
                               wl_plan.baseSeed);
    const size_t wl_values = wl_trace.serialValues().size() +
                             wl_trace.parallelValues().size();
    // Small --steps budgets (CI smoke) make one pass too short to
    // time; repeat the identical fill loop until the work is a few
    // million values. The round count is a pure function of the
    // knobs, so reps stay comparable and the digest covers one pass.
    const int wl_rounds = std::max<int>(
        1, static_cast<int>(4000000 / std::max<size_t>(1, wl_values)));
    std::vector<BFloat16> wl_sbuf(wl_trace.serialValues().size());
    std::vector<BFloat16> wl_pbuf(wl_trace.parallelValues().size());
    auto wl_run = [&](const SlabSupply &supply) {
        TileTiming t;
        double t0 = now();
        for (int round = 0; round < wl_rounds; ++round) {
            size_t s_off = 0, p_off = 0;
            for (size_t bi = 0; bi < wl_plan.bursts; ++bi) {
                const size_t sb = wl_plan.burstSteps(bi);
                supply.fillSerial(bi, wl_sbuf.data() + s_off,
                                  sb * wl_plan.aLen);
                supply.fillParallel(bi, wl_pbuf.data() + p_off,
                                    sb * wl_plan.bLen);
                s_off += sb * wl_plan.aLen;
                p_off += sb * wl_plan.bLen;
            }
        }
        t.seconds = now() - t0;
        Checksum sum;
        sum.addBytes(wl_sbuf.data(),
                     wl_sbuf.size() * sizeof(BFloat16));
        sum.addBytes(wl_pbuf.data(),
                     wl_pbuf.size() * sizeof(BFloat16));
        t.checksum = sum.value();
        return t;
    };
    TileTiming wl_gen_t = best([&] { return wl_run(wl_gen); });
    TileTiming wl_trace_t = best([&] { return wl_run(wl_replay); });
    bool wl_identical = wl_gen_t.checksum == wl_trace_t.checksum;
    const double wl_total =
        static_cast<double>(wl_values) * wl_rounds;

    std::snprintf(caption, sizeof(caption),
                  "workload ingestion: AlexNet@b16/conv2 fwd, %zu "
                  "values x %d rounds",
                  wl_values, wl_rounds);
    ResultTable &wt = res.table(
        "workload_ingestion", {"path", "seconds", "values/s",
                               "digest"});
    wt.caption = caption;
    wt.addRow({"generator (synthesize)",
               Table::cell(wl_gen_t.seconds, 4),
               Table::cell(wl_total / wl_gen_t.seconds, 0),
               hex16(wl_gen_t.checksum)});
    wt.addRow({"trace (replay)", Table::cell(wl_trace_t.seconds, 4),
               Table::cell(wl_total / wl_trace_t.seconds, 0),
               hex16(wl_trace_t.checksum)});

    // Memoization (PR 9): the same conv phase simulated end-to-end
    // through runPhaseSample over the trace supply — memo off, cold
    // (fresh memo: every burst misses, inserts, and still simulates),
    // warm (primed memo: every burst hits, skipping the tile) — plus
    // cold and warm over the generator supply, whose bursts key on the
    // generator identity (a warm hit skips even operand generation).
    // The "phase" rows keep their historical names. Memo state must
    // never change results, so all five digests must be identical.
    const ModelInfo &wl_carrier = wl_model.carrierOf(wl_unit);
    const workload::WorkloadUnit &wl_u = wl_model.units()[wl_unit];
    uint64_t memo_run_hits = 0;
    auto memo_phase = [&](const SlabSupply *supply, SimMemo *memo,
                          bool memoize) {
        // Mirror workload::unitPlan's PhaseRunConfig so the plan (and
        // thus the streams) match the ingestion section above.
        PhaseRunConfig prc;
        prc.tile = wl_cfg.tile;
        prc.sampleSteps = wl_cfg.sampleSteps;
        prc.seed = wl_cfg.seed;
        prc.autoSerialSide = wl_cfg.autoSerialSide;
        prc.supply = supply;
        prc.memo = memo;
        prc.memoize = memoize;
        TileTiming t;
        double t0 = now();
        PhaseRunResult pr = runPhaseSample(wl_carrier, wl_u.shape,
                                           wl_u.op, 0.5, prc);
        t.seconds = now() - t0;
        memo_run_hits = pr.memoHits;
        Checksum sum;
        sum.add(pr.avgCyclesPerStep);
        sum.add(pr.steps);
        sum.add(static_cast<uint64_t>(pr.serialSide));
        sum.add(pr.peStats);
        sum.add(pr.serialStats.values);
        sum.add(pr.serialStats.zeros);
        sum.add(pr.serialStats.terms);
        sum.add(pr.parallelStats.values);
        sum.add(pr.parallelStats.zeros);
        sum.add(pr.parallelStats.terms);
        t.checksum = sum.value();
        return t;
    };
    const size_t memo_budget = 64u << 20;
    TileTiming memo_off_t = best(
        [&] { return memo_phase(&wl_replay, nullptr, false); });
    TileTiming memo_cold_t = best([&] {
        SimMemo fresh(memo_budget);
        return memo_phase(&wl_replay, &fresh, true);
    });
    SimMemo warm_memo(memo_budget);
    memo_phase(&wl_replay, &warm_memo, true); // prime (untimed)
    TileTiming memo_warm_t = best(
        [&] { return memo_phase(&wl_replay, &warm_memo, true); });
    const uint64_t memo_warm_hits = memo_run_hits;
    SimMemo phase_memo(memo_budget);
    TileTiming memo_pcold_t = best([&] {
        SimMemo pfresh(memo_budget);
        return memo_phase(nullptr, &pfresh, true);
    });
    memo_phase(nullptr, &phase_memo, true); // prime (untimed)
    TileTiming memo_pwarm_t = best(
        [&] { return memo_phase(nullptr, &phase_memo, true); });
    const uint64_t memo_phase_hits = memo_run_hits;

    SimMemo::Stats memo_stats = warm_memo.stats();
    const double memo_hit_rate =
        memo_stats.hits + memo_stats.misses
            ? static_cast<double>(memo_stats.hits) /
                  static_cast<double>(memo_stats.hits +
                                      memo_stats.misses)
            : 0.0;
    bool memo_identical =
        memo_off_t.checksum == memo_cold_t.checksum &&
        memo_off_t.checksum == memo_warm_t.checksum &&
        memo_off_t.checksum == memo_pcold_t.checksum &&
        memo_off_t.checksum == memo_pwarm_t.checksum &&
        memo_warm_hits > 0 && memo_phase_hits > 0;
    double memo_speedup = memo_cold_t.seconds / memo_warm_t.seconds;

    std::snprintf(caption, sizeof(caption),
                  "memo: AlexNet@b16/conv2 fwd, %d steps in %zu "
                  "bursts (%" PRIu64 " warm hits)",
                  wl_cfg.sampleSteps, wl_plan.bursts, memo_warm_hits);
    ResultTable &memo_table = res.table(
        "memo", {"path", "seconds", "steps/s", "digest"});
    memo_table.caption = caption;
    auto memo_row = [&](const char *name, const TileTiming &t) {
        memo_table.addRow(
            {name, Table::cell(t.seconds, 4),
             Table::cell(wl_cfg.sampleSteps / t.seconds, 0),
             hex16(t.checksum)});
    };
    memo_row("off", memo_off_t);
    memo_row("burst cold", memo_cold_t);
    memo_row("burst warm", memo_warm_t);
    memo_row("phase cold", memo_pcold_t);
    memo_row("phase warm", memo_pwarm_t);

    // Functional-baseline tile: the batched row walk over the kernel
    // workload's slabs, built untimed.
    const size_t base_steps_n =
        std::min<size_t>(static_cast<size_t>(w.steps), 1024);
    const size_t base_a_len =
        static_cast<size_t>(w.tile.cols) * w.tile.pe.lanes;
    const size_t base_b_len =
        static_cast<size_t>(w.tile.rows) * w.tile.pe.lanes;
    std::vector<TileStep> base_steps(base_steps_n);
    for (size_t s = 0; s < base_steps_n; ++s) {
        base_steps[s].a.assign(w.a.begin() + s * base_a_len,
                               w.a.begin() + (s + 1) * base_a_len);
        base_steps[s].b.assign(w.b.begin() + s * base_b_len,
                               w.b.begin() + (s + 1) * base_b_len);
    }
    TileTiming base_serial_t = best([&] {
        BaselineTile btile(w.tile);
        TileTiming t;
        double t0 = now();
        btile.run(base_steps);
        t.seconds = now() - t0;
        Checksum sum;
        for (int r = 0; r < w.tile.rows; ++r)
            for (int c = 0; c < w.tile.cols; ++c)
                sum.add(btile.output(r, c));
        BaselinePeStats bs = btile.aggregateStats();
        sum.add(bs.cycles);
        sum.add(bs.sets);
        sum.add(bs.macs);
        sum.add(bs.ineffectualMacs);
        t.checksum = sum.value();
        return t;
    });

    std::snprintf(caption, sizeof(caption),
                  "baseline tile: %zu steps, serial", base_steps_n);
    ResultTable &bt_table = res.table(
        "baseline_tile", {"mode", "seconds", "steps/s", "digest"});
    bt_table.caption = caption;
    bt_table.addRow({"serial", Table::cell(base_serial_t.seconds, 4),
                     Table::cell(base_steps_n / base_serial_t.seconds,
                                 0),
                     hex16(base_serial_t.checksum)});

    // Serving layer: cold/hot request replay against an in-process
    // JobScheduler (the PR 5 tentpole). Small spec budgets keep the
    // cold phase comparable across hosts; the hot path never touches
    // the engine.
    serve::ThroughputOptions serve_opts;
    serve_opts.engineThreads = 1;
    serve_opts.workers = 2;
    // A hot request is ~2us; thousands of them make the hot-path
    // req/s figure stable enough for the CI floor (a few hundred
    // measured in under a millisecond swing +-20% with scheduler
    // jitter alone).
    serve_opts.hotRequests = 4000;
    serve_opts.sampleStepsBase = 12;
    serve::ThroughputReport serve_r =
        serve::measureServeThroughput(serve_opts);
    bool serve_identical =
        serve_r.deterministic && serve_r.allHotCached;

    // Shed section (PR 6): an open-loop overload burst against a
    // bounded queue. Admission must reject the overflow with
    // retry_after hints while keeping accept latency flat, and every
    // shed spec must complete when resubmitted under the client
    // RetryPolicy — so the digest is run-invariant like the others.
    serve::ShedOptions shed_opts;
    shed_opts.engineThreads = 1;
    shed_opts.sampleStepsBase = 12;
    serve::ShedReport shed_r = serve::measureShedBehavior(shed_opts);
    bool shed_ok = shed_r.shed > 0 && shed_r.hintsOk &&
                   shed_r.drained && shed_r.completed;

    std::snprintf(caption, sizeof(caption),
                  "serving: %d cold specs, %d hot requests "
                  "(scheduler workers=%d)",
                  serve_opts.distinctSpecs, serve_opts.hotRequests,
                  serve_opts.workers);
    ResultTable &sv = res.table(
        "serving", {"path", "requests", "seconds", "req/s"});
    sv.caption = caption;
    sv.addRow({"cold (simulate)",
               std::to_string(serve_opts.distinctSpecs),
               Table::cell(serve_r.coldSeconds, 4),
               Table::cell(serve_r.coldRps, 1)});
    sv.addRow({"hot (cache)", std::to_string(serve_opts.hotRequests),
               Table::cell(serve_r.hotSeconds, 4),
               Table::cell(serve_r.hotRps, 1)});

    std::snprintf(caption, sizeof(caption),
                  "shed: burst of %d cold specs at queue depth %llu "
                  "(workers=%d)",
                  shed_opts.burst,
                  static_cast<unsigned long long>(
                      shed_opts.queueDepth),
                  shed_opts.workers);
    ResultTable &sh = res.table(
        "shed", {"accepted", "shed", "retries", "submit p99 ms"});
    sh.caption = caption;
    sh.addRow({std::to_string(shed_r.accepted),
               std::to_string(shed_r.shed),
               std::to_string(shed_r.retryAttempts),
               Table::cell(shed_r.submitP99Ms, 4)});
    if (!shed_ok)
        res.fail("overload shedding contract violated (no sheds, "
                 "missing hints, undrained queue, or an incomplete "
                 "spec)");

    // Telemetry overhead (PR 10): what one instrumented-but-idle seam
    // costs per operation. Counter adds and histogram observes are
    // padded relaxed atomics; a TraceSpan with tracing disabled is
    // one relaxed load plus a branch. Measured over tight loops,
    // best-of-reps; no checksums (pure timing, like every section's
    // seconds columns).
    obs::Counter &tele_counter = obs::Registry::instance().counter(
        "bench.telemetry.counter",
        "perf_regression overhead probe (not a product metric)");
    obs::Histogram &tele_hist = obs::Registry::instance().histogram(
        "bench.telemetry.histogram",
        "perf_regression overhead probe (not a product metric)",
        obs::Buckets::latency());
    const uint64_t tele_ops = 1u << 21;
    auto tele_ns = [&](const std::function<void(uint64_t)> &op) {
        double best_s = 1e300;
        for (int r = 0; r < reps; ++r) {
            double t0 = now();
            for (uint64_t i = 0; i < tele_ops; ++i)
                op(i);
            best_s = std::min(best_s, now() - t0);
        }
        return best_s / static_cast<double>(tele_ops) * 1e9;
    };
    double tele_counter_ns =
        tele_ns([&](uint64_t) { tele_counter.add(); });
    double tele_hist_ns = tele_ns(
        [&](uint64_t i) { tele_hist.observe(1e-6 * (i & 1023)); });
    // Only meaningful with tracing off (the idle-seam case the floor
    // gates); under --trace-out the loop would also append millions
    // of real events, so skip it and let the floor gate pass through.
    const bool tele_tracing_on =
        obs::TraceCollector::instance().enabled();
    double tele_span_ns =
        tele_tracing_on ? 0.0 : tele_ns([&](uint64_t) {
            obs::TraceSpan span("bench", std::string());
        });

    ResultTable &tele_table =
        res.table("telemetry", {"op", "ns/op"});
    tele_table.caption =
        "telemetry: obs hot-path overhead (idle seams)";
    tele_table.addRow({"counter add",
                       Table::cell(tele_counter_ns, 1)});
    tele_table.addRow({"histogram observe",
                       Table::cell(tele_hist_ns, 1)});
    tele_table.addRow({"span (tracing off)",
                       tele_tracing_on
                           ? std::string("skipped (tracing on)")
                           : Table::cell(tele_span_ns, 1)});

    bool all_identical = deterministic_reps && tile_identical &&
                         sweep_identical && model_identical &&
                         gen_identical &&
                         wl_identical && memo_identical &&
                         serve_identical;
    res.note(std::string("bit-identical: ") +
             (all_identical ? "yes" : "NO — REGRESSION"));
    if (!all_identical)
        res.fail("diverging checksums across configurations");

    const unsigned hc = std::thread::hardware_concurrency();
    if (hc <= 1)
        res.note("single-CPU host: the parallel/sweep thread rows "
                 "measure scheduling overhead, not scaling — the "
                 "serial rows and the generation section are the "
                 "comparable numbers (see docs/PERFORMANCE.md)");

    // ---------------------------------------------------- JSON groups
    // Key names and order mirror the BENCH_PR1/PR2 documents so the
    // smoke-checksum gate and the perf trajectory stay greppable.
    res.group("workload_config")
        .metric("model", model_name)
        .metric("reps", reps)
        .metric("steps", w.steps)
        .metric("column_sets", sets)
        .metric("tile", std::to_string(w.tile.rows) + "x" +
                            std::to_string(w.tile.cols))
        .metric("seed", seed);
    res.group("tile_kernel")
        .metric("threads", threads)
        .metric("seed_serial_s", seed_t.seconds, 6)
        .metric("optimized_serial_s", serial_t.seconds, 6)
        .metric("parallel_s", par_t.seconds, 6)
        .metric("sets_per_sec_seed", sets / seed_t.seconds, 1)
        .metric("sets_per_sec_serial", sets / serial_t.seconds, 1)
        .metric("sets_per_sec_parallel", sets / par_t.seconds, 1)
        .metric("speedup_serial_vs_seed", speedup_serial, 3)
        .metric("speedup_vs_serial", speedup_parallel, 3)
        .metric("checksum_seed", hex16(seed_t.checksum))
        .metric("checksum_serial", hex16(serial_t.checksum))
        .metric("checksum_parallel", hex16(par_t.checksum))
        .metric("bit_identical", tile_identical);
    MetricGroup &sweep_g = res.group("sweep");
    sweep_g.metric("jobs", sweep_jobs)
        .metric("steps_per_job", sweep_steps)
        .metric("column_sets", sweep_sets);
    for (int ti = 0; ti < 3; ++ti) {
        const std::string suffix =
            "_t" + std::to_string(sweep_threads[ti]);
        sweep_g.metric("seconds" + suffix, sweep_s[ti], 6)
            .metric("sets_per_sec" + suffix,
                    sweep_sets / sweep_s[ti], 1)
            .metric("checksum" + suffix, hex16(sweep_sum[ti]));
    }
    sweep_g.metric("sets_per_sec_best", sweep_sets / sweep_best_s, 1)
        .metric("bit_identical", sweep_identical);
    res.group("model_sweep")
        .metric("models", std::string(sweep_models[0]) + ", " +
                              sweep_models[1] + ", " + sweep_models[2])
        .metric("sample_steps", mcfg.sampleSteps)
        .metric("serial_s", model_serial_s, 6)
        .metric("parallel_s", model_parallel_s, 6)
        .metric("speedup", model_serial_s / model_parallel_s, 3)
        .metric("checksum_serial", hex16(model_sum_1))
        .metric("checksum_parallel", hex16(model_sum_n))
        .metric("bit_identical", model_identical);
    // (Digest keys deliberately avoid the "checksum" prefix: the CI
    // smoke gate diffs the checksum_* key sequence against
    // bench/SMOKE_BASELINE.json, which predates this section.)
    res.group("generation")
        .metric("values", static_cast<uint64_t>(gen_n))
        .metric("simd_level", slab::simdLevel())
        .metric("scalar_s", gen_scalar_t.seconds, 6)
        .metric("batched_s", gen_batched_t.seconds, 6)
        .metric("values_per_sec_scalar", gen_n / gen_scalar_t.seconds,
                1)
        .metric("values_per_sec_batched",
                gen_n / gen_batched_t.seconds, 1)
        .metric("speedup_batched", gen_speedup, 3)
        .metric("digest_scalar", hex16(gen_scalar_t.checksum))
        .metric("digest_batched", hex16(gen_batched_t.checksum))
        .metric("count_scalar_s", count_t.seconds, 6)
        .metric("digest_count_scalar", hex16(count_t.checksum))
        .metric("bit_identical", gen_identical);
    // (Digest keys, like generation's: the smoke gate's checksum_*
    // sequence predates this section.)
    res.group("workload")
        .metric("unit", "AlexNet@b16/conv2 fwd")
        .metric("values", static_cast<uint64_t>(wl_values))
        .metric("rounds", wl_rounds)
        .metric("generator_s", wl_gen_t.seconds, 6)
        .metric("trace_s", wl_trace_t.seconds, 6)
        .metric("values_per_sec_generator",
                wl_total / wl_gen_t.seconds, 1)
        .metric("values_per_sec_trace",
                wl_total / wl_trace_t.seconds, 1)
        .metric("replay_speedup",
                wl_gen_t.seconds / wl_trace_t.seconds, 3)
        .metric("digest_generator", hex16(wl_gen_t.checksum))
        .metric("digest_trace", hex16(wl_trace_t.checksum))
        .metric("bit_identical", wl_identical);
    // (Digest keys, like generation's: the smoke gate's checksum_*
    // sequence predates this section.)
    res.group("memo")
        .metric("unit", "AlexNet@b16/conv2 fwd")
        .metric("steps", wl_cfg.sampleSteps)
        .metric("bursts", static_cast<uint64_t>(wl_plan.bursts))
        .metric("off_s", memo_off_t.seconds, 6)
        .metric("cold_s", memo_cold_t.seconds, 6)
        .metric("warm_s", memo_warm_t.seconds, 6)
        .metric("steps_per_sec_cold",
                wl_cfg.sampleSteps / memo_cold_t.seconds, 1)
        .metric("steps_per_sec_warm",
                wl_cfg.sampleSteps / memo_warm_t.seconds, 1)
        .metric("speedup_warm_vs_cold", memo_speedup, 3)
        .metric("warm_hits", memo_warm_hits)
        .metric("hit_rate", memo_hit_rate, 3)
        .metric("bytes_held", memo_stats.bytes)
        .metric("phase_cold_s", memo_pcold_t.seconds, 6)
        .metric("phase_warm_s", memo_pwarm_t.seconds, 6)
        .metric("speedup_phase_warm_vs_cold",
                memo_pcold_t.seconds / memo_pwarm_t.seconds, 3)
        .metric("digest_off", hex16(memo_off_t.checksum))
        .metric("digest_cold", hex16(memo_cold_t.checksum))
        .metric("digest_warm", hex16(memo_warm_t.checksum))
        .metric("digest_phase_cold", hex16(memo_pcold_t.checksum))
        .metric("digest_phase_warm", hex16(memo_pwarm_t.checksum))
        .metric("bit_identical", memo_identical);
    res.group("baseline_tile")
        .metric("steps", static_cast<uint64_t>(base_steps_n))
        .metric("serial_s", base_serial_t.seconds, 6)
        .metric("digest_serial", hex16(base_serial_t.checksum));
    serve::addServingGroup(res, serve_opts, serve_r);
    serve::addShedGroup(res, shed_opts, shed_r);
    res.group("telemetry")
        .metric("ops", tele_ops)
        .metric("counter_ns_per_op", tele_counter_ns, 2)
        .metric("histogram_ns_per_op", tele_hist_ns, 2)
        .metric("span_disabled_ns_per_op", tele_span_ns, 2)
        .metric("span_measured", !tele_tracing_on);
    res.group("host")
        .metric("hardware_concurrency", static_cast<int64_t>(hc))
        .metric("single_cpu_caveat", hc <= 1);

    // Wall-clock readings vary run to run; the determinism checksums
    // do not. Fingerprint over the latter so serial and parallel
    // `run --all` sweeps compare equal.
    Checksum fp;
    fp.add(seed_t.checksum);
    fp.add(serial_t.checksum);
    fp.add(par_t.checksum);
    for (uint64_t s_sum : sweep_sum)
        fp.add(s_sum);
    fp.add(model_sum_1);
    fp.add(model_sum_n);
    fp.add(gen_scalar_t.checksum);
    fp.add(gen_batched_t.checksum);
    fp.add(count_t.checksum);
    fp.add(wl_gen_t.checksum);
    fp.add(wl_trace_t.checksum);
    fp.add(memo_off_t.checksum);
    fp.add(memo_cold_t.checksum);
    fp.add(memo_warm_t.checksum);
    fp.add(memo_pcold_t.checksum);
    fp.add(memo_pwarm_t.checksum);
    fp.add(base_serial_t.checksum);
    fp.add(serve_r.digest);
    fp.add(shed_r.digest);
    fp.add(static_cast<uint64_t>(all_identical ? 1 : 0));
    res.setFingerprint(fp.value());

    // Memo provenance (opt-in, see result.h): mode reflects the
    // process-wide knob; counts come from this run's measured warm
    // memo. This document carries wall-clock readings and is never
    // byte-compared across runs, so the varying counts are safe here.
    res.memoMode = SimMemo::global() ? "on" : "off";
    res.memoHits = memo_stats.hits;
    res.memoMisses = memo_stats.misses;
    return res;
}

} // namespace
} // namespace fpraker
