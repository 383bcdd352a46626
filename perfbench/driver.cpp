/**
 * @file
 * perfbench driver: runs ONE cold unit of a benchmark workload (or the
 * layer probes of one workload) in a fresh process and prints a single
 * JSON line on stdout. perfbench/run.py spawns it, repeats it, checks
 * its outputs and reduces the numbers; see perfbench/RATIONALE.md.
 *
 *   perfbench_driver figures --seed=S --threads=T [--spawn-ns=N]
 *                            [--setup-only] [--trace-out=F]
 *                            [--sample-memo]
 *   perfbench_driver serve   --socket=P --seed=S [--trace-out=F]
 *   perfbench_driver probe   --workload=W --seed=S
 *
 * Everything is timed from this file around calls into the program's
 * public functions; nothing here changes what the program computes.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "accel/accelerator.h"
#include "accel/phase_runner.h"
#include "api/driver.h"
#include "api/json.h"
#include "api/registry.h"
#include "api/result.h"
#include "common/clock.h"
#include "common/fnv.h"
#include "numeric/slab_ops.h"
#include "numeric/term_encoder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pe/fpraker_pe.h"
#include "serve/client.h"
#include "serve/job_spec.h"
#include "sim/sim_engine.h"
#include "sim/sim_memo.h"
#include "tile/tile.h"
#include "train/dataset.h"
#include "train/mac_modes.h"
#include "train/trainer.h"
#include "trace/model_zoo.h"
#include "trace/tensor_gen.h"
#include "workload/supply.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace fpraker;
using api::JsonValue;

// ------------------------------------------------------------ plumbing

/** --key=value flags; a bare --flag reads as "1". */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; ++i) {
            const char *a = argv[i];
            if (std::strncmp(a, "--", 2) != 0) {
                std::fprintf(stderr, "unexpected argument '%s'\n", a);
                std::exit(2);
            }
            const char *eq = std::strchr(a, '=');
            if (eq)
                kv_[std::string(a + 2, eq)] = eq + 1;
            else
                kv_[a + 2] = "1";
        }
    }

    std::string
    str(const std::string &k, const std::string &def = "") const
    {
        auto it = kv_.find(k);
        return it == kv_.end() ? def : it->second;
    }
    int64_t
    num(const std::string &k, int64_t def) const
    {
        auto it = kv_.find(k);
        return it == kv_.end() ? def : std::stoll(it->second);
    }
    bool has(const std::string &k) const { return kv_.count(k) != 0; }

  private:
    std::map<std::string, std::string> kv_;
};

double
seconds(int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** splitmix64: the benchmark's own seeded stream (inputs, orders). */
class SplitMix
{
  public:
    explicit SplitMix(uint64_t seed) : s_(seed) {}
    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    size_t below(size_t n) { return static_cast<size_t>(next() % n); }
    double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t s_;
};

// The workloads' fixed shape; stamped into every document's
// provenance, where run.py reads them back.
constexpr int kVerifyPhases = 6;      //!< paper_figures phases recomputed
constexpr int kClients = 3;           //!< serve_mixed connections
constexpr int kRequestsPerClient = 150;

JsonValue
provenance(int threads)
{
    JsonValue p = JsonValue::object();
    p.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
    p.set("simd_level", slab::simdLevel());
    SimMemo *memo = SimMemo::global();
    p.set("memo_budget_bytes",
          static_cast<uint64_t>(memo ? memo->budget() : 0));
    p.set("compiler", "gcc " __VERSION__);
    p.set("build_type", PERFBENCH_BUILD_TYPE);
    p.set("threads", threads);
    p.set("verify_phases", kVerifyPhases);
    p.set("clients", kClients);
    p.set("requests_per_client", kRequestsPerClient);
    return p;
}

/** The obs registry's counters and gauges as one flat object. */
JsonValue
registryFlat()
{
    JsonValue snap = obs::Registry::instance().snapshotJson();
    JsonValue flat = JsonValue::object();
    for (const char *kind : {"counters", "gauges"})
        if (const JsonValue *group = snap.find(kind))
            for (const auto &[name, v] : group->entries())
                flat.set(name, v);
    return flat;
}

/** Starts span collection; returns the collector epoch (approx.). */
int64_t
enableTrace()
{
    obs::TraceCollector::instance().enable();
    return now_ns();
}

/**
 * Writes the capture and records the timed window [t0, t1] in the
 * capture's microsecond timebase (relative to @p epoch).
 */
void
writeTrace(const std::string &path, int64_t epoch, int64_t t0, int64_t t1,
           JsonValue &out)
{
    if (!obs::TraceCollector::instance().writeTo(path)) {
        std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
        std::exit(1);
    }
    JsonValue w = JsonValue::array();
    w.push(JsonValue((t0 - epoch) * 1e-3));
    w.push(JsonValue((t1 - epoch) * 1e-3));
    out.set("trace_window_us", std::move(w));
}

/** Polls the memo residency gauge to find its peak during a run. */
class MemoPeakSampler
{
  public:
    explicit MemoPeakSampler(bool on)
    {
        if (on)
            thread_ = std::thread([this] { loop(); });
    }
    ~MemoPeakSampler() { stop(); }
    MemoPeakSampler(const MemoPeakSampler &) = delete;
    MemoPeakSampler &operator=(const MemoPeakSampler &) = delete;

    int64_t
    stop()
    {
        if (thread_.joinable()) {
            stop_.store(true);
            thread_.join();
        }
        return peak_;
    }

  private:
    void
    loop()
    {
        obs::Gauge &bytes = obs::Registry::instance().gauge(
            "memo.bytes", "resident sim memo bytes");
        while (!stop_.load()) {
            peak_ = std::max(peak_, bytes.value());
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        peak_ = std::max(peak_, bytes.value());
    }

    std::atomic<bool> stop_{false};
    int64_t peak_ = 0;
    std::thread thread_;
};

void
emit(const JsonValue &v)
{
    std::printf("%s\n", v.dumpCompact().c_str());
    std::fflush(stdout);
}

// -------------------------------------------------------------- phases

/** One (model, layer, op) phase sample at a given budget. */
struct PhaseRef
{
    const ModelInfo *model;
    const LayerShape *layer;
    TrainingOp op;
    int sampleSteps;
};

PhaseRunConfig
phaseConfig(const PhaseRef &p)
{
    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    PhaseRunConfig prc;
    prc.tile = cfg.tile;
    prc.sampleSteps = p.sampleSteps;
    prc.seed = cfg.seed;
    prc.autoSerialSide = cfg.autoSerialSide;
    return prc;
}

constexpr double kProgress = 0.5; // api::kDefaultProgress
constexpr int kPaperSteps = 96;   // Session::sampleSteps() fallback

/** The phases of the paper figures' "full" variant over the zoo. */
std::vector<PhaseRef>
paperPhases()
{
    std::vector<PhaseRef> out;
    for (const ModelInfo &m : modelZoo())
        for (const LayerOpUnit &u : Accelerator::modelUnits(m))
            out.push_back({&m, u.layer, u.op, kPaperSteps});
    return out;
}

/** The cold serve path's phases: Fig. 21's ResNet18 study model. */
const ModelInfo &
fig21Model()
{
    static const ModelInfo model = [] {
        ModelInfo m;
        m.name = "ResNet18";
        m.application = "Image Classification";
        m.dataset = "ImageNet";
        m.layers = resnet18Layers();
        m.profile = findModel("VGG16").profile;
        return m;
    }();
    return model;
}

// The serve workload's specs: a fixed hot set (warmed before the loop,
// then repeated) and cold fig21 budgets drawn from a seeded range,
// unique per daemon so every cold submit is a new cache key.
constexpr const char *kServeExperiment = "fig21";
const int kHotSteps[] = {8, 12, 16, 24};
constexpr int kColdLo = 32;
constexpr int kColdSpan = 256;

std::vector<PhaseRef>
coldPhases(SplitMix &rng)
{
    std::vector<PhaseRef> out;
    const ModelInfo &m = fig21Model();
    for (const LayerOpUnit &u : Accelerator::modelUnits(m))
        out.push_back({&m, u.layer, u.op,
                       kColdLo + static_cast<int>(rng.below(kColdSpan))});
    return out;
}

template <typename T>
std::vector<T>
seededSample(std::vector<T> all, size_t k, SplitMix &rng)
{
    rng.shuffle(all);
    all.resize(std::min(k, all.size()));
    return all;
}

bool
samePhase(const PhaseRunResult &a, const PhaseRunResult &b)
{
    return std::memcmp(&a.avgCyclesPerStep, &b.avgCyclesPerStep,
                       sizeof(double)) == 0 &&
           a.steps == b.steps && a.serialSide == b.serialSide &&
           std::memcmp(&a.peStats, &b.peStats, sizeof(PeStats)) == 0 &&
           std::memcmp(&a.serialStats, &b.serialStats,
                       sizeof(TensorStats)) == 0 &&
           std::memcmp(&a.parallelStats, &b.parallelStats,
                       sizeof(TensorStats)) == 0;
}

// ------------------------------------------------- experiment workloads

const std::set<std::string> kNotPaperFigures = {
    "fig17",            // timed per mode by the probes instead
    "perf_regression",  // own timing loops
    "serve_throughput", // own timing loops
};

double
scalarOf(const api::Result &r, const std::string &key)
{
    for (const auto &[k, v] : r.scalars())
        if (k == key)
            return v.kind == api::MetricValue::Kind::Double
                       ? v.d
                       : static_cast<double>(v.i);
    return 0.0;
}

double
seriesValue(const api::Result &r, const std::string &series,
            const std::string &label)
{
    for (const api::ResultSeries &s : r.series())
        if (s.name == series)
            for (size_t i = 0; i < s.labels.size(); ++i)
                if (s.labels[i] == label)
                    return s.values[i];
    return 0.0;
}

struct RunRecord
{
    std::string id;
    std::string fingerprint;
    bool ok = false;
    int64_t latencyNs = 0;
};

JsonValue
recordsJson(const std::vector<RunRecord> &recs, std::string *digest)
{
    std::vector<RunRecord> sorted = recs;
    std::sort(sorted.begin(), sorted.end(),
              [](const RunRecord &a, const RunRecord &b) {
                  return a.id < b.id;
              });
    Fnv64 h;
    JsonValue out = JsonValue::array();
    for (const RunRecord &r : sorted) {
        std::string line = r.id + "=" + r.fingerprint + "\n";
        h.addBytes(line.data(), line.size());
        JsonValue e = JsonValue::object();
        e.set("id", r.id);
        e.set("fingerprint", r.fingerprint);
        e.set("ok", r.ok);
        e.set("latency_s", JsonValue(seconds(r.latencyNs)));
        out.push(std::move(e));
    }
    *digest = h.hex();
    return out;
}

/**
 * paper_figures: one cold run of the experiment set through the api
 * entry, sharded across one shared engine the way `fpraker run --all`
 * does it.
 */
int
runFigures(const Args &args)
{
    const int threads = static_cast<int>(args.num("threads", 1));
    const uint64_t seed = static_cast<uint64_t>(args.num("seed", 1));
    const int64_t spawn = args.num("spawn-ns", now_ns());
    const std::string traceOut = args.str("trace-out");

    SimEngine engine(threads);
    std::vector<const api::ExperimentInfo *> todo;
    for (const api::ExperimentInfo *info :
         api::ExperimentRegistry::instance().all())
        if (!kNotPaperFigures.count(info->id))
            todo.push_back(info);
    // The seed permutes experiment order: memo LRU reuse changes,
    // results must not.
    SplitMix rng(seed);
    rng.shuffle(todo);
    api::CliOptions opts;
    opts.threads = threads;
    opts.all = true;
    const int64_t ready = now_ns();

    JsonValue out = JsonValue::object();
    out.set("setup_s", JsonValue(seconds(ready - spawn)));
    if (args.has("setup-only")) {
        emit(out);
        return 0;
    }

    const int64_t epoch = traceOut.empty() ? 0 : enableTrace();
    MemoPeakSampler sampler(args.has("sample-memo"));
    std::vector<RunRecord> recs(todo.size());
    double fig11[4] = {0, 0, 0, 0};
    const int64_t t0 = now_ns();
    engine.parallelFor(todo.size(), [&](size_t i) {
        const int64_t s = now_ns();
        // What runExperimentBuffered does with no JSON output set:
        // produce the document, then render its report. The "api" span
        // holds the program's experiment span plus the assembly and
        // rendering around it.
        api::Result r;
        {
            obs::TraceSpan span("api", todo[i]->id);
            r = api::produceResult(*todo[i], opts, &engine);
            (void)api::ReportWriter::renderText(r);
        }
        recs[i].latencyNs = now_ns() - s;
        recs[i].id = todo[i]->id;
        recs[i].fingerprint = Fnv64::hex(r.fingerprint());
        recs[i].ok = r.ok;
        if (todo[i]->id == "fig11") {
            fig11[0] = scalarOf(r, "geomean_speedup_full");
            fig11[1] = seriesValue(r, "speedup_full", "ResNet18-Q");
            fig11[2] = seriesValue(r, "speedup_full", "SNLI");
            fig11[3] = scalarOf(r, "geomean_core_energy_efficiency");
        }
    });
    const int64_t t1 = now_ns();
    const int64_t memo_peak = sampler.stop();

    std::string digest;
    out.set("wall_s", JsonValue(seconds(t1 - t0)));
    out.set("peak_rss_mb", JsonValue(peakRssMb()));
    out.set("experiments", recordsJson(recs, &digest));
    out.set("digest", digest);
    out.set("registry", registryFlat());
    out.set("memo_bytes_peak", memo_peak);
    JsonValue f = JsonValue::array();
    for (double v : fig11)
        f.push(JsonValue(v));
    out.set("fig11", std::move(f));
    if (!traceOut.empty())
        writeTrace(traceOut, epoch, t0, t1, out);

    // Outside the timed window: a seeded sample of the workload's
    // phases, memoized on the shared engine (hits replay what the run
    // above cached) against memoize=false at one thread.
    SplitMix vr(seed ^ 0x5eedf00dull);
    int checked = 0, mismatched = 0;
    for (const PhaseRef &p :
         seededSample(paperPhases(), kVerifyPhases, vr)) {
        PhaseRunConfig prc = phaseConfig(p);
        prc.engine = &engine;
        PhaseRunResult memo_run =
            runPhaseSample(*p.model, *p.layer, p.op, kProgress, prc);
        prc.engine = nullptr;
        prc.memoize = false;
        PhaseRunResult ref =
            runPhaseSample(*p.model, *p.layer, p.op, kProgress, prc);
        ++checked;
        if (!samePhase(memo_run, ref))
            ++mismatched;
    }
    out.set("phases_checked", checked);
    out.set("phases_mismatched", mismatched);
    out.set("provenance", provenance(threads));
    emit(out);
    return 0;
}

// -------------------------------------------------------- serve client

struct ServeOp
{
    enum Kind { Hot, Cold, Stats } kind = Hot;
    int steps = 0; //!< Hot/Cold: the spec's sample-step budget.
};

struct OpRecord
{
    int kind = 0;
    int steps = 0;
    bool ok = false;
    bool cached = false;
    int64_t latencyNs = 0;
    double queueS = 0, runS = 0;
    std::string fingerprint;
    std::string error;
};

serve::JobSpec
specOf(int steps)
{
    serve::JobSpec s;
    s.experiment = kServeExperiment;
    s.sampleSteps = steps;
    return s;
}

/**
 * Per-client request sequences. Every rep does the same amount of
 * work — per client 10% cold, 2% stats and the rest hot
 * submits — and the seed draws their order, the hot specs and the cold
 * budgets. The cold budgets are stratified over the range (one draw
 * per equal slice), so they are distinct and their sum barely moves
 * between seeds.
 */
std::vector<std::vector<ServeOp>>
drawSequences(uint64_t seed)
{
    SplitMix rng(seed);
    constexpr int colds = kRequestsPerClient / 10;
    constexpr int stats = kRequestsPerClient / 50;
    constexpr int total_colds = colds * kClients;
    std::vector<int> cold_budgets;
    for (int i = 0; i < total_colds; ++i) {
        const int lo = i * kColdSpan / total_colds;
        const int hi = (i + 1) * kColdSpan / total_colds;
        cold_budgets.push_back(kColdLo + lo +
                               static_cast<int>(rng.below(
                                   static_cast<size_t>(hi - lo))));
    }
    rng.shuffle(cold_budgets);
    size_t next_cold = 0;
    std::vector<std::vector<ServeOp>> seqs(kClients);
    for (auto &seq : seqs) {
        for (int k = 0; k < kRequestsPerClient; ++k) {
            ServeOp op;
            if (k < colds) {
                op.kind = ServeOp::Cold;
                op.steps = cold_budgets[next_cold++];
            } else if (k < colds + stats) {
                op.kind = ServeOp::Stats;
            } else {
                op.steps = kHotSteps[rng.below(std::size(kHotSteps))];
            }
            seq.push_back(op);
        }
        rng.shuffle(seq);
    }
    return seqs;
}

bool
connectClient(serve::ServeClient &c, const std::string &socket,
              std::string *error)
{
    return c.connectTo(socket, error) && c.setTimeout(60, error);
}

bool
replyOk(const JsonValue &resp)
{
    const JsonValue *ok = resp.find("ok");
    return ok && ok->kind() == JsonValue::Kind::Bool && ok->boolean();
}

std::string
strField(const JsonValue &v, const char *key)
{
    const JsonValue *f = v.find(key);
    return f && f->kind() == JsonValue::Kind::String ? f->str()
                                                     : std::string();
}

double
numField(const JsonValue &v, const char *key)
{
    const JsonValue *f = v.find(key);
    return f && f->isNumber() ? f->number() : 0.0;
}

/** One request: submit (wait) for Hot/Cold, the stats op otherwise. */
OpRecord
issue(serve::ServeClient &client, const ServeOp &op)
{
    OpRecord rec;
    rec.kind = op.kind;
    rec.steps = op.steps;
    JsonValue resp;
    std::string error;
    const int64_t t = now_ns();
    bool transport;
    if (op.kind == ServeOp::Stats) {
        JsonValue msg = JsonValue::object();
        msg.set("op", "stats");
        transport = client.request(msg, &resp, &error);
    } else {
        transport = client.submit(specOf(op.steps), &resp, &error);
    }
    rec.latencyNs = now_ns() - t;
    if (!transport) {
        rec.error = "transport: " + error;
        return rec;
    }
    if (!replyOk(resp)) {
        // "<error_code>: <message>", so the cause reads first.
        rec.error = strField(resp, "error_code");
        if (rec.error.empty())
            rec.error = "error reply";
        rec.error += ": " + strField(resp, "error");
        return rec;
    }
    rec.ok = true;
    if (op.kind != ServeOp::Stats) {
        const JsonValue *eok = resp.find("experiment_ok");
        const JsonValue *cached = resp.find("cached");
        rec.ok = eok && eok->kind() == JsonValue::Kind::Bool &&
                 eok->boolean();
        rec.cached = cached && cached->kind() == JsonValue::Kind::Bool &&
                     cached->boolean();
        rec.fingerprint = strField(resp, "fingerprint");
        rec.queueS = numField(resp, "queue_s");
        rec.runS = numField(resp, "run_s");
        if (!rec.ok)
            rec.error = "experiment failed its own gate";
    }
    return rec;
}

JsonValue
controlOp(serve::ServeClient &c, const char *op)
{
    JsonValue msg = JsonValue::object();
    msg.set("op", op);
    JsonValue resp;
    std::string error;
    if (!c.request(msg, &resp, &error) || !replyOk(resp))
        return JsonValue();
    return resp;
}

/**
 * serve_mixed client side: warm the hot set, run the closed loop of
 * C connections over their seeded sequences, then verify every served
 * document against an in-process direct run of its spec.
 */
int
runServe(const Args &args)
{
    const std::string socket = args.str("socket");
    const uint64_t seed = static_cast<uint64_t>(args.num("seed", 1));
    // The direct runs that verify served documents use every core, as
    // the daemon's engine does.
    const int threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    const std::string traceOut = args.str("trace-out");

    JsonValue out = JsonValue::object();
    serve::ServeClient control;
    std::string error;
    if (!connectClient(control, socket, &error)) {
        std::fprintf(stderr, "connect %s: %s\n", socket.c_str(),
                     error.c_str());
        return 1;
    }
    // Warm-up: each hot spec completes once, so the loop's hot
    // submits repeat a finished spec.
    std::map<int, std::string> hot_fp;
    int warm_failed = 0;
    for (int steps : kHotSteps) {
        OpRecord r = issue(control, {ServeOp::Hot, steps});
        if (!r.ok)
            ++warm_failed;
        hot_fp[steps] = r.fingerprint;
    }

    std::vector<std::vector<ServeOp>> seqs =
        drawSequences(seed);
    std::vector<std::vector<OpRecord>> recs(kClients);
    std::vector<std::unique_ptr<serve::ServeClient>> conns;
    for (int c = 0; c < kClients; ++c) {
        conns.push_back(std::make_unique<serve::ServeClient>());
        if (!connectClient(*conns.back(), socket, &error)) {
            std::fprintf(stderr, "connect: %s\n", error.c_str());
            return 1;
        }
    }

    const JsonValue before = controlOp(control, "metrics");
    const JsonValue stats_before = controlOp(control, "stats");
    const int64_t epoch = traceOut.empty() ? 0 : enableTrace();
    obs::TraceCollector &tc = obs::TraceCollector::instance();
    const int64_t t0 = now_ns();
    std::vector<std::thread> workers;
    for (int c = 0; c < kClients; ++c) {
        workers.emplace_back([&, c] {
            serve::ServeClient &conn = *conns[static_cast<size_t>(c)];
            for (const ServeOp &op : seqs[static_cast<size_t>(c)]) {
                static const char *const kNames[] = {"hot", "cold",
                                                     "stats"};
                OpRecord r;
                {
                    obs::TraceSpan span("client", kNames[op.kind]);
                    r = issue(conn, op);
                    if (op.kind == ServeOp::Cold && r.ok &&
                        tc.enabled()) {
                        // The daemon's own queue/run split of this
                        // job, placed at the end of the request.
                        const int64_t end = now_ns();
                        const int64_t run = static_cast<int64_t>(
                            r.runS * 1e9);
                        const int64_t queue = static_cast<int64_t>(
                            r.queueS * 1e9);
                        tc.complete("sched", "queue",
                                    end - run - queue, queue);
                        tc.complete("sched", "run", end - run, run);
                    }
                }
                // A dead connection fails this request; the next one
                // redials (and fails again if the daemon is gone).
                if (!r.ok && r.error.rfind("transport", 0) == 0) {
                    conn.close();
                    std::string e;
                    connectClient(conn, socket, &e);
                }
                recs[static_cast<size_t>(c)].push_back(std::move(r));
            }
        });
    }
    for (std::thread &t : workers)
        t.join();
    const int64_t t1 = now_ns();

    const JsonValue after = controlOp(control, "metrics");
    const JsonValue stats_after = controlOp(control, "stats");
    if (!traceOut.empty())
        writeTrace(traceOut, epoch, t0, t1, out);

    // Outside the timed window: every distinct served spec against an
    // in-process direct run of the same spec.
    std::set<int> specs(std::begin(kHotSteps), std::end(kHotSteps));
    for (const auto &v : recs)
        for (const OpRecord &r : v)
            if (r.kind != ServeOp::Stats && r.ok)
                specs.insert(r.steps);
    std::vector<int> spec_list(specs.begin(), specs.end());
    std::vector<std::string> direct(spec_list.size());
    {
        SimEngine engine(threads);
        const api::ExperimentInfo *info =
            api::ExperimentRegistry::instance().find(kServeExperiment);
        engine.parallelFor(spec_list.size(), [&](size_t i) {
            api::CliOptions opts;
            opts.sampleSteps = spec_list[i];
            direct[i] = Fnv64::hex(
                api::produceResult(*info, opts, &engine).fingerprint());
        });
    }
    std::map<int, std::string> direct_fp;
    for (size_t i = 0; i < spec_list.size(); ++i)
        direct_fp[spec_list[i]] = direct[i];

    int mismatched = 0;
    for (const auto &[steps, fp] : hot_fp)
        if (fp != direct_fp[steps])
            ++mismatched;
    JsonValue ops = JsonValue::array();
    for (const auto &v : recs) {
        for (const OpRecord &r : v) {
            bool ok = r.ok;
            std::string err = r.error;
            if (ok && r.kind != ServeOp::Stats &&
                r.fingerprint != direct_fp[r.steps]) {
                ok = false;
                err = "fingerprint differs from a direct run";
            }
            JsonValue e = JsonValue::object();
            e.set("kind", r.kind);
            e.set("ok", ok);
            e.set("cached", r.cached);
            e.set("latency_s", JsonValue(seconds(r.latencyNs)));
            e.set("queue_s", JsonValue(r.queueS));
            e.set("run_s", JsonValue(r.runS));
            if (!err.empty())
                e.set("error", err);
            ops.push(std::move(e));
        }
    }
    Fnv64 h;
    for (const auto &[steps, fp] : direct_fp) {
        if (!hot_fp.count(steps))
            continue;
        std::string line = std::to_string(steps) + "=" + fp + "\n";
        h.addBytes(line.data(), line.size());
    }

    out.set("wall_s", JsonValue(seconds(t1 - t0)));
    out.set("ops", std::move(ops));
    out.set("warm_failed", warm_failed);
    out.set("hot_mismatched", mismatched);
    out.set("specs_verified", static_cast<int>(spec_list.size()));
    out.set("digest", h.hex());
    out.set("metrics_before", before);
    out.set("metrics_after", after);
    out.set("stats_before", stats_before);
    out.set("stats_after", stats_after);
    out.set("provenance", provenance(threads));
    emit(out);
    return 0;
}

// -------------------------------------------------------------- probes

/** Fill/tile/memo probes over the given phases' burst windows. */
void
phaseProbes(const std::vector<PhaseRef> &phases, JsonValue &out)
{
    int64_t supply_ns = 0, tile_ns = 0, lookup_ns = 0;
    uint64_t values = 0, steps = 0, lookups = 0;
    SimMemo memo(64ull << 20);
    std::vector<BFloat16> a, b;
    std::vector<unsigned char> key;
    std::vector<TileStepView> views;
    uint64_t sink = 0;
    for (const PhaseRef &p : phases) {
        PhaseRunConfig prc = phaseConfig(p);
        PhasePlan plan = planPhaseSample(*p.model, *p.layer, p.op,
                                         kProgress, prc);
        GeneratorSlabSupply generated(plan.serialProfile,
                                      plan.parallelProfile,
                                      plan.baseSeed);
        workload::PhaseTrace trace = workload::PhaseTrace::capture(plan);
        workload::TraceSlabSupply replay(trace);
        Tile tile(prc.tile);
        for (size_t bi = 0; bi < plan.bursts; ++bi) {
            const size_t burst = plan.burstSteps(bi);
            const size_t na = burst * plan.aLen, nb = burst * plan.bLen;
            a.resize(na);
            b.resize(nb);
            for (const SlabSupply *s :
                 {static_cast<const SlabSupply *>(&generated),
                  static_cast<const SlabSupply *>(&replay)}) {
                const int64_t t = now_ns();
                s->fillSerial(bi, a.data(), na);
                s->fillParallel(bi, b.data(), nb);
                supply_ns += now_ns() - t;
                values += na + nb;
            }

            views.resize(burst);
            for (size_t s = 0; s < burst; ++s)
                views[s] = TileStepView{a.data() + s * plan.aLen,
                                        b.data() + s * plan.bLen};
            tile.resetForReuse();
            int64_t t = now_ns();
            sink += tile.run(views.data(), burst, nullptr).cycles;
            tile_ns += now_ns() - t;
            steps += burst;

            // A burst-grain-shaped key: header + operand window bytes.
            key.assign(reinterpret_cast<const unsigned char *>(&p.layer),
                       reinterpret_cast<const unsigned char *>(&p.layer) +
                           sizeof(p.layer));
            key.push_back(static_cast<unsigned char>(p.op));
            key.push_back(static_cast<unsigned char>(bi));
            key.insert(key.end(),
                       reinterpret_cast<const unsigned char *>(a.data()),
                       reinterpret_cast<const unsigned char *>(a.data() +
                                                               na));
            key.insert(key.end(),
                       reinterpret_cast<const unsigned char *>(b.data()),
                       reinterpret_cast<const unsigned char *>(b.data() +
                                                               nb));
            // The workload's first sight of a key (miss, insert), then
            // its repeat (hit), hashing included; per lookup.
            uint64_t value[8] = {sink};
            t = now_ns();
            for (int pass = 0; pass < 2; ++pass) {
                Fnv64 h;
                h.addBytes(key.data(), key.size());
                if (!memo.lookup(h.value(), key.data(), key.size(), value,
                                 sizeof(value)))
                    memo.insert(h.value(), key.data(), key.size(), value,
                                sizeof(value));
            }
            lookup_ns += now_ns() - t;
            lookups += 2;
        }
    }
    out.set("tile.busy_s", JsonValue(seconds(tile_ns)));
    out.set("tile.steps_per_s",
            JsonValue(steps / std::max(seconds(tile_ns), 1e-12)));
    out.set("supply.busy_s", JsonValue(seconds(supply_ns)));
    out.set("supply.values_per_s",
            JsonValue(values / std::max(seconds(supply_ns), 1e-12)));
    out.set("memo.lookup_ns",
            JsonValue(static_cast<double>(lookup_ns) /
                      static_cast<double>(std::max<uint64_t>(lookups, 1))));
    out.set("probe_sink", sink);
}

/** fig17's configuration (src/api/experiments/fig17_accuracy.cpp). */
DatasetPair
fig17Data()
{
    DatasetConfig dcfg;
    dcfg.classes = 10;
    dcfg.imageSize = 10;
    dcfg.trainSamples = 960;
    dcfg.testSamples = 320;
    dcfg.noise = 1.8;
    return makeSynthCifar(dcfg);
}

TrainConfig
fig17Train()
{
    TrainConfig tcfg;
    tcfg.hidden = {32};
    tcfg.epochs = 8;
    tcfg.batchSize = 32;
    tcfg.learningRate = 0.03f;
    return tcfg;
}

void
trainProbes(uint64_t seed, JsonValue &out)
{
    SplitMix rng(seed);
    const ValueProfile profile =
        findModel("VGG16").profile.activation.at(kProgress);

    // PE: FPRakerPe::processSet on seeded 8-pair sets.
    {
        TensorGenerator ga(profile, rng.next()), gb(profile, rng.next());
        const int kSets = 40000;
        std::vector<BFloat16> av = ga.generate(kSets * 8);
        std::vector<BFloat16> bv = gb.generate(kSets * 8);
        std::vector<MacPair> pairs(static_cast<size_t>(kSets) * 8);
        for (size_t i = 0; i < pairs.size(); ++i)
            pairs[i] = MacPair{av[i], bv[i]};
        FPRakerPe pe;
        int64_t cycles = 0;
        const int64_t t = now_ns();
        for (int s = 0; s < kSets; ++s)
            cycles += pe.processSet(pairs.data() + s * 8, 8);
        const double busy = seconds(now_ns() - t);
        out.set("pe.busy_s", JsonValue(busy));
        out.set("pe.sets_per_s", JsonValue(kSets / busy));
        out.set("probe_sink", cycles);
    }
    // numeric: TermEncoder::encode per value.
    {
        TensorGenerator g(profile, rng.next());
        std::vector<BFloat16> v = g.generate(1 << 20);
        TermEncoder enc;
        uint64_t terms = 0;
        const int64_t t = now_ns();
        for (BFloat16 x : v)
            terms += static_cast<uint64_t>(enc.encode(x).size());
        const int64_t ns = now_ns() - t;
        out.set("numeric.encode_ns",
                JsonValue(static_cast<double>(ns) /
                          static_cast<double>(v.size())));
        out.set("probe_terms", terms);
    }
    // train: MacEngine::dot per mode at the MLP's input width, then
    // each MlpTrainer::run on fig17's configuration.
    const DatasetPair data = fig17Data();
    const size_t n = data.train.features();
    std::vector<float> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = static_cast<float>(rng.uniform() * 2 - 1);
        b[i] = static_cast<float>(rng.uniform() * 2 - 1);
    }
    const std::pair<MacMode, const char *> modes[] = {
        {MacMode::NativeFp32, "fp32"},
        {MacMode::Bf16Chunked, "bf16"},
        {MacMode::FPRakerEmulated, "fpraker"}};
    double dsink = 0;
    for (const auto &[mode, name] : modes) {
        MacEngine engine(mode);
        const int reps = mode == MacMode::FPRakerEmulated ? 400 : 20000;
        const int64_t t = now_ns();
        for (int r = 0; r < reps; ++r)
            dsink += engine.dot(a.data(), b.data(), n);
        out.set(std::string("train.dot_ns.") + name,
                JsonValue(static_cast<double>(now_ns() - t) / reps));
    }
    out.set("probe_dot_sink", JsonValue(dsink));
    JsonValue acc = JsonValue::object();
    for (const auto &[mode, name] : modes) {
        MlpTrainer trainer(data, fig17Train());
        const int64_t t = now_ns();
        TrainResult r = trainer.run(mode);
        out.set(std::string("train.mode_s.") + name,
                JsonValue(seconds(now_ns() - t)));
        acc.set(name, JsonValue(r.finalAccuracy()));
    }
    out.set("final_accuracy", std::move(acc));
}

int
runProbe(const Args &args)
{
    const std::string workload = args.str("workload");
    const uint64_t seed = static_cast<uint64_t>(args.num("seed", 1));
    SplitMix rng(seed ^ 0x9e0be5ull);
    JsonValue out = JsonValue::object();
    if (workload == "paper_figures") {
        phaseProbes(seededSample(paperPhases(), 24, rng), out);
        trainProbes(seed, out);
    } else if (workload == "serve_mixed") {
        std::vector<PhaseRef> cold = coldPhases(rng);
        phaseProbes(seededSample(cold, 24, rng), out);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return 2;
    }
    emit(out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s figures|serve|probe [--flags]\n",
                     argv[0]);
        return 2;
    }
    const std::string mode = argv[1];
    const Args args(argc, argv);
    if (mode == "figures")
        return runFigures(args);
    if (mode == "serve")
        return runServe(args);
    if (mode == "probe")
        return runProbe(args);
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
}
