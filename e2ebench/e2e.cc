/**
 * @file
 * End-to-end host-time benchmark harness. Runs one workload's job
 * list through the library's public entry points, over and over in
 * whole passes until a time budget is spent, checks every job against
 * an oracle that shares no code with the simulator, and writes the raw
 * measurements as one JSON document:
 *
 *   setup_s   seconds of each set-up, one array per batch (a batch
 *             of set-ups precedes every pass);
 *   passes    per pass: wall, CPU and sys seconds, minor faults,
 *             per-job wall and CPU milliseconds, summed layer counts,
 *             failures and the pass fingerprint (a hash of every job's
 *             modelled results, combined in a fixed job order);
 *   spans     when traced: one span per call into a layer, made from
 *             this file around the public entry points, kept in memory
 *             and written when the run ends.
 *
 * run.py builds this program, runs it and reduces the document to the
 * metrics named in BENCHMARK.json. README.md in this directory says
 * why each workload exists and what each metric means.
 *
 * Usage: tapas_e2e --workload cold_suite|sim_heavy|dse_search
 *                  --seed N --seconds S --trace 0|1
 *                  --examples DIR --out PATH
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "dse/dse.hh"
#include "ir/parser.hh"
#include "ir/verifier.hh"
#include "support/rng.hh"

using namespace tapas;

namespace {

using Clock = std::chrono::steady_clock;

/** Image size tapas-cc and bench::runAccel request for every run. */
constexpr uint64_t kColdImageBytes = 256ull << 20;

/** sim_heavy stages its inputs in a small image. */
constexpr uint64_t kSimImageBytes = 4ull << 20;

/**
 * Each pass is preceded by a batch of set-ups: at least kSetupReps of
 * them, over at least kSetupSeconds. A single set-up of cold_suite or
 * dse_search takes well under a millisecond, too short to time
 * steadily on its own.
 */
constexpr unsigned kSetupReps = 21;
constexpr double kSetupSeconds = 0.1;

/**
 * Every run makes at least this many passes: run.py takes each job's
 * fastest pass, which filters out time lost to other load on the host.
 */
constexpr unsigned kMinPasses = 3;

/** Worker threads of every dse::explore call. */
constexpr unsigned kDseJobs = 2;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** FNV-1a over the modelled results a job produced. */
struct Hasher
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }

    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void str(const std::string &s) { bytes(s.data(), s.size() + 1); }
};

/**
 * Layer spans recorded around this harness's calls into the library.
 * Single-threaded: every span opens and closes on the main thread
 * (dse::explore's workers run inside one span).
 */
class Tracer
{
  public:
    /** Record spans at all? Off for untimed and untraced passes. */
    bool on = false;

    /** Pass the following spans belong to (-1 = set-up). */
    int pass = -1;

    /** Job id shared by every span of the current job. */
    uint64_t job = 0;

    explicit Tracer(Clock::time_point origin) : origin(origin) {}

    /** One open span; closes when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name)
            : t(t), idx(t.on ? t.open(name) : kNone)
        {}

        ~Scope()
        {
            if (idx != kNone)
                t.close(idx);
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        static constexpr size_t kNone = ~size_t{0};
        Tracer &t;
        size_t idx;
    };

    Json
    toJson() const
    {
        Json arr = Json::array();
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            Json j = Json::object();
            j.set("id", Json::num(static_cast<uint64_t>(i)));
            j.set("parent", Json::num(static_cast<double>(s.parent)));
            j.set("name", Json::str(s.name));
            j.set("pass", Json::num(static_cast<double>(s.pass)));
            j.set("job", Json::num(s.job));
            j.set("t0_us", Json::num(s.t0 * 1e6));
            j.set("t1_us", Json::num(s.t1 * 1e6));
            arr.push(std::move(j));
        }
        return arr;
    }

  private:
    struct Span
    {
        const char *name;
        int64_t parent; ///< index into spans, -1 for a root
        int pass;
        uint64_t job;
        double t0, t1;  ///< seconds since origin
    };

    size_t
    open(const char *name)
    {
        spans.push_back({name, stack.empty() ? -1 : stack.back(), pass,
                         job, since(origin), 0});
        stack.push_back(static_cast<int64_t>(spans.size() - 1));
        return spans.size() - 1;
    }

    void
    close(size_t idx)
    {
        spans[idx].t1 = since(origin);
        stack.pop_back();
    }

    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<int64_t> stack;
};

/** Run `fn` inside a span named `name`. */
template <typename Fn>
auto
traced(Tracer &tr, const char *name, Fn &&fn)
{
    Tracer::Scope s(tr, name);
    return fn();
}

/** Layer counts by name. */
using Counts = std::map<std::string, double>;

/** What one job reports to its pass. */
struct Outcome
{
    /** Empty when the job's output matched its oracle. */
    std::string error;

    /** Hash of the job's modelled results. */
    uint64_t hash = 0;

    /** Layer counts, summed over the pass. */
    Counts counts;
};

/** Per-pass state shared by the pass's jobs. */
struct PassContext
{
    Tracer &trace;

    /** dse_search: one cache shared by the pass's searches. */
    dse::DesignCache cache;
};

struct Job
{
    std::string label;
    std::function<Outcome(PassContext &)> run;
};

/** Fill the modelled-result hash and sim counts from one run. */
void
recordRun(Outcome &o, const driver::RunResult &r, uint64_t events,
          uint64_t skipped)
{
    Hasher h;
    h.u64(r.cycles);
    h.u64(r.spawns);
    h.u64(static_cast<uint64_t>(r.retval.i));
    for (const auto &[k, v] : r.stats) {
        h.str(k);
        h.f64(v);
    }
    o.hash = h.h;
    o.counts["sim.cycles"] += static_cast<double>(r.cycles);
    o.counts["sim.events"] += static_cast<double>(events);
    o.counts["sim.skipped_cycles"] += static_cast<double>(skipped);
}

void
recordCompile(Counts &c, const driver::CompiledDesign &d)
{
    c["ir.parse_ms"] += d.timings.parseSec * 1e3;
    c["hls.opt_ms"] += d.timings.optSec * 1e3;
    c["hls.unroll_ms"] += d.timings.unrollSec * 1e3;
    c["hls.codegen_ms"] += d.timings.codegenSec * 1e3;
    c["ir.lower_ms"] += d.timings.lowerSec * 1e3;
}

/**
 * The memory-image lifecycle of one job: zero-filled construction and
 * release are both traced as ir.memimage.
 */
class StagedImage
{
  public:
    StagedImage(Tracer &tr, uint64_t bytes, Outcome &o) : tr(tr)
    {
        Tracer::Scope s(tr, "ir.memimage");
        mem.emplace(bytes);
        o.counts["ir.memimage_mib"] +=
            static_cast<double>(bytes) / (1 << 20);
    }

    ~StagedImage()
    {
        Tracer::Scope s(tr, "ir.memimage");
        mem.reset();
    }

    StagedImage(const StagedImage &) = delete;
    StagedImage &operator=(const StagedImage &) = delete;

    ir::MemImage &operator*() { return *mem; }

  private:
    Tracer &tr;
    std::optional<ir::MemImage> mem;
};

/** Simulate a prepared design over `mem`, verify, record. */
template <typename Verify>
void
simulateAndVerify(Tracer &tr, const driver::CompiledDesign &d,
                  const std::vector<ir::RtValue> &args,
                  ir::MemImage &mem, Verify &&verify, Outcome &o)
{
    uint64_t events = 0, skipped = 0;
    driver::AccelSimEngine::Options eo;
    eo.observer = [&](const hls::AcceleratorDesign &,
                      sim::AcceleratorSim &s) {
        events = s.progressCount();
        skipped = s.skippedCycles();
    };
    driver::AccelSimEngine eng(std::move(eo));
    driver::RunResult r = traced(tr, "sim.run", [&] {
        return eng.run(d, args, mem, driver::RunOptions{});
    });
    recordRun(o, r, events, skipped);
    if (!r.ok()) {
        o.error = "structured failure (" + r.failure->kind +
                  "): " + r.failure->detail;
        return;
    }
    o.error =
        traced(tr, "workloads.verify", [&] { return verify(r); });
}

void
shuffle(std::vector<Job> &jobs, Rng &rng)
{
    for (size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[rng.below(i)]);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        tapas_fatal("cannot read '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------------
// cold_suite: the fig-sweep / tapas-cc path from scratch, per job.

const unsigned kColdTiles[] = {1, 2, 4, 8};

Outcome
coldPaperJob(const bench::SuiteEntry &e, unsigned tiles, Tracer &tr)
{
    Outcome o;
    workloads::Workload w =
        traced(tr, "workloads.build", [&] { return e.make(); });
    driver::AccelSimEngine::Options eo;
    eo.tiles = tiles;
    driver::CompiledDesign d = traced(tr, "driver.prepare", [&] {
        return driver::AccelSimEngine(eo).prepare(w);
    });
    recordCompile(o.counts, d);
    StagedImage mem(tr, kColdImageBytes, o);
    std::vector<ir::RtValue> args =
        traced(tr, "workloads.setup", [&] { return w.setup(*mem); });
    simulateAndVerify(
        tr, d, args, *mem,
        [&](const driver::RunResult &r) {
            return w.verify(*mem, r.retval);
        },
        o);
    return o;
}

/** One example .tir program, run the way tapas-cc runs it. */
struct TirJob
{
    std::string text;
    std::string top;
    unsigned tiles;
    unsigned ntasks;

    /** parallel_fib: the argument. */
    int64_t fibN = 0;

    /** vector_scale: the seeded @vec contents. */
    std::vector<int32_t> vec;
};

int64_t
nativeFib(int64_t n)
{
    int64_t a = 0, b = 1;
    for (int64_t i = 0; i < n; ++i) {
        int64_t t = a + b;
        a = b;
        b = t;
    }
    return a;
}

Outcome
coldTirJob(const TirJob &t, Tracer &tr)
{
    Outcome o;
    std::unique_ptr<ir::Module> mod =
        traced(tr, "workloads.build", [&] {
            std::unique_ptr<ir::Module> m =
                ir::parseModuleOrDie(t.text);
            ir::verifyOrDie(*m);
            return m;
        });
    const ir::Function *top = mod->functionByName(t.top);
    if (!top)
        tapas_fatal("no function '@%s'", t.top.c_str());

    // The options tapas-cc derives from --tiles/--ntasks.
    hls::CompileOptions co;
    co.params.defaults.ntiles = t.tiles;
    co.params.defaults.ntasks = t.ntasks;
    driver::CompiledDesign d = traced(tr, "driver.prepare", [&] {
        return driver::compileDesign(*mod, t.top, co,
                                     fpga::Device::cycloneV());
    });
    recordCompile(o.counts, d);

    StagedImage mem(tr, kColdImageBytes, o);
    uint64_t vecAddr = 0;
    std::vector<ir::RtValue> args =
        traced(tr, "workloads.setup", [&] {
            (*mem).layout(*mod);
            if (t.vec.empty())
                return std::vector<ir::RtValue>{
                    ir::RtValue::fromInt(t.fibN)};
            vecAddr = (*mem).addressOf(mod->globalByName("vec"));
            (*mem).write(vecAddr, t.vec.data(), t.vec.size() * 4);
            return std::vector<ir::RtValue>{
                ir::RtValue::fromPtr(vecAddr),
                ir::RtValue::fromInt(
                    static_cast<int64_t>(t.vec.size()))};
        });

    // Oracles: native Fibonacci, and 3x every seeded element with
    // i32 wrap-around; neither shares code with the simulator.
    simulateAndVerify(
        tr, d, args, *mem,
        [&](const driver::RunResult &r) -> std::string {
            if (t.vec.empty()) {
                const int64_t want = nativeFib(t.fibN);
                if (r.retval.i != want)
                    return strfmt("fib(%lld) returned %lld, want %lld",
                                  (long long)t.fibN,
                                  (long long)r.retval.i,
                                  (long long)want);
                return "";
            }
            for (size_t i = 0; i < t.vec.size(); ++i) {
                const int32_t want = static_cast<int32_t>(
                    static_cast<uint32_t>(t.vec[i]) * 3u);
                const int32_t got = (*mem).get<int32_t>(vecAddr + 4 * i);
                if (got != want)
                    return strfmt("vec[%zu] = %d, want %d", i, got,
                                  want);
            }
            return "";
        },
        o);
    return o;
}

std::vector<Job>
setupColdSuite(Rng &rng, const std::string &examples, Tracer &tr)
{
    // Validate every program the jobs will build, before timing.
    for (const bench::SuiteEntry &e : bench::paperSuite())
        traced(tr, "workloads.build", [&] { return e.make(); });
    const std::string fibText =
        readFile(examples + "/parallel_fib.tir");
    const std::string vecText =
        readFile(examples + "/vector_scale.tir");
    for (const std::string *text : {&fibText, &vecText}) {
        traced(tr, "workloads.build", [&] {
            ir::verifyOrDie(*ir::parseModuleOrDie(*text));
            return 0;
        });
    }

    std::vector<Job> jobs;
    for (const bench::SuiteEntry &e : bench::paperSuite()) {
        for (unsigned tiles : kColdTiles) {
            jobs.push_back({strfmt("%s/t%u", e.name, tiles),
                            [e, tiles](PassContext &c) {
                                return coldPaperJob(e, tiles, c.trace);
                            }});
        }
    }
    for (unsigned tiles : kColdTiles) {
        // The queue depth the parallel_fib.tir header runs with.
        auto fib = std::make_shared<TirJob>(
            TirJob{fibText, "fib", tiles, 2048,
                   rng.range(10, 13), {}});
        jobs.push_back({strfmt("parallel_fib.tir/t%u", tiles),
                        [fib](PassContext &c) {
                            return coldTirJob(*fib, c.trace);
                        }});
        // @vec holds 4096 bytes: 1024 i32 elements, all scaled.
        auto vec = std::make_shared<TirJob>(
            TirJob{vecText, "vector_scale", tiles, 32, 0, {}});
        for (unsigned i = 0; i < 1024; ++i)
            vec->vec.push_back(
                static_cast<int32_t>(rng.range(-(1 << 30), 1 << 30)));
        jobs.push_back({strfmt("vector_scale.tir/t%u", tiles),
                        [vec](PassContext &c) {
                            return coldTirJob(*vec, c.trace);
                        }});
    }
    shuffle(jobs, rng);
    return jobs;
}

// ---------------------------------------------------------------------
// sim_heavy: compile once in set-up, then long simulations per job.

const unsigned kSimTiles[] = {4, 16, 64};

/** sim_throughput's slow, narrow DRAM behind a tiny cache. */
void
dramBound(arch::AcceleratorParams &p)
{
    p.mem.cacheBytes = 4 * 1024;
    p.mem.dramLatency = 400;
    p.mem.dramWordsPerCycle = 1;
    p.mem.mshrs = 2;
}

struct SimEntry
{
    const char *name;
    workloads::Workload (*make)();
    void (*tweak)(arch::AcceleratorParams &) = nullptr;
};

std::vector<SimEntry>
simSuite()
{
    return {
        {"mergesort", [] { return workloads::makeMergeSort(2048, 64); }},
        {"fib", [] { return workloads::makeFib(18); }},
        {"dedup", [] { return workloads::makeDedup(128, 512); }},
        {"stencil", [] { return workloads::makeStencil(64, 64, 2); }},
        {"saxpy_dram", [] { return workloads::makeSaxpy(16384); },
         dramBound},
    };
}

struct PreparedJob
{
    std::shared_ptr<workloads::Workload> w;
    driver::CompiledDesign design;
};

Outcome
simHeavyJob(PreparedJob &p, Tracer &tr)
{
    Outcome o;
    StagedImage mem(tr, kSimImageBytes, o);
    std::vector<ir::RtValue> args =
        traced(tr, "workloads.setup", [&] { return p.w->setup(*mem); });
    simulateAndVerify(
        tr, p.design, args, *mem,
        [&](const driver::RunResult &r) {
            return p.w->verify(*mem, r.retval);
        },
        o);
    return o;
}

std::vector<Job>
setupSimHeavy(Rng &rng, Tracer &tr, Counts &setupCounts)
{
    std::vector<Job> jobs;
    for (const SimEntry &e : simSuite()) {
        auto w = std::make_shared<workloads::Workload>(
            traced(tr, "workloads.build", [&] { return e.make(); }));
        for (unsigned tiles : kSimTiles) {
            driver::AccelSimEngine::Options eo;
            eo.tiles = tiles;
            if (e.tweak) {
                eo.params = w->params;
                e.tweak(*eo.params);
            }
            auto p = std::make_shared<PreparedJob>();
            p->w = w;
            p->design = traced(tr, "driver.prepare", [&] {
                return driver::AccelSimEngine(eo).prepare(*w);
            });
            recordCompile(setupCounts, p->design);
            jobs.push_back({strfmt("%s/t%u", e.name, tiles),
                            [p](PassContext &c) {
                                return simHeavyJob(*p, c.trace);
                            }});
        }
    }
    shuffle(jobs, rng);
    return jobs;
}

// ---------------------------------------------------------------------
// dse_search: one dse::explore call per job.

struct Space
{
    const char *name;
    dse::WorkloadFactory factory;
    dse::ParamSpace space;
};

/** The three spaces of bench/dse_explore.cc. */
std::vector<Space>
dseSpaces()
{
    std::vector<Space> spaces(3);
    spaces[0].name = "saxpy";
    spaces[0].factory = [](unsigned rung) {
        return workloads::makeSaxpy(512u << rung);
    };
    spaces[0].space.tiles = {1, 2, 4, 8};
    spaces[0].space.ntasks = {16, 32};
    spaces[0].space.unrollFactors = {0, 2};
    spaces[0].space.optPasses = {false, true};

    spaces[1].name = "fib";
    spaces[1].factory = [](unsigned rung) {
        return workloads::makeFib(8 + 2 * rung);
    };
    spaces[1].space.tiles = {1, 2, 4};
    spaces[1].space.ntasks = {256, 1024, 2048};

    spaces[2].name = "dedup";
    spaces[2].factory = [](unsigned rung) {
        return workloads::makeDedup(16u << rung, 128);
    };
    spaces[2].space.tiles = {1, 2, 4};
    spaces[2].space.ntasks = {16, 32};
    return spaces;
}

Outcome
dseJob(const Space &s, dse::Strategy strategy, PassContext &c)
{
    Outcome o;
    dse::ExploreOptions xo;
    xo.jobs = kDseJobs;
    xo.strategy = strategy;
    xo.cache = &c.cache;
    dse::ExploreResult xr = traced(c.trace, "dse.explore", [&] {
        return dse::explore(s.factory, s.space, xo);
    });

    Hasher h;
    h.str(dse::toJson(xr).dumpCompact());
    o.hash = h.h;
    o.counts["dse.simulated"] += static_cast<double>(xr.simulated);
    o.counts["dse.pruned"] += static_cast<double>(xr.pruned);
    o.counts["dse.compile_ms"] += xr.compileSeconds * 1e3;
    o.counts["ir.memimage_mib"] +=
        static_cast<double>(xr.simulated * xo.memBytes) / (1 << 20);
    if (xr.partial)
        o.error = "partial search: " + xr.interruptReason;
    for (const dse::PointResult &p : xr.points) {
        if (p.pruned || p.skipped)
            continue;
        // Cycles of the rung each point was last simulated at; the
        // result keeps no lower-rung cycles of points that advanced.
        o.counts["sim.cycles"] += static_cast<double>(p.result.cycles);
        if (!p.failed)
            continue;
        o.counts["dse.failed_points"] += 1;
        // Undersized fib queues deadlock by design: a point outcome.
        if ((std::string(s.name) != "fib" || p.failKind != "deadlock") &&
            o.error.empty()) {
            o.error = strfmt("%s %s failed (%s)", s.name,
                             p.config.label().c_str(),
                             p.failKind.c_str());
        }
    }
    return o;
}

std::vector<Job>
setupDseSearch(Rng &rng, Tracer &tr)
{
    auto spaces = std::make_shared<std::vector<Space>>(dseSpaces());
    for (const Space &s : *spaces) {
        for (unsigned rung = 0; rung < dse::ExploreOptions{}.rungs;
             ++rung)
            traced(tr, "workloads.build",
                   [&] { return s.factory(rung); });
    }
    std::vector<Job> jobs;
    for (size_t i = 0; i < spaces->size(); ++i) {
        for (dse::Strategy st : {dse::Strategy::ExhaustiveGrid,
                                 dse::Strategy::SuccessiveHalving}) {
            jobs.push_back(
                {strfmt("%s/%s", (*spaces)[i].name,
                        dse::strategyName(st)),
                 [spaces, i, st](PassContext &c) {
                     return dseJob((*spaces)[i], st, c);
                 }});
        }
    }
    shuffle(jobs, rng);
    return jobs;
}

// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string examples = "examples";
    std::string out;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            tapas_fatal("option '%s' expects an argument", flag.c_str());
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = bench::parseUnsigned(flag, v);
        else if (flag == "--seconds")
            a.seconds = bench::parseRate(flag, v);
        else if (flag == "--trace")
            a.trace = bench::parseUnsigned(flag, v) != 0;
        else if (flag == "--examples")
            a.examples = v;
        else if (flag == "--out")
            a.out = v;
        else
            tapas_fatal("unknown option '%s'", flag.c_str());
    }
    if (a.workload != "cold_suite" && a.workload != "sim_heavy" &&
        a.workload != "dse_search")
        tapas_fatal("--workload expects cold_suite, sim_heavy or "
                    "dse_search, got '%s'", a.workload.c_str());
    if (a.out.empty())
        tapas_fatal("--out is required");
    return a;
}

std::vector<Job>
setupWorkload(const Args &a, Tracer &tr, Counts &setupCounts)
{
    Rng rng(a.seed);
    if (a.workload == "cold_suite")
        return setupColdSuite(rng, a.examples, tr);
    if (a.workload == "sim_heavy")
        return setupSimHeavy(rng, tr, setupCounts);
    return setupDseSearch(rng, tr);
}

/**
 * One batch of set-ups, each time appended to `times`. Returns the
 * last set-up's jobs; with `trace`, only that set-up is traced.
 */
std::vector<Job>
setUpBatch(const Args &a, Tracer &tr, bool trace, Counts &setupCounts,
           Json &times)
{
    const Clock::time_point start = Clock::now();
    for (unsigned rep = 1;; ++rep) {
        const bool last =
            rep >= kSetupReps && since(start) >= kSetupSeconds;
        tr.on = trace && last;
        setupCounts.clear();
        const Clock::time_point t0 = Clock::now();
        std::vector<Job> jobs;
        {
            Tracer::Scope s(tr, "setup");
            jobs = setupWorkload(a, tr, setupCounts);
        }
        times.push(Json::num(since(t0)));
        if (last)
            return jobs;
    }
}

double
tvSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
}

Json
toJson(const Counts &c)
{
    Json j = Json::object();
    for (const auto &[k, v] : c)
        j.set(k, Json::num(v));
    return j;
}

double
cpuSeconds(const rusage &r)
{
    return tvSeconds(r.ru_utime) + tvSeconds(r.ru_stime);
}

/** Run the job list once; returns the pass record. */
Json
runPass(std::vector<Job> &jobs, Tracer &tr, uint64_t &failed)
{
    PassContext ctx{tr, {}};
    Counts counts;
    std::vector<std::pair<const std::string *, uint64_t>> hashes;
    Json jobMs = Json::array();
    Json jobCpuMs = Json::array();
    Json errors = Json::array();

    rusage r0{}, r1{};
    getrusage(RUSAGE_SELF, &r0);
    const Clock::time_point t0 = Clock::now();
    for (Job &job : jobs) {
        ++tr.job;
        rusage c0{}, c1{};
        getrusage(RUSAGE_SELF, &c0);
        const Clock::time_point j0 = Clock::now();
        Outcome o = [&] {
            Tracer::Scope s(tr, "job");
            return job.run(ctx);
        }();
        jobMs.push(Json::num(since(j0) * 1e3));
        getrusage(RUSAGE_SELF, &c1);
        jobCpuMs.push(Json::num((cpuSeconds(c1) - cpuSeconds(c0)) * 1e3));
        for (const auto &[k, v] : o.counts)
            counts[k] += v;
        hashes.emplace_back(&job.label, o.hash);
        if (!o.error.empty()) {
            ++failed;
            errors.push(Json::str(job.label + ": " + o.error));
        }
    }
    const double wall = since(t0);
    getrusage(RUSAGE_SELF, &r1);

    counts["dse.cache_hits"] = static_cast<double>(ctx.cache.hits());
    counts["dse.cache_misses"] = static_cast<double>(ctx.cache.misses());

    // Fixed (label) order: every pass and every seed's permutation of
    // the same job set gives the same fingerprint.
    std::sort(hashes.begin(), hashes.end(),
              [](const auto &x, const auto &y) { return *x.first < *y.first; });
    Hasher fp;
    for (const auto &[label, h] : hashes) {
        fp.str(*label);
        fp.u64(h);
    }

    Json p = Json::object();
    p.set("traced", Json::boolean(tr.on));
    p.set("wall_s", Json::num(wall));
    p.set("cpu_s", Json::num(cpuSeconds(r1) - cpuSeconds(r0)));
    p.set("sys_s", Json::num(tvSeconds(r1.ru_stime) -
                             tvSeconds(r0.ru_stime)));
    p.set("minflt", Json::num(static_cast<double>(r1.ru_minflt -
                                                  r0.ru_minflt)));
    p.set("job_ms", std::move(jobMs));
    p.set("job_cpu_ms", std::move(jobCpuMs));
    p.set("counts", toJson(counts));
    // 48 bits, so run.py can carry it as an exact JSON number.
    p.set("fingerprint",
          Json::num(static_cast<uint64_t>(fp.h >> 16)));
    p.set("errors", std::move(errors));
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    Tracer tr(Clock::now());

    // A set-up batch, then a whole pass, while the next pair is
    // expected to end inside the budget. Traced runs alternate untraced
    // and traced passes so the two can be compared, and trace the
    // first batch's last set-up.
    Json setupS = Json::array();
    Json passes = Json::array();
    Counts setupCounts;
    std::vector<Job> jobs;
    uint64_t failed = 0;
    const Clock::time_point start = Clock::now();
    double lastIter = 0;
    for (int p = 0; p < static_cast<int>(kMinPasses) ||
                    since(start) + lastIter <= a.seconds;
         ++p) {
        const Clock::time_point t0 = Clock::now();
        Json batch = Json::array();
        tr.pass = -1;
        jobs = setUpBatch(a, tr, a.trace && p == 0, setupCounts, batch);
        setupS.push(std::move(batch));
        tr.on = a.trace && p % 2 == 1;
        tr.pass = p;
        passes.push(runPass(jobs, tr, failed));
        lastIter = since(t0);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    Json doc = Json::object();
    doc.set("workload", Json::str(a.workload));
    doc.set("seed", Json::num(a.seed));
    doc.set("threads",
            Json::num(a.workload == "dse_search" ? kDseJobs : 1u));
    Json labels = Json::array();
    for (const Job &j : jobs)
        labels.push(Json::str(j.label));
    doc.set("job_labels", std::move(labels));
    doc.set("failed", Json::num(failed));
    doc.set("setup_s", std::move(setupS));
    doc.set("setup_counts", toJson(setupCounts));
    doc.set("passes", std::move(passes));
    doc.set("peak_rss_kib", Json::num(static_cast<uint64_t>(ru.ru_maxrss)));
    doc.set("compiler", Json::str(__VERSION__));
    doc.set("build_type", Json::str(E2E_BUILD_TYPE));
    doc.set("spans", tr.toJson());

    std::ofstream out(a.out);
    out << doc.dump();
    if (!out.flush())
        tapas_fatal("cannot write '%s'", a.out.c_str());
    return 0;
}
