/**
 * @file
 * Tests for the observability layer: Perfetto trace-event export,
 * the cycle-attribution profiler and its buckets-sum-to-cycles
 * invariant, and the engine-level RunOptions wiring.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "driver/engine.hh"
#include "obs/perfetto.hh"
#include "obs/profiler.hh"
#include "sim/accel.hh"
#include "workloads/workload.hh"

using namespace tapas;

namespace {

/**
 * Minimal recursive-descent JSON syntax checker: accepts exactly the
 * RFC 8259 grammar (minus \u escape digit validation), keeping no
 * values. Lets the tests assert "a stock JSON parser would accept
 * this trace" without a JSON dependency.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos == s.size();
    }

  private:
    bool
    value()
    {
        if (pos >= s.size())
            return false;
        switch (s[pos]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == '}') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos; // '['
        skipWs();
        if (peek() == ']') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == ']') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos;
        while (pos < s.size() && s[pos] != '"') {
            if (static_cast<unsigned char>(s[pos]) < 0x20)
                return false; // raw control character
            if (s[pos] == '\\') {
                ++pos;
                if (pos >= s.size())
                    return false;
                static const char *esc = "\"\\/bfnrtu";
                if (!std::strchr(esc, s[pos]))
                    return false;
            }
            ++pos;
        }
        if (pos >= s.size())
            return false;
        ++pos; // closing '"'
        return true;
    }

    bool
    number()
    {
        size_t start = pos;
        if (peek() == '-')
            ++pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-')) {
            ++pos;
        }
        return pos > start &&
               std::isdigit(static_cast<unsigned char>(s[pos - 1]));
    }

    bool
    literal(const char *lit)
    {
        size_t n = std::strlen(lit);
        if (s.compare(pos, n, lit) != 0)
            return false;
        pos += n;
        return true;
    }

    char peek() const { return pos < s.size() ? s[pos] : '\0'; }

    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos]))) {
            ++pos;
        }
    }

    const std::string &s;
    size_t pos = 0;
};

size_t
countSub(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size())) {
        ++n;
    }
    return n;
}

/** Simulate `w` with the given sinks/profiler attached. */
struct SimObserved
{
    uint64_t cycles = 0;
    unsigned numUnits = 0;
};

SimObserved
simulate(workloads::Workload &w, obs::TraceSink *sink,
         obs::CycleProfiler *prof, unsigned tiles = 2)
{
    arch::AcceleratorParams p = w.params;
    p.setAllTiles(tiles);
    auto design = hls::compile(*w.module, w.top, p);
    ir::MemImage mem;
    auto args = w.setup(mem);
    sim::AcceleratorSim accel(*design, mem);
    if (sink)
        accel.addSink(sink);
    if (prof)
        accel.setProfiler(prof);
    ir::RtValue ret = accel.run(args);
    EXPECT_TRUE(w.verify(mem, ret).empty()) << w.name;
    SimObserved r;
    r.cycles = accel.cycles();
    r.numUnits =
        static_cast<unsigned>(design->taskGraph->tasks().size());
    return r;
}

} // namespace

TEST(PerfettoTest, TraceIsValidJson)
{
    auto w = workloads::makeFib(9);
    obs::PerfettoTraceSink sink;
    simulate(w, &sink, nullptr);
    std::string json = sink.dump();
    ASSERT_FALSE(json.empty());
    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
}

TEST(PerfettoTest, TraceHasExpectedEventKinds)
{
    auto w = workloads::makeFib(9);
    obs::PerfettoTraceSink sink;
    simulate(w, &sink, nullptr);
    std::string json = sink.dump();

    // Track-naming metadata for every unit, plus the memory process.
    EXPECT_GT(countSub(json, "\"ph\":\"M\""), 0u);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("unit fib"), std::string::npos);
    EXPECT_NE(json.find("\"memory\""), std::string::npos);

    // Duration slices for each lifetime stage.
    EXPECT_GT(countSub(json, "\"name\":\"Spawn\",\"ph\":\"X\""), 0u);
    EXPECT_GT(countSub(json, "\"name\":\"Dispatch\",\"ph\":\"X\""),
              0u);
    EXPECT_GT(countSub(json, "\"name\":\"Retire\",\"ph\":\"X\""), 0u);

    // Counter tracks (>= 1 required; we emit several).
    EXPECT_GT(countSub(json, "\"ph\":\"C\""), 0u);
    EXPECT_NE(json.find("queue depth"), std::string::npos);
    EXPECT_NE(json.find("outstanding misses"), std::string::npos);

    // Spawn-tree flow arrows come in begin/end pairs.
    size_t starts = countSub(json, "\"ph\":\"s\"");
    size_t finishes = countSub(json, "\"ph\":\"f\"");
    EXPECT_GT(starts, 0u);
    EXPECT_EQ(starts, finishes);
}

TEST(PerfettoTest, UnitNamesAreJsonEscaped)
{
    // configure() must escape names; feed one with quotes/backslash.
    obs::PerfettoTraceSink sink;
    sink.configure({obs::UnitInfo{"we\"ird\\name", 1}});
    std::string json = sink.dump();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

TEST(PerfettoTest, ControlCharactersAreEscaped)
{
    // Regression: names with raw control characters (newline, tab,
    // 0x01) must come out as \n / \t / , never raw bytes — the
    // checker rejects any raw char < 0x20 inside a string.
    obs::PerfettoTraceSink sink;
    sink.configure({obs::UnitInfo{"bad\nname\twith\x01"
                                  "ctrl",
                                  1}});
    std::string json = sink.dump();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_NE(json.find("\\t"), std::string::npos);
    EXPECT_NE(json.find("\\u0001"), std::string::npos);
}

TEST(PerfettoTest, ZeroEventTraceIsValid)
{
    // A run that never spawns or misses must still export a valid
    // trace: configured tracks, no slices.
    obs::PerfettoTraceSink sink;
    sink.configure({obs::UnitInfo{"idle_unit", 2}});
    std::string json = sink.dump();
    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(countSub(json, "\"ph\":\"X\""), 0u);

    // And a sink that was never even configured.
    obs::PerfettoTraceSink bare;
    EXPECT_TRUE(JsonChecker(bare.dump()).valid());
}

TEST(ProfilerTest, AllIdleProfileIsWellFormed)
{
    // A configured profiler that only ever saw idle cycles still
    // renders a complete report and obeys the sum invariant.
    obs::CycleProfiler prof;
    prof.configure({obs::UnitInfo{"idle_unit", 1}});
    prof.note(0, obs::CycleBucket::Idle, 128);
    EXPECT_EQ(prof.total(), 128u);
    EXPECT_EQ(prof.bucket(0, obs::CycleBucket::Busy), 0u);
    std::string rep = prof.reportString();
    EXPECT_NE(rep.find("idle_unit"), std::string::npos);
    EXPECT_NE(rep.find("busy%"), std::string::npos);

    // Zero events entirely: report still renders, totals are zero.
    obs::CycleProfiler empty;
    empty.configure({obs::UnitInfo{"idle_unit", 1}});
    EXPECT_EQ(empty.total(), 0u);
    EXPECT_FALSE(empty.reportString().empty());
}

TEST(ProfilerTest, BucketsSumToCyclesTimesUnits)
{
    std::vector<workloads::Workload> suite;
    suite.push_back(workloads::makeMatrixAdd(8));
    suite.push_back(workloads::makeFib(10));
    suite.push_back(workloads::makeDedup(8, 64));
    suite.push_back(workloads::makeMergeSort(256, 32));
    for (auto &w : suite) {
        obs::CycleProfiler prof;
        SimObserved r = simulate(w, nullptr, &prof);
        ASSERT_EQ(prof.numUnits(), r.numUnits) << w.name;
        for (unsigned sid = 0; sid < prof.numUnits(); ++sid) {
            EXPECT_EQ(prof.totalOf(sid), r.cycles)
                << w.name << " unit " << sid;
        }
        EXPECT_EQ(prof.total(), r.cycles * r.numUnits) << w.name;
        // A real run does work and has a warm-up/drain tail: the
        // root unit is busy some cycles and the buckets are not all
        // lumped into one.
        EXPECT_GT(prof.bucket(0, obs::CycleBucket::Busy), 0u)
            << w.name;
    }
}

TEST(ProfilerTest, ReportShape)
{
    auto w = workloads::makeFib(9);
    obs::CycleProfiler prof;
    simulate(w, nullptr, &prof);
    std::string rep = prof.reportString();
    EXPECT_NE(rep.find("unit"), std::string::npos);
    EXPECT_NE(rep.find("stall_mem"), std::string::npos);
    EXPECT_NE(rep.find("busy%"), std::string::npos);
    EXPECT_NE(rep.find("fib"), std::string::npos);

    prof.clear();
    EXPECT_EQ(prof.total(), 0u);
}

TEST(ProfilerTest, AppendToUsesProfilePrefix)
{
    auto w = workloads::makeMatrixAdd(8);
    obs::CycleProfiler prof;
    SimObserved r = simulate(w, nullptr, &prof);
    std::map<std::string, double> out;
    prof.appendTo(out);
    double cycles = 0;
    ASSERT_NO_THROW(cycles = out.at("profile.matrix_add.cycles"));
    EXPECT_DOUBLE_EQ(cycles, static_cast<double>(r.cycles));
    // One "<unit>.cycles" plus kNumBuckets keys per unit.
    EXPECT_EQ(out.size(), (obs::kNumBuckets + 1) * r.numUnits);
}

TEST(ObsEngineTest, RunOptionsProfileFlowsIntoResult)
{
    auto w = workloads::makeFib(10);
    driver::AccelSimEngine engine;
    driver::RunOptions ro;
    ro.profile = true;
    driver::RunResult r = engine.runWorkload(w, ro);
    ASSERT_TRUE(r.verifyError.empty()) << r.verifyError;

    EXPECT_FALSE(r.profileReport.empty());
    EXPECT_NE(r.profileReport.find("busy%"), std::string::npos);

    // Bucket stats are in the flat map and respect the invariant.
    double per_unit = r.stat("profile.fib.cycles");
    EXPECT_DOUBLE_EQ(per_unit, static_cast<double>(r.cycles));
    double sum = 0;
    for (const char *b :
         {"busy", "stall_mem", "stall_spawn", "queue_full", "idle"}) {
        sum += r.stat(std::string("profile.fib.") + b);
    }
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(r.cycles));

    // The new simulator histograms/distributions flow through too:
    // every spawned instance retires once into task_lifetime.
    EXPECT_DOUBLE_EQ(r.stat("accel.task_lifetime.count"),
                     static_cast<double>(r.spawns));
    EXPECT_DOUBLE_EQ(r.stat("accel.spawn_latency.count"),
                     static_cast<double>(r.spawns));
    EXPECT_GT(r.stat("accel.task_lifetime.mean"), 0.0);
}

TEST(ObsEngineTest, RunOptionsTraceFileIsWritten)
{
    const char *path = "obs_test_engine_trace.tmp.json";
    auto w = workloads::makeMatrixAdd(8);
    driver::AccelSimEngine engine;
    driver::RunOptions ro;
    ro.traceFile = path;
    driver::RunResult r = engine.runWorkload(w, ro);
    ASSERT_TRUE(r.verifyError.empty()) << r.verifyError;

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "trace file not written";
    std::ostringstream ss;
    ss << in.rdbuf();
    in.close();
    std::remove(path);

    std::string json = ss.str();
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"Spawn\""), std::string::npos);
}

TEST(ObsEngineTest, ProfilingDoesNotPerturbTiming)
{
    // Observability must be read-only: cycles/spawns/retval with the
    // profiler and tracer attached match a bare run exactly.
    auto w1 = workloads::makeFib(10);
    driver::AccelSimEngine bare;
    driver::RunResult r1 = bare.runWorkload(w1, {});

    auto w2 = workloads::makeFib(10);
    driver::AccelSimEngine observed;
    driver::RunOptions ro;
    ro.profile = true;
    const char *path = "obs_test_perturb.tmp.json";
    ro.traceFile = path;
    driver::RunResult r2 = observed.runWorkload(w2, ro);
    std::remove(path);

    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.spawns, r2.spawns);
    EXPECT_EQ(r1.retval.i, r2.retval.i);
}
