/**
 * @file
 * Tests for the task-lifetime tracer: event balance invariants,
 * lifetime statistics and CSV output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "sim/accel.hh"
#include "workloads/workload.hh"

using namespace tapas;
using namespace tapas::sim;

namespace {

TaskTracer
traceRun(workloads::Workload &w, unsigned tiles = 2)
{
    arch::AcceleratorParams p = w.params;
    p.setAllTiles(tiles);
    auto design = hls::compile(*w.module, w.top, p);
    ir::MemImage mem;
    auto args = w.setup(mem);
    sim::AcceleratorSim accel(*design, mem);
    TaskTracer tracer;
    accel.setTracer(&tracer);
    ir::RtValue ret = accel.run(args);
    EXPECT_TRUE(w.verify(mem, ret).empty()) << w.name;
    return tracer;
}

} // namespace

TEST(TraceTest, EventsBalance)
{
    auto w = workloads::makeMatrixAdd(8);
    TaskTracer t = traceRun(w);

    // Every spawned instance eventually retires, and every instance
    // was dispatched at least once.
    size_t spawns = t.countOf(TraceEvent::Kind::Spawn);
    size_t retires = t.countOf(TraceEvent::Kind::Retire);
    size_t dispatches = t.countOf(TraceEvent::Kind::Dispatch);
    EXPECT_EQ(spawns, retires);
    EXPECT_GE(dispatches, spawns);
    EXPECT_EQ(spawns, 1u + 8u + 8u);
}

TEST(TraceTest, SuspendsAppearForSyncingTasks)
{
    auto w = workloads::makeFib(9);
    TaskTracer t = traceRun(w);
    // Recursive fib instances suspend at sync / task calls.
    EXPECT_GT(t.countOf(TraceEvent::Kind::Suspend), 10u);
    // Each suspension is followed by a re-dispatch: dispatches >
    // spawns by at least the suspension count... each suspend leads
    // to exactly one later dispatch.
    EXPECT_EQ(t.countOf(TraceEvent::Kind::Dispatch),
              t.countOf(TraceEvent::Kind::Spawn) +
                  t.countOf(TraceEvent::Kind::Suspend));
}

TEST(TraceTest, EventsAreTimeOrderedPerInstance)
{
    auto w = workloads::makeSaxpy(256);
    TaskTracer t = traceRun(w);
    // For any (sid, slot) incarnation: spawn <= dispatch <= retire.
    std::map<std::pair<unsigned, unsigned>, uint64_t> last;
    for (const TraceEvent &e : t.all()) {
        auto key = std::make_pair(e.sid, e.slot);
        if (e.kind == TraceEvent::Kind::Spawn) {
            last[key] = e.cycle;
        } else {
            auto it = last.find(key);
            ASSERT_NE(it, last.end());
            EXPECT_GE(e.cycle, it->second);
            it->second = e.cycle;
        }
    }
}

TEST(TraceTest, MeanLifetimePositiveAndOrdered)
{
    auto w = workloads::makeDedup(8, 64);
    TaskTracer t = traceRun(w);
    double all = t.meanLifetime();
    EXPECT_GT(all, 0.0);
    // S0 (the whole pipeline driver) lives longer than S3 (tiny
    // output stage instances).
    EXPECT_GT(t.meanLifetime(0), t.meanLifetime(3));
}

TEST(TraceTest, CsvShape)
{
    auto w = workloads::makeSpawnScale(16, 2);
    TaskTracer t = traceRun(w);
    std::ostringstream os;
    t.dumpCsv(os);
    std::string csv = os.str();
    EXPECT_EQ(csv.rfind("cycle,event,sid,slot\n", 0), 0u);
    size_t lines = std::count(csv.begin(), csv.end(), '\n');
    EXPECT_EQ(lines, t.all().size() + 1);
    EXPECT_NE(csv.find(",spawn,"), std::string::npos);
    EXPECT_NE(csv.find(",retire,"), std::string::npos);
}

TEST(TraceTest, AggregatesMatchBruteForceScan)
{
    // countOf / meanLifetime are maintained incrementally in
    // record(); pin them against a from-scratch scan of the raw
    // event vector (the pre-aggregate implementation).
    auto w = workloads::makeFib(10);
    TaskTracer t = traceRun(w);

    std::array<size_t, kNumTraceKinds> kinds{};
    std::map<std::pair<unsigned, unsigned>, uint64_t> open;
    std::map<unsigned, std::pair<double, uint64_t>> per_sid;
    double all_sum = 0.0;
    uint64_t all_n = 0;
    for (const TraceEvent &e : t.all()) {
        ++kinds[static_cast<unsigned>(e.kind)];
        auto key = std::make_pair(e.sid, e.slot);
        if (e.kind == TraceEvent::Kind::Spawn) {
            open[key] = e.cycle;
        } else if (e.kind == TraceEvent::Kind::Retire) {
            auto it = open.find(key);
            ASSERT_NE(it, open.end());
            double life = static_cast<double>(e.cycle - it->second);
            open.erase(it);
            per_sid[e.sid].first += life;
            ++per_sid[e.sid].second;
            all_sum += life;
            ++all_n;
        }
    }

    for (unsigned k = 0; k < kNumTraceKinds; ++k) {
        EXPECT_EQ(t.countOf(static_cast<TraceEvent::Kind>(k)),
                  kinds[k]);
    }
    ASSERT_GT(all_n, 0u);
    EXPECT_DOUBLE_EQ(t.meanLifetime(),
                     all_sum / static_cast<double>(all_n));
    for (const auto &kv : per_sid) {
        EXPECT_DOUBLE_EQ(t.meanLifetime(kv.first),
                         kv.second.first /
                             static_cast<double>(kv.second.second));
    }
    // Unknown sid: no samples, zero mean.
    EXPECT_DOUBLE_EQ(t.meanLifetime(12345), 0.0);

    t.clear();
    EXPECT_TRUE(t.all().empty());
    EXPECT_EQ(t.countOf(TraceEvent::Kind::Spawn), 0u);
    EXPECT_DOUBLE_EQ(t.meanLifetime(), 0.0);
}

TEST(TraceTest, NoTracerNoOverheadPathStillWorks)
{
    // Default: no tracer attached; simulation unaffected.
    auto w1 = workloads::makeStencil(6, 6, 1);
    arch::AcceleratorParams p = w1.params;
    auto design = hls::compile(*w1.module, w1.top, p);
    ir::MemImage mem;
    auto args = w1.setup(mem);
    sim::AcceleratorSim accel(*design, mem);
    accel.run(args);
    EXPECT_TRUE(w1.verify(mem, ir::RtValue()).empty());
}
