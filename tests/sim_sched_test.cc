/**
 * @file
 * Cycle-loop fast-path tests. The loop skips whole-machine idle spans
 * and sleeps individual quiet tiles, settling their accounting in
 * bulk on wake-up. Both are automatic: a nonzero fault rate (RNG
 * draws every cycle) turns both off, an attached trace sink turns
 * tile sleep off. These tests check that the paths engage where they
 * should, stay off where they must, and that an observed run (tiles
 * awake) reproduces an unobserved one field for field — across
 * interrupt, replay and checkpoint boundaries too. Per-workload
 * numbers are pinned by tests/sim_fingerprint_test.cc.
 */

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "driver/engine.hh"
#include "sim/accel.hh"
#include "sim/fault.hh"
#include "sim/trace.hh"
#include "workloads/workload.hh"

using namespace tapas;

namespace {

/** Run `w` with profiling on (broadest stats surface). */
driver::RunResult
runWith(workloads::Workload &w, driver::AccelSimEngine::Options eo = {},
        driver::RunOptions ro = {})
{
    driver::AccelSimEngine eng(std::move(eo));
    ro.profile = true;
    return eng.runWorkload(w, ro);
}

/** saxpy over a tiny cache in front of slow, narrow DRAM. */
workloads::Workload
dramBoundSaxpy()
{
    auto w = workloads::makeSaxpy(2048);
    w.params.mem.cacheBytes = 4 * 1024;
    w.params.mem.dramLatency = 400;
    w.params.mem.dramWordsPerCycle = 1;
    w.params.mem.mshrs = 2;
    return w;
}

/**
 * Long MSHR-full head-reject spans are where tile sleep earns its
 * keep and where its bulk stall accounting must reproduce per-tile
 * ticking: the unobserved run (tiles sleep) must equal the same run
 * with a tracer attached (every tile awake).
 */
TEST(SchedEquiv, DramBoundSleepEngagesAndMatches)
{
    auto w1 = dramBoundSaxpy();
    auto w2 = dramBoundSaxpy();
    uint64_t slept = 0;
    driver::AccelSimEngine::Options eo;
    eo.observer = [&](const hls::AcceleratorDesign &,
                      sim::AcceleratorSim &sim) {
        slept = sim.tileSleptCycles();
    };
    driver::RunResult fast = runWith(w1, eo);
    EXPECT_GT(slept, 0u) << "tile sleep never engaged";

    sim::TaskTracer tracer;
    eo.tracer = &tracer;
    driver::RunResult traced = runWith(w2, std::move(eo));
    EXPECT_EQ(slept, 0u) << "a trace sink must keep tiles awake";
    EXPECT_TRUE(fast.ok());
    EXPECT_TRUE(fast.equals(traced))
        << "tile sleep diverged: cycles " << fast.cycles << " vs "
        << traced.cycles;
}

/** The idle skip must actually fire on a memory-bound workload. */
TEST(IdleSkip, ActuallySkipsCycles)
{
    auto w = workloads::makeSaxpy(1024);
    uint64_t skipped = 0;
    driver::AccelSimEngine::Options eo;
    eo.observer = [&](const hls::AcceleratorDesign &,
                      sim::AcceleratorSim &sim) {
        skipped = sim.skippedCycles();
    };
    driver::RunResult r = runWith(w, std::move(eo));
    EXPECT_TRUE(r.ok());
    EXPECT_GT(skipped, 0u);
}

/** A nonzero fault rate disables the skip: zero cycles skipped. */
TEST(IdleSkip, DisabledReportsZero)
{
    auto w = workloads::makeSaxpy(1024);
    uint64_t skipped = ~0ull;
    uint64_t slept = ~0ull;
    driver::AccelSimEngine::Options eo;
    eo.fault = sim::FaultConfig::uniform(1e-3, 0xfeedu);
    eo.observer = [&](const hls::AcceleratorDesign &,
                      sim::AcceleratorSim &sim) {
        skipped = sim.skippedCycles();
        slept = sim.tileSleptCycles();
    };
    runWith(w, std::move(eo));
    EXPECT_EQ(skipped, 0u);
    EXPECT_EQ(slept, 0u);
}

/**
 * A zero-rate injector consumes no RNG, so both fast paths stay on;
 * cycles and every stat outside the fault.* block must equal a run
 * with no injector at all.
 */
TEST(SchedEquiv, ZeroRateInjectorByteIdentical)
{
    auto w1 = workloads::makeFib(12);
    auto w2 = workloads::makeFib(12);
    driver::RunResult none = runWith(w1);
    driver::AccelSimEngine::Options eo;
    eo.fault = sim::FaultConfig{};
    driver::RunResult zero = runWith(w2, std::move(eo));
    ASSERT_TRUE(none.ok());
    EXPECT_EQ(none.cycles, zero.cycles);
    std::map<std::string, double> rest = zero.stats;
    std::erase_if(rest, [](const auto &kv) {
        return kv.first.starts_with("fault.");
    });
    EXPECT_EQ(none.stats, rest);
}

/**
 * Interrupting at a deterministic cycle deadline and replaying the
 * recipe must reproduce the uninterrupted run byte for byte. A
 * mid-sleep interrupt is the sharp edge: the end-of-run settle has
 * to close every open sleep span before stats are read, so the
 * prefix must also equal a traced (never sleeping) run stopped at
 * the same boundary.
 */
TEST(SchedEquiv, InterruptThenReplayByteIdentical)
{
    auto runOnce = [](driver::RunOptions ro,
                      sim::TaskTracer *tracer = nullptr) {
        auto w = workloads::makeSaxpy(1024);
        driver::AccelSimEngine::Options eo;
        eo.tracer = tracer;
        return runWith(w, std::move(eo), std::move(ro));
    };

    driver::RunResult ref = runOnce({});
    ASSERT_TRUE(ref.ok());
    ASSERT_GT(ref.cycles, 2u);

    driver::RunOptions mid;
    mid.deadlineCycles = ref.cycles / 2;
    driver::RunResult stopped = runOnce(mid);
    EXPECT_TRUE(stopped.interrupted);
    EXPECT_EQ(stopped.interruptCycle, ref.cycles / 2);

    sim::TaskTracer tracer;
    driver::RunResult traced_stopped = runOnce(mid, &tracer);
    EXPECT_TRUE(stopped.equals(traced_stopped))
        << "interrupted prefix diverged at cycle "
        << stopped.interruptCycle;

    driver::RunResult resumed = runOnce({});
    EXPECT_TRUE(resumed.equals(ref))
        << "replay after interruption diverged";
}

/**
 * Checkpoint callbacks land on exact cadence multiples: calendar
 * jumps and tile sleep never overshoot a boundary.
 */
TEST(SchedEquiv, CheckpointBoundariesExact)
{
    auto w = workloads::makeSaxpy(1024);
    std::vector<uint64_t> fired;
    driver::RunOptions ro;
    ro.checkpointEveryCycles = 64;
    ro.onCheckpoint = [&](uint64_t cyc) { fired.push_back(cyc); };
    driver::RunResult r = runWith(w, {}, ro);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(fired.empty());
    uint64_t prev = 0;
    for (uint64_t cyc : fired) {
        EXPECT_GT(cyc, prev);
        EXPECT_EQ(cyc % 64, 0u);
        prev = cyc;
    }
}

} // namespace
