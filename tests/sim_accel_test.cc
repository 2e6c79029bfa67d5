/**
 * @file
 * End-to-end accelerator-simulator tests: every benchmark compiles
 * through the TAPAS toolchain, runs on the cycle-level simulator,
 * produces golden-verified output, and exhibits sane timing behaviour
 * (tile scaling, spawn latency, queue back-pressure).
 */

#include <gtest/gtest.h>

#include "sim/accel.hh"
#include "workloads/workload.hh"

using namespace tapas;
using workloads::Workload;

namespace {

struct RunResult
{
    uint64_t cycles = 0;
    uint64_t spawns = 0;
};

RunResult
runOnAccel(Workload &w, unsigned ntiles = 1)
{
    arch::AcceleratorParams p = w.params;
    p.setAllTiles(ntiles);
    auto design = hls::compile(*w.module, w.top, p);

    ir::MemImage mem;
    auto args = w.setup(mem);
    sim::AcceleratorSim accel(*design, mem);
    ir::RtValue ret = accel.run(args);

    std::string err = w.verify(mem, ret);
    EXPECT_TRUE(err.empty()) << w.name << ": " << err;
    return {accel.cycles(), accel.totalSpawns()};
}

} // namespace

TEST(AccelSimTest, MatrixAdd)
{
    auto w = workloads::makeMatrixAdd(8);
    RunResult r = runOnAccel(w);
    EXPECT_GT(r.cycles, 0u);
    // 1 root + 8 row tasks + 8 grain tasks (grain 16 >= row width).
    EXPECT_EQ(r.spawns, 1u + 8u + 8u);
}

TEST(AccelSimTest, ImageScale)
{
    auto w = workloads::makeImageScale(8, 6);
    runOnAccel(w);
}

TEST(AccelSimTest, Saxpy)
{
    auto w = workloads::makeSaxpy(128);
    RunResult r = runOnAccel(w);
    EXPECT_EQ(r.spawns, 1u + 128u / 32u); // grain 32
}

TEST(AccelSimTest, Stencil)
{
    auto w = workloads::makeStencil(6, 8, 1);
    runOnAccel(w);
}

TEST(AccelSimTest, Dedup)
{
    auto w = workloads::makeDedup(8, 48);
    runOnAccel(w);
}

TEST(AccelSimTest, MergeSort)
{
    auto w = workloads::makeMergeSort(256, 16);
    runOnAccel(w);
}

TEST(AccelSimTest, Fib)
{
    auto w = workloads::makeFib(10);
    runOnAccel(w);
}

TEST(AccelSimTest, SpawnScale)
{
    auto w = workloads::makeSpawnScale(64, 10);
    runOnAccel(w);
}

TEST(AccelSimTest, MultiTileMatchesFunctionally)
{
    for (unsigned tiles : {2u, 4u, 8u}) {
        auto w = workloads::makeMatrixAdd(10);
        runOnAccel(w, tiles);
    }
}

TEST(AccelSimTest, RecursiveMultiTile)
{
    auto w = workloads::makeFib(11);
    runOnAccel(w, 4);
    auto w2 = workloads::makeMergeSort(256, 16);
    runOnAccel(w2, 4);
}

TEST(AccelSimTest, TileScalingImprovesComputeBound)
{
    auto w1 = workloads::makeStencil(8, 8, 1);
    RunResult one = runOnAccel(w1, 1);
    auto w4 = workloads::makeStencil(8, 8, 1);
    RunResult four = runOnAccel(w4, 4);
    EXPECT_LT(four.cycles, one.cycles)
        << "4 tiles must beat 1 tile on a compute-bound kernel";
}

TEST(AccelSimTest, SpawnLatencyIsTensOfCycles)
{
    // Paper Section V-A: tasks spawn in ~10 cycles.
    auto w = workloads::makeSpawnScale(128, 1);
    arch::AcceleratorParams p = w.params;
    auto design = hls::compile(*w.module, w.top, p);
    ir::MemImage mem;
    auto args = w.setup(mem);
    sim::AcceleratorSim accel(*design, mem);
    accel.run(args);

    // Body task unit is sid of the root's child.
    unsigned body_sid =
        design->taskGraph->root()->children()[0]->sid();
    double lat = accel.unit(body_sid)
                     .stats.scalarValue("spawn_to_dispatch");
    EXPECT_GT(lat, 2.0);
    EXPECT_LT(lat, 64.0);
}

TEST(AccelSimTest, QueueBackpressureDoesNotDeadlockLoops)
{
    // Tiny queue on a wide loop: spawns must stall and retry.
    auto w = workloads::makeSpawnScale(64, 2);
    arch::AcceleratorParams p = w.params;
    p.defaults.ntasks = 2;
    auto design = hls::compile(*w.module, w.top, p);
    ir::MemImage mem;
    auto args = w.setup(mem);
    sim::AcceleratorSim accel(*design, mem);
    accel.run(args);
    EXPECT_TRUE(w.verify(mem, ir::RtValue()).empty());

    unsigned body_sid =
        design->taskGraph->root()->children()[0]->sid();
    EXPECT_GT(accel.unit(body_sid).spawnRejects.value(), 0u);
}

TEST(AccelSimTest, RecursionDeeperThanQueueDeadlocksWithDiagnostic)
{
    // The paper's hardware reality: recursion holds queue entries;
    // a too-small Ntasks wedges the accelerator. We detect it and
    // return a structured failure (the process stays alive) with a
    // per-unit diagnostic dump.
    auto w = workloads::makeFib(12);
    arch::AcceleratorParams p;
    p.defaults.ntasks = 4;
    auto design = hls::compile(*w.module, w.top, p);
    ir::MemImage mem;
    auto args = w.setup(mem);
    sim::AcceleratorSim accel(*design, mem);
    accel.watchdogCycles = 20000;
    accel.run(args);

    const sim::SimFailure &f = accel.failure();
    ASSERT_TRUE(f.failed());
    EXPECT_EQ(f.kind, sim::SimFailure::Kind::Deadlock);
    EXPECT_STREQ(sim::failureKindName(f.kind), "deadlock");
    EXPECT_NE(f.detail.find("deadlock"), std::string::npos);
    EXPECT_NE(f.detail.find("raise Ntasks"), std::string::npos);
    // The diagnostic dump names every unit with its queue state.
    EXPECT_NE(f.detail.find("occupancy"), std::string::npos);
    EXPECT_NE(f.detail.find("last progress"), std::string::npos);
    EXPECT_NE(f.detail.find("outstanding cache misses"),
              std::string::npos);

    // A subsequent run on a fresh simulator with the workload's own
    // (deep-enough) queue preset is unaffected.
    arch::AcceleratorParams p2 = w.params;
    auto design2 = hls::compile(*w.module, w.top, p2);
    ir::MemImage mem2;
    auto args2 = w.setup(mem2);
    sim::AcceleratorSim accel2(*design2, mem2);
    ir::RtValue ret = accel2.run(args2);
    EXPECT_FALSE(accel2.failure().failed());
    EXPECT_TRUE(w.verify(mem2, ret).empty());
}

TEST(AccelSimTest, CacheStatsPopulated)
{
    auto w = workloads::makeSaxpy(256);
    arch::AcceleratorParams p = w.params;
    auto design = hls::compile(*w.module, w.top, p);
    ir::MemImage mem;
    auto args = w.setup(mem);
    sim::AcceleratorSim accel(*design, mem);
    accel.run(args);

    auto &cache = accel.cacheModel();
    EXPECT_GT(cache.accesses.value(), 256u * 2);
    EXPECT_GT(cache.misses.value(), 0u);
    EXPECT_GT(cache.hits.value(), 0u);
}

TEST(AccelSimTest, DeterministicCycleCounts)
{
    auto w1 = workloads::makeDedup(6, 32);
    RunResult a = runOnAccel(w1, 2);
    auto w2 = workloads::makeDedup(6, 32);
    RunResult b = runOnAccel(w2, 2);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.spawns, b.spawns);
}

TEST(AccelSimTest, SmallerCacheIsSlower)
{
    auto mk = [] { return workloads::makeStencil(24, 24, 2); };
    auto w_big = mk();
    arch::AcceleratorParams p_big = w_big.params;
    p_big.mem.cacheBytes = 64 * 1024;
    auto d_big = hls::compile(*w_big.module, w_big.top, p_big);
    ir::MemImage m_big;
    auto a_big = w_big.setup(m_big);
    sim::AcceleratorSim s_big(*d_big, m_big);
    s_big.run(a_big);

    auto w_small = mk();
    arch::AcceleratorParams p_small = w_small.params;
    p_small.mem.cacheBytes = 512;
    auto d_small = hls::compile(*w_small.module, w_small.top,
                                p_small);
    ir::MemImage m_small;
    auto a_small = w_small.setup(m_small);
    sim::AcceleratorSim s_small(*d_small, m_small);
    s_small.run(a_small);

    EXPECT_LT(s_big.cycles(), s_small.cycles());
}
