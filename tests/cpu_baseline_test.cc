/**
 * @file
 * Tests for the CPU baseline: task-DAG extraction, the work-stealing
 * scheduler, and the trace-driven cache model.
 */

#include <gtest/gtest.h>

#include "cpu/multicore.hh"
#include "workloads/workload.hh"

using namespace tapas;
using namespace tapas::cpu;
using workloads::Workload;

namespace {

TaskDag
dagFor(Workload &w, const CpuParams &p)
{
    ir::MemImage mem;
    auto args = w.setup(mem);
    return buildTaskDag(*w.module, *w.top, args, mem, p);
}

} // namespace

TEST(TaskDagTest, SerialProgramIsAChain)
{
    auto w = workloads::makeMergeSort(32, 64); // cutoff >= n: no rec
    CpuParams p;
    TaskDag dag = dagFor(w, p);
    // No spawns: one execution chain, parallelism ~1.
    EXPECT_EQ(dag.spawns, 0u);
    EXPECT_NEAR(dag.parallelism(), 1.0, 1e-9);
}

TEST(TaskDagTest, ParallelLoopHasParallelism)
{
    // A flat serial-spawning loop with a tiny body has bounded
    // parallelism on a CPU: the spawn overhead in the control chain
    // rivals the body work (the paper's fine-grain-task argument).
    auto w = workloads::makeSaxpy(512);
    CpuParams p;
    TaskDag dag = dagFor(w, p);
    EXPECT_EQ(dag.spawns, 512u / 32u); // grain 32
    EXPECT_GT(dag.parallelism(), 1.3);
    EXPECT_GT(dag.work, dag.span);

    // Nested loops expose hierarchical spawning: much better.
    auto w2 = workloads::makeMatrixAdd(24);
    TaskDag dag2 = dagFor(w2, p);
    EXPECT_GT(dag2.parallelism(), 4.0);
}

TEST(TaskDagTest, FibRichParallelism)
{
    auto w = workloads::makeFib(14);
    CpuParams p;
    TaskDag dag = dagFor(w, p);
    EXPECT_GT(dag.spawns, 500u);
    EXPECT_GT(dag.parallelism(), 8.0);
}

TEST(TaskDagTest, SpawnOverheadInflatesWork)
{
    auto w1 = workloads::makeSpawnScale(256, 4);
    CpuParams cheap;
    cheap.spawnOverhead = 1;
    TaskDag d_cheap = dagFor(w1, cheap);

    auto w2 = workloads::makeSpawnScale(256, 4);
    CpuParams expensive;
    expensive.spawnOverhead = 500;
    TaskDag d_exp = dagFor(w2, expensive);

    // Fine-grain tasks: spawn overhead dominates the added work
    // (the paper's "software gets zero benefit" effect).
    EXPECT_GT(d_exp.work, d_cheap.work + 256.0 * 400);
}

TEST(TaskDagTest, DagEdgesAreForwardAndAcyclic)
{
    auto w = workloads::makeDedup(8, 32);
    CpuParams p;
    TaskDag dag = dagFor(w, p);
    for (size_t i = 0; i < dag.strands.size(); ++i) {
        for (uint32_t s : dag.strands[i].succs)
            EXPECT_GT(s, i);
    }
}

TEST(WsSimTest, OneCoreEqualsWork)
{
    auto w = workloads::makeMatrixAdd(12);
    CpuParams p;
    TaskDag dag = dagFor(w, p);
    ScheduleResult r = scheduleWorkStealing(dag, 1, p.stealLatency);
    EXPECT_NEAR(r.cycles, dag.work, dag.work * 1e-9);
    EXPECT_EQ(r.steals, 0u);
}

TEST(WsSimTest, MoreCoresNeverSlower)
{
    auto w = workloads::makeStencil(12, 12, 1);
    CpuParams p;
    TaskDag dag = dagFor(w, p);
    double prev = 1e300;
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        ScheduleResult r = scheduleWorkStealing(dag, cores, 100.0);
        EXPECT_LE(r.cycles, prev * 1.0001) << cores << " cores";
        prev = r.cycles;
    }
}

TEST(WsSimTest, BoundedByWorkAndSpan)
{
    auto w = workloads::makeFib(13);
    CpuParams p;
    TaskDag dag = dagFor(w, p);
    for (unsigned cores : {2u, 4u}) {
        ScheduleResult r = scheduleWorkStealing(dag, cores, 0.0);
        // Greedy bound: T_P <= T1/P + Tinf; and T_P >= max(T1/P, Tinf).
        EXPECT_GE(r.cycles, dag.span * 0.999);
        EXPECT_GE(r.cycles, dag.work / cores * 0.999);
        EXPECT_LE(r.cycles, dag.work / cores + dag.span + 1.0);
    }
}

TEST(WsSimTest, Deterministic)
{
    auto w1 = workloads::makeDedup(6, 32);
    auto w2 = workloads::makeDedup(6, 32);
    CpuParams p;
    TaskDag d1 = dagFor(w1, p);
    TaskDag d2 = dagFor(w2, p);
    ScheduleResult a = scheduleWorkStealing(d1, 4, p.stealLatency);
    ScheduleResult b = scheduleWorkStealing(d2, 4, p.stealLatency);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.steals, b.steals);
}

TEST(WsSimTest, StealLatencySlowsFineGrainWork)
{
    auto w = workloads::makeSpawnScale(512, 2);
    CpuParams p;
    TaskDag dag = dagFor(w, p);
    ScheduleResult fast = scheduleWorkStealing(dag, 4, 0.0);
    ScheduleResult slow = scheduleWorkStealing(dag, 4, 2000.0);
    EXPECT_GE(slow.cycles, fast.cycles);
}

TEST(CpuCacheTest, LocalityHitsL1)
{
    CpuParams p;
    CpuCacheModel cache(p);
    // Stream over one line repeatedly: after the first miss, hits.
    double first = cache.access(0x10000, false);
    EXPECT_GT(first, p.l2HitCost); // cold: DRAM
    for (int i = 0; i < 7; ++i) {
        EXPECT_DOUBLE_EQ(cache.access(0x10000 + i * 8, false),
                         p.l1HitCost);
    }
    EXPECT_EQ(cache.l1Hits, 7u);
}

TEST(CpuCacheTest, L2CatchesL1Spills)
{
    CpuParams p;
    p.l1Bytes = 1024;
    p.l2Bytes = 1 << 20;
    CpuCacheModel cache(p);
    // Working set of 4 KiB: misses L1, fits L2.
    for (int round = 0; round < 3; ++round) {
        for (uint64_t a = 0; a < 4096; a += 64)
            cache.access(0x100000 + a, false);
    }
    EXPECT_GT(cache.l2Hits, 60u);
    EXPECT_LT(cache.dramAccesses, 70u);
}

TEST(MulticoreTest, RunsAllWorkloads)
{
    for (auto &w : workloads::makePaperSuite(1)) {
        ir::MemImage mem;
        auto args = w.setup(mem);
        CpuRunResult r = runOnCpu(*w.module, *w.top, args, mem,
                                  CpuParams::intelI7());
        EXPECT_GT(r.cycles, 0.0) << w.name;
        EXPECT_GT(r.seconds, 0.0) << w.name;
        EXPECT_LE(r.seconds, r.serialSeconds * 1.01) << w.name;
        // Functional result still verifies after the modelled run.
        EXPECT_TRUE(w.verify(mem, ir::RtValue()).empty() ||
                    w.name == "fib")
            << w.name;
    }
}

TEST(MulticoreTest, ArmSlowerThanI7)
{
    // The paper's context point: sequential ARM ~13x slower than i7.
    auto wi = workloads::makeStencil(16, 16, 1);
    ir::MemImage mem_i;
    auto args_i = wi.setup(mem_i);
    CpuRunResult i7 = runOnCpu(*wi.module, *wi.top, args_i, mem_i,
                               CpuParams::intelI7());

    auto wa = workloads::makeStencil(16, 16, 1);
    ir::MemImage mem_a;
    auto args_a = wa.setup(mem_a);
    CpuRunResult arm = runOnCpu(*wa.module, *wa.top, args_a, mem_a,
                                CpuParams::armA9());

    EXPECT_GT(arm.serialSeconds, 5.0 * i7.serialSeconds);
}
