/**
 * @file
 * Functional validation of every benchmark workload against the
 * reference interpreter: the IR must verify, execute, and produce
 * the golden outputs.
 */

#include <gtest/gtest.h>

#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "workloads/workload.hh"

using namespace tapas;
using workloads::Workload;

namespace {

void
runOnInterp(Workload w)
{
    ir::VerifyResult v = ir::verifyModule(*w.module);
    ASSERT_TRUE(v.ok()) << v.str() << "\n" << ir::toString(*w.module);

    ir::MemImage mem;
    auto args = w.setup(mem);
    ir::Interp interp(*w.module, mem);
    ir::RtValue ret = interp.run(*w.top, args);
    std::string err = w.verify(mem, ret);
    EXPECT_TRUE(err.empty()) << w.name << ": " << err;
    EXPECT_GT(interp.stats().totalInsts, 0u);
}

} // namespace

TEST(WorkloadInterpTest, MatrixAdd)
{
    runOnInterp(workloads::makeMatrixAdd(12));
}

TEST(WorkloadInterpTest, MatrixAddLarge)
{
    runOnInterp(workloads::makeMatrixAdd(40));
}

TEST(WorkloadInterpTest, ImageScale)
{
    runOnInterp(workloads::makeImageScale(16, 10));
}

TEST(WorkloadInterpTest, Saxpy)
{
    runOnInterp(workloads::makeSaxpy(300));
}

TEST(WorkloadInterpTest, Stencil)
{
    runOnInterp(workloads::makeStencil(9, 11, 1));
}

TEST(WorkloadInterpTest, StencilWideNeighbourhood)
{
    runOnInterp(workloads::makeStencil(7, 7, 2));
}

TEST(WorkloadInterpTest, Dedup)
{
    runOnInterp(workloads::makeDedup(10, 64));
}

TEST(WorkloadInterpTest, DedupManyChunks)
{
    runOnInterp(workloads::makeDedup(30, 32));
}

TEST(WorkloadInterpTest, MergeSort)
{
    runOnInterp(workloads::makeMergeSort(512, 16));
}

TEST(WorkloadInterpTest, MergeSortTiny)
{
    runOnInterp(workloads::makeMergeSort(8, 4));
}

TEST(WorkloadInterpTest, Fib)
{
    runOnInterp(workloads::makeFib(12));
}

TEST(WorkloadInterpTest, SpawnScale)
{
    runOnInterp(workloads::makeSpawnScale(64, 10));
}

TEST(WorkloadInterpTest, SpawnScaleManyAdders)
{
    runOnInterp(workloads::makeSpawnScale(16, 50));
}

TEST(WorkloadInterpTest, PaperSuiteBuilds)
{
    auto suite = workloads::makePaperSuite(1);
    ASSERT_EQ(suite.size(), 7u);
    for (const auto &w : suite) {
        EXPECT_TRUE(ir::verifyModule(*w.module).ok())
            << w.name << ":\n" << ir::verifyModule(*w.module).str();
    }
}

/** Spawn counts through the interpreter match the loop structure. */
TEST(WorkloadInterpTest, SpawnCounts)
{
    Workload w = workloads::makeMatrixAdd(8);
    ir::MemImage mem;
    auto args = w.setup(mem);
    ir::Interp interp(*w.module, mem);
    interp.run(*w.top, args);
    // 8 row tasks + 8 grain tasks (grain 16 covers each 8-wide row).
    EXPECT_EQ(interp.stats().spawns, 8u + 8u);
}
