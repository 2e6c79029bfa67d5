/**
 * @file
 * google-benchmark microbenchmarks of the toolchain itself: IR
 * construction, verification, task extraction, full compilation,
 * reference interpretation and cycle simulation throughput (both via
 * the unified Engine API), plus the experiment driver's fan-out
 * overhead. These guard against performance regressions in the
 * infrastructure (they do not reproduce paper results).
 */

#include <benchmark/benchmark.h>

#include "driver/engine.hh"
#include "driver/jobrunner.hh"
#include "dse/design_cache.hh"
#include "hls/compile.hh"
#include "hls/task_extract.hh"
#include "ir/printer.hh"
#include "ir/parser.hh"
#include "ir/verifier.hh"
#include "workloads/workload.hh"

using namespace tapas;

namespace {

void
BM_BuildWorkloadIr(benchmark::State &state)
{
    for (auto _ : state) {
        auto w = workloads::makeStencil(16, 16, 1);
        benchmark::DoNotOptimize(w.top);
    }
}
BENCHMARK(BM_BuildWorkloadIr);

void
BM_VerifyModule(benchmark::State &state)
{
    auto w = workloads::makeDedup(8, 64);
    for (auto _ : state) {
        auto r = ir::verifyModule(*w.module);
        benchmark::DoNotOptimize(r.ok());
    }
}
BENCHMARK(BM_VerifyModule);

void
BM_PrintParseRoundTrip(benchmark::State &state)
{
    auto w = workloads::makeMergeSort(64, 16);
    for (auto _ : state) {
        std::string text = ir::toString(*w.module);
        auto parsed = ir::parseModule(text);
        benchmark::DoNotOptimize(parsed.ok());
    }
}
BENCHMARK(BM_PrintParseRoundTrip);

void
BM_TaskExtraction(benchmark::State &state)
{
    auto w = workloads::makeDedup(8, 64);
    for (auto _ : state) {
        auto tg = hls::extractTasks(*w.module, w.top);
        benchmark::DoNotOptimize(tg->numTasks());
    }
}
BENCHMARK(BM_TaskExtraction);

void
BM_FullCompile(benchmark::State &state)
{
    auto w = workloads::makeMergeSort(256, 32);
    for (auto _ : state) {
        auto design = hls::compile(*w.module, w.top, w.params);
        benchmark::DoNotOptimize(design->dataflows.size());
    }
}
BENCHMARK(BM_FullCompile);

void
BM_MicroOpLowering(benchmark::State &state)
{
    // Ahead-of-time micro-op lowering (ir/lower.hh) in isolation,
    // with the compile pipeline's reported share of it as a counter
    // (hls::compile times the same phase into lowerSec).
    auto w = workloads::makeMergeSort(256, 32);
    auto design = hls::compile(*w.module, w.top, w.params);
    for (auto _ : state) {
        ir::LoweredProgram lp(*w.module, ir::LowerOptions{});
        benchmark::DoNotOptimize(lp.numFuncs());
    }
    state.counters["compile_lower_sec"] = design->lowerSec;
}
BENCHMARK(BM_MicroOpLowering);

void
BM_InterpThroughput(benchmark::State &state)
{
    auto w = workloads::makeStencil(12, 12, 1);
    driver::InterpEngine eng;
    uint64_t insts = 0;
    for (auto _ : state) {
        ir::MemImage mem;
        auto args = w.setup(mem);
        driver::RunResult r = eng.run(*w.module, *w.top, args, mem, {});
        insts += static_cast<uint64_t>(r.stat("total_insts"));
    }
    state.counters["insts/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpThroughput);

void
BM_AccelSimThroughput(benchmark::State &state)
{
    auto w = workloads::makeSaxpy(1024);
    // Prepare the design once (the compile/run split) so the
    // benchmark measures simulation, not compilation.
    driver::AccelSimEngine eng;
    driver::CompiledDesign design = eng.prepare(w);
    uint64_t cycles = 0;
    for (auto _ : state) {
        ir::MemImage mem;
        auto args = w.setup(mem);
        driver::RunResult r = eng.run(design, args, mem, {});
        cycles += r.cycles;
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AccelSimThroughput);

void
BM_PreparedCompileCached(benchmark::State &state)
{
    // The DSE cache's steady state: every lookup after the first is
    // a hit returning the shared CompiledDesign.
    auto w = workloads::makeSaxpy(256);
    const std::string text = ir::toString(*w.module);
    hls::CompileOptions copts;
    copts.params = w.params;
    const fpga::Device dev = fpga::Device::cycloneV();
    dse::DesignCache cache;
    cache.get(text, w.top->name(), copts, dev);
    for (auto _ : state) {
        auto look = cache.get(text, w.top->name(), copts, dev);
        benchmark::DoNotOptimize(look.hit);
    }
    state.counters["hits"] =
        static_cast<double>(cache.hits());
}
BENCHMARK(BM_PreparedCompileCached);

void
BM_SweepFanout(benchmark::State &state)
{
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    uint64_t total = 0;
    for (auto _ : state) {
        driver::Sweep<uint64_t> sweep(jobs);
        for (uint64_t i = 0; i < 64; ++i)
            sweep.add([i] { return i * i; });
        for (uint64_t v : sweep.run())
            total += v;
    }
    benchmark::DoNotOptimize(total);
    state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_SweepFanout)->Arg(1)->Arg(4);

} // namespace

BENCHMARK_MAIN();
