/**
 * @file
 * Ablation: memory-system sensitivity (the paper's Section VI
 * "cache hierarchy" discussion). Sweeps the shared L1 capacity and
 * the outstanding-miss (MSHR) budget on a cache-pressure kernel and
 * reports cycles + hit rate: the accelerator's performance hinges on
 * the memory system exactly as the paper's future-work laments.
 */

#include "bench/common.hh"

using namespace tapas;
using namespace tapas::bench;

namespace {

/** Run a workload with one memory-system parameter overridden. */
RunResult
runWithMem(workloads::Workload &w, unsigned tiles,
           const std::function<void(arch::MemSystemParams &)> &tweak)
{
    arch::AcceleratorParams p = w.params;
    p.setAllTiles(tiles);
    tweak(p.mem);
    driver::AccelSimEngine::Options eo;
    eo.device = fpga::Device::cycloneV();
    eo.params = p;
    return runAccelWith(w, std::move(eo));
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchArgs(argc, argv);
    banner("Ablation", "shared-cache capacity and MSHR "
                       "sensitivity");

    const std::vector<unsigned> cache_kbs{64, 16, 4, 1};
    const std::vector<unsigned> mshr_counts{1, 2, 4, 8, 16};
    const std::vector<bool> scratch_opts{false, true};

    driver::Sweep<RunResult> sweep(opt.jobs);
    for (unsigned kb : cache_kbs) {
        sweep.add([kb] {
            auto w = workloads::makeMergeSort(2048, 32);
            return runWithMem(w, 2, [kb](arch::MemSystemParams &m) {
                m.cacheBytes = kb * 1024;
            });
        });
    }
    for (unsigned mshrs : mshr_counts) {
        sweep.add([mshrs] {
            auto w = workloads::makeSaxpy(8192);
            return runWithMem(w, 4, [mshrs](arch::MemSystemParams &m) {
                m.mshrs = mshrs;
            });
        });
    }
    for (bool scratch : scratch_opts) {
        sweep.add([scratch] {
            auto w = workloads::makeStencil(32, 32, 2);
            return runWithMem(w, 4, [scratch](arch::MemSystemParams &m) {
                m.useScratchpad = scratch;
            });
        });
    }
    std::vector<RunResult> results = sweep.run();

    Json doc = experimentJson("ablate_memory");
    Json rows = Json::array();
    size_t idx = 0;

    std::cout << "L1 capacity sweep (4 MSHRs, mergesort n=2048 -- "
                 "16K working set per array):\n";
    TextTable t1;
    t1.header({"cache", "cycles", "hit rate", "slowdown vs 64K"});
    uint64_t base = 0;
    for (unsigned kb : cache_kbs) {
        const RunResult &r = results[idx++];
        if (kb == 64)
            base = r.cycles;
        t1.row({strfmt("%uK", kb), std::to_string(r.cycles),
                strfmt("%.1f%%", r.cacheHitRate * 100.0),
                strfmt("%.2fx",
                       static_cast<double>(r.cycles) / base)});

        Json jr = Json::object();
        jr.set("sweep", Json::str("cache_capacity"));
        jr.set("cache_kb", Json::num(kb));
        jr.set("result", runResultJson(r));
        rows.push(std::move(jr));
    }
    t1.print(std::cout);

    std::cout << "\nMSHR sweep (16K cache):\n";
    TextTable t2;
    t2.header({"MSHRs", "cycles", "mshr rejects",
               "speedup vs 1"});
    uint64_t one = 0;
    for (unsigned mshrs : mshr_counts) {
        const RunResult &r = results[idx++];
        if (mshrs == 1)
            one = r.cycles;
        double rejects = r.stat("l1cache.mshr_rejects");
        t2.row({std::to_string(mshrs), std::to_string(r.cycles),
                strfmt("%.0f", rejects),
                strfmt("%.2fx",
                       static_cast<double>(one) / r.cycles)});

        Json jr = Json::object();
        jr.set("sweep", Json::str("mshrs"));
        jr.set("mshrs", Json::num(mshrs));
        jr.set("mshr_rejects", Json::num(rejects));
        jr.set("result", runResultJson(r));
        rows.push(std::move(jr));
    }
    t2.print(std::cout);

    std::cout << "\nCache vs scratchpad (stencil 32x32, 4 tiles -- "
                 "the Fig. 8 data box\nsupports both; the paper "
                 "evaluates only the cache):\n";
    TextTable t3;
    t3.header({"backend", "cycles", "speedup"});
    uint64_t cache_cycles = 0;
    for (bool scratch : scratch_opts) {
        const RunResult &r = results[idx++];
        if (!scratch)
            cache_cycles = r.cycles;
        t3.row({scratch ? "scratchpad" : "cache",
                std::to_string(r.cycles),
                strfmt("%.2fx", static_cast<double>(cache_cycles) /
                                    r.cycles)});

        Json jr = Json::object();
        jr.set("sweep", Json::str("backend"));
        jr.set("backend",
               Json::str(scratch ? "scratchpad" : "cache"));
        jr.set("result", runResultJson(r));
        rows.push(std::move(jr));
    }
    t3.print(std::cout);
    doc.set("rows", std::move(rows));
    maybeWriteJson(opt, doc);

    std::cout << "\nThe paper ships a blocking RISC-V cache with "
                 "\"limited support for\nmultiple outstanding "
                 "misses\" and names the cache hierarchy the main\n"
                 "obstacle to beating the multicore; the sweeps "
                 "quantify both effects.\n";
    return 0;
}
