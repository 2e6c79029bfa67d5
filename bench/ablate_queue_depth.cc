/**
 * @file
 * Ablation: task-queue depth (Ntasks), the paper's primary Stage-3
 * parameter. For recursive parallelism the queues absorb the live
 * spawn tree: too shallow wedges the accelerator (detected, reported)
 * while deeper queues trade BRAM for concurrency; for flat loops a
 * handful of entries suffices.
 */

#include "bench/common.hh"

using namespace tapas;
using namespace tapas::bench;

namespace {

/** Run with a given queue depth on every task unit. */
RunResult
runNtasks(workloads::Workload &w, unsigned tiles, unsigned ntasks)
{
    arch::AcceleratorParams p = w.params;
    p.defaults.ntasks = ntasks;
    p.setAllTiles(tiles);
    driver::AccelSimEngine::Options eo;
    eo.device = fpga::Device::cycloneV();
    eo.params = p;
    return runAccelWith(w, std::move(eo));
}

/** Sum "unit.<task>.spawn_rejects" over every task unit. */
uint64_t
totalSpawnRejects(const RunResult &r)
{
    double total = 0;
    for (const auto &[key, value] : r.stats) {
        if (key.rfind("unit.", 0) == 0 &&
            key.size() > 14 &&
            key.compare(key.size() - 14, 14, ".spawn_rejects") == 0) {
            total += value;
        }
    }
    return static_cast<uint64_t>(total);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchArgs(argc, argv);
    banner("Ablation", "task queue depth (Ntasks) vs performance "
                       "and BRAM");

    const std::vector<unsigned> fib_depths{768, 1024, 2048, 4096};
    const std::vector<unsigned> saxpy_depths{2, 4, 16, 64};

    driver::Sweep<RunResult> sweep(opt.jobs);
    for (unsigned ntasks : fib_depths) {
        sweep.add([ntasks] {
            auto w = workloads::makeFib(13);
            return runNtasks(w, 2, ntasks);
        });
    }
    for (unsigned ntasks : saxpy_depths) {
        sweep.add([ntasks] {
            auto w = workloads::makeSaxpy(4096);
            return runNtasks(w, 4, ntasks);
        });
    }
    std::vector<RunResult> results = sweep.run();

    Json doc = experimentJson("ablate_queue_depth");
    Json rows = Json::array();
    size_t idx = 0;

    std::cout << "fib(13), 2 tiles (recursion-heavy):\n";
    TextTable t;
    t.header({"Ntasks", "cycles", "BRAM", "speedup vs 768"});
    uint64_t base = 0;
    for (unsigned ntasks : fib_depths) {
        const RunResult &r = results[idx++];
        if (!base)
            base = r.cycles;
        t.row({std::to_string(ntasks), std::to_string(r.cycles),
               strfmt("%.0f", r.stat("brams")),
               strfmt("%.2fx",
                      static_cast<double>(base) / r.cycles)});

        Json jr = Json::object();
        jr.set("kernel", Json::str("fib"));
        jr.set("ntasks", Json::num(ntasks));
        jr.set("brams", Json::num(r.stat("brams")));
        jr.set("result", runResultJson(r));
        rows.push(std::move(jr));
    }
    t.print(std::cout);

    std::cout << "\nsaxpy 4096, 4 tiles (flat loop):\n";
    TextTable t2;
    t2.header({"Ntasks", "cycles", "spawn rejects"});
    for (unsigned ntasks : saxpy_depths) {
        const RunResult &r = results[idx++];
        uint64_t rejects = totalSpawnRejects(r);
        t2.row({std::to_string(ntasks), std::to_string(r.cycles),
                std::to_string(rejects)});

        Json jr = Json::object();
        jr.set("kernel", Json::str("saxpy"));
        jr.set("ntasks", Json::num(ntasks));
        jr.set("spawn_rejects", Json::num(rejects));
        jr.set("result", runResultJson(r));
        rows.push(std::move(jr));
    }
    t2.print(std::cout);
    doc.set("rows", std::move(rows));
    maybeWriteJson(opt, doc);

    std::cout << "\nRecursion needs queues sized for the live spawn "
                 "tree: below ~768\nentries fib(13) deadlocks (the "
                 "watchdog reports it; see the\nRecursionDeeperThan"
                 "Queue test); above that, extra depth only costs\n"
                 "BRAM -- the paper's fib/mergesort BRAM budgets. "
                 "Flat loops are\ninsensitive beyond a few entries "
                 "because spawn back-pressure throttles\nthe "
                 "control loop anyway.\n";
    return 0;
}
