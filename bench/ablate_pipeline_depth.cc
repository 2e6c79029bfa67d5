/**
 * @file
 * Ablation: TXU pipeline depth — how many task instances one tile
 * may overlap (paper Fig. 7's in-flight tasks; a Stage-3 parameter).
 * Deeper pipelines hide memory latency and fill the dataflow; the
 * sweep shows dedup's streaming stages need depth, while a tiny-body
 * microbenchmark saturates immediately.
 */

#include "bench/common.hh"

using namespace tapas;
using namespace tapas::bench;

namespace {

RunResult
runDepth(workloads::Workload &w, unsigned tiles, unsigned depth)
{
    arch::AcceleratorParams p = w.params;
    p.setAllTiles(tiles);
    p.defaults.tilePipelineDepth = depth;
    for (auto &[sid, tp] : p.perTask)
        tp.tilePipelineDepth = depth;
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
    banner("Ablation", "TXU pipeline depth (in-flight task "
                       "instances per tile)");

    const std::vector<unsigned> depths{1, 2, 4, 8, 16, 48};

    driver::Sweep<RunResult> sweep(opt.jobs);
    for (unsigned depth : depths) {
        sweep.add([depth] {
            auto w = workloads::makeDedup(48, 256);
            return runDepth(w, 2, depth);
        });
        sweep.add([depth] {
            auto w = workloads::makeSpawnScale(2048, 10);
            return runDepth(w, 2, depth);
        });
    }
    std::vector<RunResult> results = sweep.run();

    TextTable t;
    t.header({"depth", "dedup cycles", "dedup speedup",
              "spawn_scale cycles", "spawn_scale speedup"});
    Json doc = experimentJson("ablate_pipeline_depth");
    Json rows = Json::array();

    uint64_t dedup1 = 0;
    uint64_t scale1 = 0;
    size_t idx = 0;
    for (unsigned depth : depths) {
        uint64_t d = results[idx++].cycles;
        uint64_t s = results[idx++].cycles;
        if (depth == 1) {
            dedup1 = d;
            scale1 = s;
        }
        t.row({std::to_string(depth), std::to_string(d),
               strfmt("%.2fx", static_cast<double>(dedup1) / d),
               std::to_string(s),
               strfmt("%.2fx", static_cast<double>(scale1) / s)});

        Json jr = Json::object();
        jr.set("depth", Json::num(depth));
        jr.set("dedup_cycles", Json::num(d));
        jr.set("spawn_scale_cycles", Json::num(s));
        rows.push(std::move(jr));
    }
    t.print(std::cout);
    doc.set("rows", std::move(rows));
    maybeWriteJson(opt, doc);

    std::cout << "\nStreaming stages with long per-instance loops "
                 "(dedup) keep gaining from\ndeeper pipelines; tiny "
                 "task bodies saturate after a couple of in-flight\n"
                 "instances because the spawner is the bottleneck "
                 "(Fig. 13's regime).\n";
    return 0;
}
