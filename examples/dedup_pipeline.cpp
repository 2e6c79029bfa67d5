/**
 * @file
 * Dynamic pipeline example (paper Fig. 1): the dedup benchmark's
 * conditional, heterogeneous task pipeline, run on the simulated
 * accelerator and on the modelled i7, with per-stage statistics.
 *
 * Build & run:  ./build/examples/dedup_pipeline
 */

#include <iostream>

#include "cpu/multicore.hh"
#include "fpga/model.hh"
#include "sim/accel.hh"
#include "workloads/workload.hh"

using namespace tapas;

int
main()
{
    const unsigned kChunks = 48;
    const unsigned kChunkSize = 256;

    auto w = workloads::makeDedup(kChunks, kChunkSize);
    std::cout << "dedup: " << kChunks << " chunks x " << kChunkSize
              << " B (challenge: " << w.challenge << ")\n\n";

    arch::AcceleratorParams params = w.params;
    params.setAllTiles(2);
    auto design = hls::compile(*w.module, w.top, params);

    std::cout << "=== Pipeline task units ===\n";
    for (const auto &t : design->taskGraph->tasks()) {
        std::cout << "  S" << t->sid() << "  " << t->name() << " ("
                  << t->numInstructions() << " insts, "
                  << t->numMemOps() << " mem ops)\n";
    }

    // --- accelerator run ----------------------------------------------
    ir::MemImage mem;
    auto args = w.setup(mem);
    sim::AcceleratorSim accel(*design, mem);
    accel.run(args);
    std::string err = w.verify(mem, ir::RtValue());
    std::cout << "\naccelerator: "
              << (err.empty() ? "output CORRECT" : err) << ", "
              << accel.cycles() << " cycles\n";

    std::cout << "per-stage instances (conditional stage skips "
              << "duplicates):\n";
    for (const auto &t : design->taskGraph->tasks()) {
        std::cout << "  S" << t->sid() << " "
                  << accel.unit(t->sid()).instancesDone.value()
                  << " instances\n";
    }

    // --- i7 baseline ----------------------------------------------------
    auto w2 = workloads::makeDedup(kChunks, kChunkSize);
    ir::MemImage mem2;
    auto args2 = w2.setup(mem2);
    cpu::CpuRunResult i7 = cpu::runOnCpu(
        *w2.module, *w2.top, args2, mem2, cpu::CpuParams::intelI7());

    fpga::ResourceReport rep =
        fpga::estimateResources(*design, fpga::Device::cycloneV());
    double accel_s = accel.seconds(rep.fmaxMhz);

    std::cout << "\n=== TAPAS (Cyclone V @" << rep.fmaxMhz
              << " MHz) vs i7 quad ===\n"
              << "  accelerator: " << accel_s * 1e6 << " us, "
              << rep.powerW << " W\n"
              << "  i7 (4 cores): " << i7.seconds * 1e6 << " us, "
              << fpga::kIntelI7PowerW << " W\n"
              << "  speedup:      " << i7.seconds / accel_s << "x\n"
              << "  perf/watt:    "
              << (i7.seconds / accel_s) *
                     (fpga::kIntelI7PowerW / rep.powerW)
              << "x\n";
    return err.empty() ? 0 : 1;
}
