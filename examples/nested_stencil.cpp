/**
 * @file
 * Nested parallel/serial loops example (paper Fig. 10): the stencil
 * kernel, swept over tile counts to show per-task-unit scaling — the
 * knob Stage 3 exposes (paper Section III-D).
 *
 * Build & run:  ./build/examples/nested_stencil
 */

#include <iostream>

#include "fpga/model.hh"
#include "sim/accel.hh"
#include "support/table.hh"
#include "workloads/workload.hh"

using namespace tapas;

int
main()
{
    const unsigned kRows = 32;
    const unsigned kCols = 32;
    const unsigned kNbr = 2;

    std::cout << "stencil " << kRows << "x" << kCols
              << ", neighbourhood +/-" << kNbr
              << " (parallel outer loop, serial inner loops)\n\n";

    TextTable table;
    table.header({"tiles", "cycles", "speedup", "ALMs", "fmax(MHz)",
                  "cells/kcycle"});

    uint64_t base_cycles = 0;
    for (unsigned tiles : {1u, 2u, 4u, 8u}) {
        auto w = workloads::makeStencil(kRows, kCols, kNbr);
        arch::AcceleratorParams p = w.params;
        p.setAllTiles(tiles);
        auto design = hls::compile(*w.module, w.top, p);

        ir::MemImage mem;
        auto args = w.setup(mem);
        sim::AcceleratorSim accel(*design, mem);
        accel.run(args);
        std::string err = w.verify(mem, ir::RtValue());
        if (!err.empty()) {
            std::cerr << "verification failed: " << err << "\n";
            return 1;
        }
        if (tiles == 1)
            base_cycles = accel.cycles();

        fpga::ResourceReport rep =
            fpga::estimateResources(*design, fpga::Device::cycloneV());
        double cells = static_cast<double>(kRows) * kCols;
        table.row({std::to_string(tiles),
                   std::to_string(accel.cycles()),
                   strfmt("%.2fx", static_cast<double>(base_cycles) /
                                       accel.cycles()),
                   std::to_string(rep.alms),
                   strfmt("%.0f", rep.fmaxMhz),
                   strfmt("%.1f",
                          cells / (accel.cycles() / 1000.0))});
    }
    table.print(std::cout);
    std::cout << "\nEvery configuration computed the identical, "
                 "verified result.\n";
    return 0;
}
