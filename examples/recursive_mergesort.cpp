/**
 * @file
 * Recursive parallelism example (paper Section IV-C): mergesort
 * spawning itself, with the accelerator's task queues absorbing the
 * recursion. Also writes the generated Chisel and Graphviz files.
 *
 * Build & run:  ./build/examples/recursive_mergesort
 */

#include <fstream>
#include <iostream>

#include "codegen/chisel.hh"
#include "sim/accel.hh"
#include "workloads/workload.hh"

using namespace tapas;

int
main()
{
    const unsigned kN = 2048;
    const unsigned kCutoff = 64;

    auto w = workloads::makeMergeSort(kN, kCutoff);
    auto design = hls::compile(*w.module, w.top, w.params);

    std::cout << "mergesort n=" << kN << " cutoff=" << kCutoff
              << "\n\n=== Task graph ===\n";
    for (const auto &t : design->taskGraph->tasks()) {
        std::cout << "  T" << t->sid() << "  " << t->name()
                  << (t->isRecursive() ? "  [recursive]" : "")
                  << "  queue=" <<
            design->params.forTask(t->sid()).ntasks << "\n";
    }

    ir::MemImage mem;
    auto args = w.setup(mem);
    sim::AcceleratorSim accel(*design, mem);
    accel.run(args);

    std::string err = w.verify(mem, ir::RtValue());
    std::cout << "\nresult: "
              << (err.empty() ? "sorted CORRECTLY" : err) << "\n"
              << "cycles: " << accel.cycles() << "\n"
              << "task instances: " << accel.totalSpawns() << "\n";
    for (const auto &t : design->taskGraph->tasks()) {
        auto &u = accel.unit(t->sid());
        std::cout << "  T" << t->sid() << " spawns="
                  << u.spawnsAccepted.value()
                  << " sync_suspends=" << u.syncSuspends.value()
                  << " call_suspends=" << u.callSuspends.value()
                  << "\n";
    }

    // Emit the hardware artifacts.
    {
        std::ofstream f("mergesort_accel.scala");
        codegen::emitChisel(*design, f);
        std::ofstream g("mergesort_tasks.dot");
        codegen::emitTaskGraphDot(*design->taskGraph, g);
        std::cout << "\nwrote mergesort_accel.scala and "
                     "mergesort_tasks.dot\n";
    }
    return err.empty() ? 0 : 1;
}
