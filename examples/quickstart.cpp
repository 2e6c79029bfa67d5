/**
 * @file
 * Quickstart: the complete TAPAS flow on a tiny parallel kernel.
 *
 *   1. write a parallel program against the IR builder (a cilk_for
 *      that scales a vector);
 *   2. run the TAPAS HLS toolchain (task extraction -> dataflow ->
 *      parameter binding);
 *   3. simulate the generated accelerator cycle by cycle;
 *   4. check the output and look at the stats and the generated
 *      Chisel.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <iostream>

#include "codegen/chisel.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "sim/accel.hh"
#include "workloads/loops.hh"

using namespace tapas;

int
main()
{
    // ---- 1. Write a parallel program -------------------------------
    ir::Module mod;
    ir::IRBuilder b(mod);

    const unsigned kN = 1024;
    ir::GlobalVar *vec = mod.addGlobal("vec", 4 * kN);

    ir::Function *top = mod.addFunction(
        "scale3", ir::Type::voidTy(),
        {{ir::Type::ptr(), "a"}, {ir::Type::i64(), "n"}});

    b.setInsertPoint(top->addBlock("entry"));
    workloads::buildCilkFor(
        b, b.constI64(0), top->arg(1), "i",
        [&](ir::IRBuilder &bi, ir::Value *i) {
            // a[i] = 3 * a[i]   -- each iteration is a spawned task
            ir::Value *addr = bi.createGep(top->arg(0), 4, i);
            ir::Value *v =
                bi.createLoad(ir::Type::i32(), addr, "v");
            ir::Value *scaled =
                bi.createMul(v, mod.constInt(ir::Type::i32(), 3));
            bi.createStore(scaled, addr);
        });
    b.createRet();

    ir::verifyOrDie(mod);
    std::cout << "=== Parallel IR ===\n"
              << ir::toString(*top) << "\n";

    // ---- 2. TAPAS HLS ------------------------------------------------
    auto design = hls::compile(mod, top);
    std::cout << "=== Task graph ===\n";
    for (const auto &t : design->taskGraph->tasks()) {
        std::cout << "  T" << t->sid() << "  " << t->name() << "  ("
                  << t->numInstructions() << " insts, "
                  << t->args().size() << " args";
        if (t->parent())
            std::cout << ", spawned by T" << t->parent()->sid();
        std::cout << ")\n";
    }

    // ---- 3. Simulate the accelerator --------------------------------
    ir::MemImage mem;
    mem.layout(mod);
    uint64_t base = mem.addressOf(vec);
    for (unsigned i = 0; i < kN; ++i)
        mem.put<int32_t>(base + 4 * i, static_cast<int32_t>(i));

    sim::AcceleratorSim accel(*design, mem);
    accel.run({ir::RtValue::fromPtr(base), ir::RtValue::fromInt(kN)});

    // ---- 4. Check + report ------------------------------------------
    bool ok = true;
    for (unsigned i = 0; i < kN; ++i) {
        if (mem.get<int32_t>(base + 4 * i) !=
            3 * static_cast<int32_t>(i)) {
            ok = false;
        }
    }
    std::cout << "\n=== Simulation ===\n"
              << "  result:        " << (ok ? "CORRECT" : "WRONG")
              << "\n  cycles:        " << accel.cycles()
              << "\n  tasks spawned: " << accel.totalSpawns()
              << "\n  cycles/task:   "
              << static_cast<double>(accel.cycles()) / kN
              << "\n  cache hit rate: "
              << accel.cacheModel().hitRate() * 100.0 << "%\n";

    std::cout << "\n=== Generated Chisel (head) ===\n";
    std::string chisel = codegen::chiselString(*design);
    std::cout << chisel.substr(0, 1200) << "...\n("
              << chisel.size() << " bytes total)\n";
    return ok ? 0 : 1;
}
