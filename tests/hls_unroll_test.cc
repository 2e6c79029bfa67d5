/**
 * @file
 * Tests for the serial-loop unroller: structural correctness,
 * functional equivalence across trip counts (including remainders),
 * carry chains, and interaction with the workloads + the simulator.
 */

#include <gtest/gtest.h>

#include "hls/opt.hh"
#include "hls/unroll.hh"
#include "ir/interp.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "sim/accel.hh"
#include "workloads/loops.hh"
#include "workloads/workload.hh"

using namespace tapas;
using namespace tapas::ir;
using namespace tapas::hls;

namespace {

/** Build i64 sum(i64 n) = sum of i*i for i in [0, n). */
Function *
buildSquareSum(Module &mod)
{
    IRBuilder b(mod);
    Function *f = mod.addFunction("sqsum", Type::i64(),
                                  {{Type::i64(), "n"}});
    b.setInsertPoint(f->addBlock("entry"));
    Value *acc = workloads::buildSerialForCarry(
        b, b.constI64(0), f->arg(0), b.constI64(0), "s",
        [&](IRBuilder &bi, Value *i, Value *carry) {
            return bi.createAdd(carry, bi.createMul(i, i));
        });
    b.createRet(acc);
    return f;
}

int64_t
runSqsum(Module &mod, Function *f, int64_t n)
{
    MemImage mem;
    Interp interp(mod, mem);
    return interp.run(*f, {RtValue::fromInt(n)}).i;
}

} // namespace

TEST(UnrollTest, StructureAndVerification)
{
    Module mod;
    Function *f = buildSquareSum(mod);
    size_t blocks_before = f->numBlocks();

    UnrollOptions opts;
    opts.factor = 4;
    EXPECT_EQ(unrollSerialLoops(*f, mod, opts), 1u);
    EXPECT_EQ(f->numBlocks(), blocks_before + 3); // hdr/body/latch
    VerifyResult v = verifyFunction(*f);
    EXPECT_TRUE(v.ok()) << v.str() << "\n" << toString(*f);
}

TEST(UnrollTest, FunctionalAcrossTripCounts)
{
    // Every remainder case: trips 0..13 with factor 4.
    Module ref_mod;
    Function *ref = buildSquareSum(ref_mod);

    Module unr_mod;
    Function *unr = buildSquareSum(unr_mod);
    UnrollOptions opts;
    opts.factor = 4;
    ASSERT_EQ(unrollSerialLoops(*unr, unr_mod, opts), 1u);

    for (int64_t n = 0; n <= 13; ++n) {
        EXPECT_EQ(runSqsum(unr_mod, unr, n),
                  runSqsum(ref_mod, ref, n))
            << "n=" << n;
    }
}

TEST(UnrollTest, CrossCarrySwapPattern)
{
    // Fibonacci-style cross-carry: a, b = b, a + b. The unroller must
    // snapshot carries between copies.
    Module mod;
    IRBuilder b(mod);
    Function *f = mod.addFunction("fibi", Type::i64(),
                                  {{Type::i64(), "n"}});
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *header = f->addBlock("header");
    BasicBlock *body = f->addBlock("body");
    BasicBlock *latch = f->addBlock("latch");
    BasicBlock *exit = f->addBlock("exit");

    b.setInsertPoint(entry);
    b.createBr(header);
    b.setInsertPoint(header);
    PhiInst *i = b.createPhi(Type::i64(), "i");
    PhiInst *pa = b.createPhi(Type::i64(), "a");
    PhiInst *pb = b.createPhi(Type::i64(), "b");
    Value *c = b.createICmp(CmpPred::SLT, i, f->arg(0));
    b.createCondBr(c, body, exit);
    b.setInsertPoint(body);
    Value *sum = b.createAdd(pa, pb, "sum");
    b.createBr(latch);
    b.setInsertPoint(latch);
    Value *inext = b.createAdd(i, b.constI64(1));
    b.createBr(header);
    i->addIncoming(b.constI64(0), entry);
    i->addIncoming(inext, latch);
    pa->addIncoming(b.constI64(0), entry);
    pa->addIncoming(pb, latch);   // a' = b
    pb->addIncoming(b.constI64(1), entry);
    pb->addIncoming(sum, latch);  // b' = a + b
    b.setInsertPoint(exit);
    b.createRet(pa);

    // Reference values before transforming.
    std::vector<int64_t> want;
    {
        MemImage mem;
        Interp interp(mod, mem);
        for (int64_t n = 0; n <= 10; ++n)
            want.push_back(
                interp.run(*f, {RtValue::fromInt(n)}).i);
    }

    UnrollOptions opts;
    opts.factor = 3;
    ASSERT_EQ(unrollSerialLoops(*f, mod, opts), 1u);
    ASSERT_TRUE(verifyFunction(*f).ok())
        << verifyFunction(*f).str();

    MemImage mem;
    Interp interp(mod, mem);
    for (int64_t n = 0; n <= 10; ++n) {
        EXPECT_EQ(interp.run(*f, {RtValue::fromInt(n)}).i,
                  want[static_cast<size_t>(n)])
            << "n=" << n;
    }
}

TEST(UnrollTest, SkipsNonCanonicalLoops)
{
    // The dedup RLE scanners (data-dependent inner loop) and loops
    // with spawns must be left alone.
    auto w = workloads::makeDedup(4, 32);
    for (const auto &f : w.module->functions()) {
        unrollSerialLoops(*f, *w.module, UnrollOptions{});
        VerifyResult v = verifyFunction(*f);
        EXPECT_TRUE(v.ok()) << f->name() << ": " << v.str();
    }

    // Still computes the right answer.
    MemImage mem;
    auto args = w.setup(mem);
    Interp interp(*w.module, mem);
    RtValue ret = interp.run(*w.top, args);
    EXPECT_TRUE(w.verify(mem, ret).empty());
}

TEST(UnrollTest, WorkloadsStillVerifyOnAccelerator)
{
    // Unroll the grained element loops, then run the full pipeline
    // on the simulator: results must stay golden.
    for (auto make : {+[] { return workloads::makeSaxpy(192); },
                      +[] { return workloads::makeStencil(8, 8, 1); }}) {
        auto w = make();
        unsigned unrolled = 0;
        for (const auto &f : w.module->functions())
            unrolled += unrollSerialLoops(*f, *w.module,
                                          UnrollOptions{});
        EXPECT_GE(unrolled, 1u) << w.name;
        ir::VerifyResult v = verifyModule(*w.module);
        ASSERT_TRUE(v.ok()) << w.name << ":\n" << v.str();

        auto design = hls::compile(*w.module, w.top, w.params);
        MemImage mem;
        auto args = w.setup(mem);
        sim::AcceleratorSim accel(*design, mem);
        accel.run(args);
        EXPECT_TRUE(w.verify(mem, RtValue()).empty()) << w.name;
    }
}

TEST(UnrollTest, GrowsDataflowIlp)
{
    // Unrolling multiplies the per-activation function units.
    auto w1 = workloads::makeSaxpy(192);
    auto d1 = hls::compile(*w1.module, w1.top, w1.params);

    auto w2 = workloads::makeSaxpy(192);
    for (const auto &f : w2.module->functions())
        unrollSerialLoops(*f, *w2.module, UnrollOptions{});
    auto d2 = hls::compile(*w2.module, w2.top, w2.params);

    unsigned body1 = d1->taskGraph->root()->children()[0]->sid();
    unsigned body2 = d2->taskGraph->root()->children()[0]->sid();
    EXPECT_GT(d2->dataflow(body2).numMemPorts(),
              d1->dataflow(body1).numMemPorts());
    EXPECT_GT(d2->dataflow(body2).numOps(),
              d1->dataflow(body1).numOps());
}
