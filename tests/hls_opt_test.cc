/**
 * @file
 * Tests for the pre-synthesis optimization passes (constant folding,
 * branch simplification, dead block/code elimination), including the
 * invariant that optimized programs still verify and compute
 * identical results.
 */

#include <gtest/gtest.h>

#include "hls/opt.hh"
#include "ir/builder.hh"
#include "ir/interp.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "workloads/loops.hh"
#include "workloads/workload.hh"

using namespace tapas;
using namespace tapas::ir;
using namespace tapas::hls;

TEST(OptTest, FoldsConstantArithmetic)
{
    Module mod;
    IRBuilder b(mod);
    Function *f = mod.addFunction("f", Type::i64(), {});
    b.setInsertPoint(f->addBlock("entry"));
    Value *a = b.createAdd(b.constI64(2), b.constI64(3));
    Value *c = b.createMul(a, b.constI64(10));
    b.createRet(c);

    OptStats s = optimizeFunction(*f, mod);
    EXPECT_EQ(s.foldedConstants, 2u);
    EXPECT_EQ(f->numInstructions(), 1u); // just the ret
    EXPECT_TRUE(verifyFunction(*f).ok());

    MemImage mem;
    Interp interp(mod, mem);
    EXPECT_EQ(interp.run(*f, {}).i, 50);
}

TEST(OptTest, FoldsCompareCastSelect)
{
    Module mod;
    IRBuilder b(mod);
    Function *f = mod.addFunction("f", Type::i64(),
                                  {{Type::i64(), "x"}});
    b.setInsertPoint(f->addBlock("entry"));
    Value *c = b.createICmp(CmpPred::SLT, b.constI64(1),
                            b.constI64(2));
    Value *sel = b.createSelect(c, f->arg(0), b.constI64(0));
    Value *w = b.createSExt(mod.constInt(Type::i8(), -1),
                            Type::i64());
    b.createRet(b.createAdd(sel, w));

    optimizeFunction(*f, mod);
    EXPECT_TRUE(verifyFunction(*f).ok());

    MemImage mem;
    Interp interp(mod, mem);
    EXPECT_EQ(interp.run(*f, {RtValue::fromInt(10)}).i, 9);
    // select + icmp + sext folded away; add(x, -1) + ret remain.
    EXPECT_EQ(f->numInstructions(), 2u);
}

TEST(OptTest, NeverFoldsDivisionByZero)
{
    Module mod;
    IRBuilder b(mod);
    Function *f = mod.addFunction("f", Type::i64(), {});
    b.setInsertPoint(f->addBlock("entry"));
    Value *q = b.createSDiv(b.constI64(10), b.constI64(0));
    b.createRet(q);

    OptStats s = optimizeFunction(*f, mod);
    EXPECT_EQ(s.foldedConstants, 0u);
    EXPECT_EQ(f->numInstructions(), 2u);
}

TEST(OptTest, SimplifiesConstantBranchAndRemovesDeadBlock)
{
    Module mod;
    IRBuilder b(mod);
    Function *f = mod.addFunction("f", Type::i64(),
                                  {{Type::i64(), "x"}});
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *live = f->addBlock("live");
    BasicBlock *dead = f->addBlock("dead");
    BasicBlock *join = f->addBlock("join");

    b.setInsertPoint(entry);
    Value *c = b.createICmp(CmpPred::SGT, b.constI64(5),
                            b.constI64(1));
    b.createCondBr(c, live, dead);

    b.setInsertPoint(live);
    Value *vl = b.createAdd(f->arg(0), b.constI64(1), "vl");
    b.createBr(join);

    b.setInsertPoint(dead);
    Value *vd = b.createMul(f->arg(0), b.constI64(99), "vd");
    b.createBr(join);

    b.setInsertPoint(join);
    PhiInst *phi = b.createPhi(Type::i64(), "m");
    phi->addIncoming(vl, live);
    phi->addIncoming(vd, dead);
    b.createRet(phi);

    OptStats s = optimizeFunction(*f, mod);
    EXPECT_GE(s.simplifiedBranches, 1u);
    EXPECT_EQ(s.removedBlocks, 1u);
    EXPECT_EQ(f->numBlocks(), 3u);
    EXPECT_TRUE(verifyFunction(*f).ok()) << verifyFunction(*f).str();

    // The phi lost its dead edge; single-entry phi still legal.
    EXPECT_EQ(phi->numIncoming(), 1u);

    MemImage mem;
    Interp interp(mod, mem);
    EXPECT_EQ(interp.run(*f, {RtValue::fromInt(7)}).i, 8);
}

TEST(OptTest, RemovesDeadPureCode)
{
    Module mod;
    IRBuilder b(mod);
    mod.addGlobal("g", 64);
    Function *f = mod.addFunction("f", Type::i64(),
                                  {{Type::i64(), "x"}});
    b.setInsertPoint(f->addBlock("entry"));
    b.createMul(f->arg(0), f->arg(0), "unused1");
    Value *addr = b.createGep(mod.globalByName("g"), 8,
                              b.constI64(0), "unused_addr");
    b.createLoad(Type::i64(), addr, "unused_load");
    Value *kept = b.createAdd(f->arg(0), b.constI64(1), "kept");
    b.createStore(kept, b.createGep(mod.globalByName("g"), 8,
                                    b.constI64(1), "store_addr"));
    b.createRet(kept);

    OptStats s = optimizeFunction(*f, mod);
    // unused mul + unused load + its gep go; the store chain stays.
    EXPECT_GE(s.removedInstructions, 3u);
    EXPECT_TRUE(verifyFunction(*f).ok());
    EXPECT_EQ(f->numInstructions(), 4u);
}

TEST(OptTest, KeepsTapirStructure)
{
    // A spawned region full of folding opportunities keeps its
    // detach/reattach/sync skeleton.
    Module mod;
    IRBuilder b(mod);
    GlobalVar *g = mod.addGlobal("out", 8);
    Function *f = mod.addFunction("f", Type::voidTy(), {});
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *body = f->addBlock("body");
    BasicBlock *cont = f->addBlock("cont");
    BasicBlock *done = f->addBlock("done");

    b.setInsertPoint(entry);
    b.createDetach(body, cont);
    b.setInsertPoint(body);
    Value *v = b.createAdd(b.constI64(40), b.constI64(2));
    b.createStore(v, g);
    b.createReattach(cont);
    b.setInsertPoint(cont);
    b.createSync(done);
    b.setInsertPoint(done);
    b.createRet();

    OptStats s = optimizeFunction(*f, mod);
    EXPECT_EQ(s.foldedConstants, 1u);
    EXPECT_EQ(f->numBlocks(), 4u);
    EXPECT_TRUE(f->hasDetach());
    EXPECT_TRUE(verifyFunction(*f).ok());

    MemImage mem;
    mem.layout(mod);
    Interp interp(mod, mem);
    interp.run(*f, {});
    EXPECT_EQ(mem.get<int64_t>(mem.addressOf(g)), 42);
}

TEST(OptTest, WorkloadsUnchangedFunctionally)
{
    // Optimize every benchmark module, then confirm the interpreter
    // still produces golden outputs.
    for (auto &w : workloads::makePaperSuite(1)) {
        OptStats s = optimizeModule(*w.module);
        (void)s;
        VerifyResult v = verifyModule(*w.module);
        ASSERT_TRUE(v.ok()) << w.name << ":\n" << v.str();

        MemImage mem;
        auto args = w.setup(mem);
        Interp interp(*w.module, mem);
        RtValue ret = interp.run(*w.top, args);
        EXPECT_TRUE(w.verify(mem, ret).empty())
            << w.name << ": " << w.verify(mem, ret);
    }
}

TEST(OptTest, ShrinksGeneratedHardware)
{
    // Folding shrinks the dataflow: build a body with constant math.
    Module mod;
    IRBuilder b(mod);
    GlobalVar *g = mod.addGlobal("a", 4 * 64);
    Function *f = mod.addFunction("k", Type::voidTy(),
                                  {{Type::i64(), "n"}});
    b.setInsertPoint(f->addBlock("entry"));
    workloads::buildCilkFor(b, b.constI64(0), f->arg(0), "i",
                            [&](IRBuilder &bi, Value *i) {
        // (3*4+5) is compile-time constant.
        Value *k1 = bi.createMul(bi.constI64(3), bi.constI64(4));
        Value *k2 = bi.createAdd(k1, bi.constI64(5));
        Value *addr = bi.createGep(g, 4, i);
        Value *v = bi.createLoad(Type::i32(), addr);
        Value *k2_32 = bi.createTrunc(k2, Type::i32());
        bi.createStore(bi.createAdd(v, k2_32), addr);
    });
    b.createRet();

    size_t before = f->numInstructions();
    optimizeFunction(*f, mod);
    size_t after = f->numInstructions();
    EXPECT_LT(after, before);
    EXPECT_TRUE(verifyFunction(*f).ok());
}
