/**
 * @file
 * Tests for the reference interpreter: arithmetic, control flow,
 * memory, recursion, and Tapir serial-elision semantics.
 */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "ir/interp.hh"
#include "ir/verifier.hh"

using namespace tapas::ir;

namespace {

class InterpTest : public ::testing::Test
{
  protected:
    RtValue
    runI(Function *f, std::vector<RtValue> args)
    {
        VerifyResult v = verifyModule(mod);
        EXPECT_TRUE(v.ok()) << v.str();
        Interp interp(mod, mem);
        RtValue r = interp.run(*f, std::move(args));
        last = interp.stats();
        return r;
    }

    Module mod;
    IRBuilder b{mod};
    MemImage mem;
    InterpStats last;
};

/** Build i64 @sum(i64 n) { return 0+1+...+(n-1); } with a loop. */
Function *
buildSumLoop(Module &mod, IRBuilder &b)
{
    Function *f = mod.addFunction("sum", Type::i64(),
                                  {{Type::i64(), "n"}});
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *header = f->addBlock("header");
    BasicBlock *body = f->addBlock("body");
    BasicBlock *exit = f->addBlock("exit");

    b.setInsertPoint(entry);
    b.createBr(header);

    b.setInsertPoint(header);
    PhiInst *i = b.createPhi(Type::i64(), "i");
    PhiInst *acc = b.createPhi(Type::i64(), "acc");
    Value *c = b.createICmp(CmpPred::SLT, i, f->arg(0), "c");
    b.createCondBr(c, body, exit);

    b.setInsertPoint(body);
    Value *acc2 = b.createAdd(acc, i, "acc2");
    Value *i2 = b.createAdd(i, b.constI64(1), "i2");
    b.createBr(header);

    i->addIncoming(b.constI64(0), entry);
    i->addIncoming(i2, body);
    acc->addIncoming(b.constI64(0), entry);
    acc->addIncoming(acc2, body);

    b.setInsertPoint(exit);
    b.createRet(acc);
    return f;
}

} // namespace

TEST_F(InterpTest, StraightLineArith)
{
    Function *f = mod.addFunction("f", Type::i64(),
                                  {{Type::i64(), "x"}});
    b.setInsertPoint(f->addBlock("entry"));
    Value *a = b.createMul(f->arg(0), b.constI64(3));
    Value *c = b.createAdd(a, b.constI64(4));
    b.createRet(c);
    EXPECT_EQ(runI(f, {RtValue::fromInt(10)}).i, 34);
}

TEST_F(InterpTest, SumLoop)
{
    Function *f = buildSumLoop(mod, b);
    EXPECT_EQ(runI(f, {RtValue::fromInt(0)}).i, 0);
    EXPECT_EQ(runI(f, {RtValue::fromInt(1)}).i, 0);
    EXPECT_EQ(runI(f, {RtValue::fromInt(10)}).i, 45);
    EXPECT_EQ(runI(f, {RtValue::fromInt(1000)}).i, 499500);
}

TEST_F(InterpTest, SelectAndCompare)
{
    Function *f = mod.addFunction("max", Type::i64(),
                                  {{Type::i64(), "a"},
                                   {Type::i64(), "b"}});
    b.setInsertPoint(f->addBlock("entry"));
    Value *c = b.createICmp(CmpPred::SGT, f->arg(0), f->arg(1));
    b.createRet(b.createSelect(c, f->arg(0), f->arg(1)));
    EXPECT_EQ(runI(f, {RtValue::fromInt(3), RtValue::fromInt(9)}).i,
              9);
    EXPECT_EQ(runI(f, {RtValue::fromInt(-3), RtValue::fromInt(-9)}).i,
              -3);
}

TEST_F(InterpTest, MemoryThroughGlobal)
{
    GlobalVar *g = mod.addGlobal("A", 40);
    Function *f = mod.addFunction("touch", Type::i32(),
                                  {{Type::i64(), "i"}});
    b.setInsertPoint(f->addBlock("entry"));
    Value *addr = b.createGep(g, 4, f->arg(0));
    Value *v = b.createLoad(Type::i32(), addr);
    Value *v2 = b.createAdd(v, mod.constInt(Type::i32(), 1));
    b.createStore(v2, addr);
    b.createRet(v2);

    mem.layout(mod);
    uint64_t base = mem.addressOf(g);
    mem.put<int32_t>(base + 12, 41);

    EXPECT_EQ(runI(f, {RtValue::fromInt(3)}).i, 42);
    EXPECT_EQ(mem.get<int32_t>(base + 12), 42);
}

TEST_F(InterpTest, FloatKernel)
{
    GlobalVar *g = mod.addGlobal("X", 80);
    Function *f = mod.addFunction("scale", Type::f64(),
                                  {{Type::i64(), "i"},
                                   {Type::f64(), "k"}});
    b.setInsertPoint(f->addBlock("entry"));
    Value *addr = b.createGep(g, 8, f->arg(0));
    Value *v = b.createLoad(Type::f64(), addr);
    Value *scaled = b.createFMul(v, f->arg(1));
    b.createStore(scaled, addr);
    b.createRet(scaled);

    mem.layout(mod);
    mem.put<double>(mem.addressOf(g) + 16, 4.0);
    RtValue r = runI(f, {RtValue::fromInt(2), RtValue::fromFloat(2.5)});
    EXPECT_DOUBLE_EQ(r.f, 10.0);
}

TEST_F(InterpTest, RecursiveFib)
{
    Function *f = mod.addFunction("fib", Type::i64(),
                                  {{Type::i64(), "n"}});
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *base = f->addBlock("base");
    BasicBlock *rec = f->addBlock("rec");

    b.setInsertPoint(entry);
    Value *c = b.createICmp(CmpPred::SLT, f->arg(0), b.constI64(2));
    b.createCondBr(c, base, rec);

    b.setInsertPoint(base);
    b.createRet(f->arg(0));

    b.setInsertPoint(rec);
    Value *n1 = b.createSub(f->arg(0), b.constI64(1));
    Value *n2 = b.createSub(f->arg(0), b.constI64(2));
    Value *f1 = b.createCall(f, {n1}, "f1");
    Value *f2 = b.createCall(f, {n2}, "f2");
    b.createRet(b.createAdd(f1, f2));

    EXPECT_EQ(runI(f, {RtValue::fromInt(10)}).i, 55);
    EXPECT_EQ(runI(f, {RtValue::fromInt(15)}).i, 610);
    EXPECT_GT(last.calls, 100u);
    EXPECT_GE(last.maxCallDepth, 14u);
}

TEST_F(InterpTest, AllocaStackDiscipline)
{
    // g() allocates a scratch buffer; repeated calls must not leak.
    Function *g = mod.addFunction("g", Type::i64(),
                                  {{Type::i64(), "x"}});
    b.setInsertPoint(g->addBlock("entry"));
    Value *buf = b.createAlloca(1024, "buf");
    b.createStore(g->arg(0), buf);
    b.createRet(b.createLoad(Type::i64(), buf));

    Function *f = mod.addFunction("driver", Type::i64(),
                                  {{Type::i64(), "n"}});
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *header = f->addBlock("header");
    BasicBlock *body = f->addBlock("body");
    BasicBlock *exit = f->addBlock("exit");
    b.setInsertPoint(entry);
    b.createBr(header);
    b.setInsertPoint(header);
    PhiInst *i = b.createPhi(Type::i64(), "i");
    Value *c = b.createICmp(CmpPred::SLT, i, f->arg(0));
    b.createCondBr(c, body, exit);
    b.setInsertPoint(body);
    b.createCall(g, {i});
    Value *i2 = b.createAdd(i, b.constI64(1));
    b.createBr(header);
    i->addIncoming(b.constI64(0), entry);
    i->addIncoming(i2, body);
    b.setInsertPoint(exit);
    b.createRet(i);

    uint64_t before = mem.bumpPtr();
    // 10k calls x 1KB would exhaust an 8MB image if leaked.
    EXPECT_EQ(runI(f, {RtValue::fromInt(10000)}).i, 10000);
    EXPECT_EQ(mem.bumpPtr(), before);
}

TEST_F(InterpTest, DetachSerialElision)
{
    // cilk_for (i in 0..n) a[i] = i*2, then sync and sum the array.
    GlobalVar *g = mod.addGlobal("A", 8 * 64);
    Function *f = mod.addFunction("pfor", Type::i64(),
                                  {{Type::i64(), "n"}});
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *header = f->addBlock("header");
    BasicBlock *spawn = f->addBlock("spawn");
    BasicBlock *body = f->addBlock("body");
    BasicBlock *latch = f->addBlock("latch");
    BasicBlock *join = f->addBlock("join");
    BasicBlock *exit = f->addBlock("exit");

    b.setInsertPoint(entry);
    b.createBr(header);

    b.setInsertPoint(header);
    PhiInst *i = b.createPhi(Type::i64(), "i");
    Value *c = b.createICmp(CmpPred::SLT, i, f->arg(0), "c");
    b.createCondBr(c, spawn, join);

    b.setInsertPoint(spawn);
    b.createDetach(body, latch);

    b.setInsertPoint(body);
    Value *addr = b.createGep(g, 8, i);
    Value *v = b.createMul(i, b.constI64(2));
    b.createStore(v, addr);
    b.createReattach(latch);

    b.setInsertPoint(latch);
    Value *i2 = b.createAdd(i, b.constI64(1), "i2");
    b.createBr(header);

    i->addIncoming(b.constI64(0), entry);
    i->addIncoming(i2, latch);

    b.setInsertPoint(join);
    b.createSync(exit);

    b.setInsertPoint(exit);
    b.createRet(i);

    mem.layout(mod);
    EXPECT_EQ(runI(f, {RtValue::fromInt(64)}).i, 64);
    uint64_t base = mem.addressOf(g);
    for (int k = 0; k < 64; ++k)
        EXPECT_EQ(mem.get<int64_t>(base + 8 * k), 2 * k) << k;
    EXPECT_EQ(last.spawns, 64u);
}

TEST_F(InterpTest, StatsCountOpcodes)
{
    Function *f = buildSumLoop(mod, b);
    runI(f, {RtValue::fromInt(100)});
    // Adds: 2 per iteration (i2, acc2).
    EXPECT_EQ(last.count(Opcode::Add), 200u);
    // Compares: 101 header evaluations.
    EXPECT_EQ(last.count(Opcode::ICmp), 101u);
    EXPECT_GT(last.totalInsts, 500u);
    EXPECT_EQ(last.memOps(), 0u);
}

TEST_F(InterpTest, ArgCountMismatchDies)
{
    Function *f = mod.addFunction("f", Type::voidTy(),
                                  {{Type::i64(), "x"}});
    b.setInsertPoint(f->addBlock("entry"));
    b.createRet();
    Interp interp(mod, mem);
    EXPECT_DEATH(interp.run(*f, {}), "expects 1");
}

TEST_F(InterpTest, StepLimitTrips)
{
    Function *f = mod.addFunction("inf", Type::voidTy(), {});
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *loop = f->addBlock("loop");
    b.setInsertPoint(entry);
    b.createBr(loop);
    b.setInsertPoint(loop);
    b.createBr(loop);

    Interp::Options opts;
    opts.maxSteps = 1000;
    Interp interp(mod, mem, opts);
    EXPECT_EXIT(interp.run(*f, {}),
                ::testing::ExitedWithCode(1), "max step count");
}

TEST_F(InterpTest, CallDepthLimitTrips)
{
    Function *f = mod.addFunction("deep", Type::voidTy(),
                                  {{Type::i64(), "n"}});
    b.setInsertPoint(f->addBlock("entry"));
    b.createCall(f, {f->arg(0)});
    b.createRet();

    Interp::Options opts;
    opts.maxCallDepth = 100;
    Interp interp(mod, mem, opts);
    EXPECT_EXIT(interp.run(*f, {RtValue::fromInt(0)}),
                ::testing::ExitedWithCode(1), "call depth");
}
