/**
 * @file
 * Unit tests for the flat memory image.
 */

#include <gtest/gtest.h>

#include "ir/memimage.hh"

using namespace tapas::ir;

TEST(MemImageTest, AllocAlignment)
{
    MemImage mem;
    uint64_t a = mem.alloc(10, 8);
    uint64_t b = mem.alloc(1, 64);
    uint64_t c = mem.alloc(8, 8);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
    EXPECT_GE(c, b + 1);
}

TEST(MemImageTest, IntRoundTrip)
{
    MemImage mem;
    uint64_t p = mem.alloc(64);
    mem.storeInt(p, 4, -123456);
    EXPECT_EQ(mem.loadInt(p, 4), -123456);
    mem.storeInt(p, 1, -1);
    EXPECT_EQ(mem.loadInt(p, 1), -1);
    mem.storeInt(p, 2, 40000); // wraps to negative as i16
    EXPECT_EQ(mem.loadInt(p, 2), 40000 - 65536);
    mem.storeInt(p, 8, INT64_MIN);
    EXPECT_EQ(mem.loadInt(p, 8), INT64_MIN);
}

TEST(MemImageTest, FloatRoundTrip)
{
    MemImage mem;
    uint64_t p = mem.alloc(64);
    mem.storeF64(p, 3.14159);
    EXPECT_DOUBLE_EQ(mem.loadF64(p), 3.14159);
    mem.storeF32(p + 8, 2.5f);
    EXPECT_FLOAT_EQ(mem.loadF32(p + 8), 2.5f);
}

TEST(MemImageTest, TypedHelpers)
{
    MemImage mem;
    uint64_t p = mem.alloc(64);
    mem.put<int32_t>(p, 77);
    EXPECT_EQ(mem.get<int32_t>(p), 77);
    mem.put<double>(p + 8, 1.25);
    EXPECT_DOUBLE_EQ(mem.get<double>(p + 8), 1.25);
}

TEST(MemImageTest, LittleEndianLayout)
{
    MemImage mem;
    uint64_t p = mem.alloc(8);
    mem.storeInt(p, 4, 0x04030201);
    EXPECT_EQ(mem.loadInt(p, 1), 0x01);
    EXPECT_EQ(mem.loadInt(p + 1, 1), 0x02);
    EXPECT_EQ(mem.loadInt(p + 3, 1), 0x04);
}

TEST(MemImageTest, GlobalLayout)
{
    Module mod;
    GlobalVar *a = mod.addGlobal("A", 100);
    GlobalVar *b = mod.addGlobal("B", 200);
    MemImage mem;
    mem.layout(mod);
    uint64_t pa = mem.addressOf(a);
    uint64_t pb = mem.addressOf(b);
    EXPECT_GE(pa, MemImage::kBase);
    EXPECT_GE(pb, pa + 100);
    EXPECT_EQ(pa % 64, 0u);
    EXPECT_EQ(pb % 64, 0u);
}

TEST(MemImageTest, UnlaidGlobalDies)
{
    Module mod;
    GlobalVar *a = mod.addGlobal("A", 100);
    MemImage mem;
    EXPECT_DEATH(mem.addressOf(a), "no address");
}

TEST(MemImageTest, OutOfBoundsDies)
{
    MemImage mem;
    EXPECT_DEATH(mem.loadInt(0, 4), "out of bounds"); // null page
    EXPECT_DEATH(mem.storeInt(100, 8, 1), "out of bounds");
}

TEST(MemImageTest, AccessPastHighWaterMarkDies)
{
    // Far below the limit, but one byte past what was allocated.
    MemImage mem;
    uint64_t p = mem.alloc(100);
    EXPECT_EQ(mem.bumpPtr(), p + 100);
    mem.storeInt(p + 96, 4, 7);
    EXPECT_DEATH(mem.loadInt(p + 100, 1), "out of bounds");
    EXPECT_DEATH(mem.storeInt(p + 97, 4, 7), "out of bounds");
}

TEST(MemImageTest, GrownBytesReadAsZero)
{
    MemImage mem;
    uint64_t a = mem.alloc(16);
    mem.storeInt(a, 8, -1);
    // Growing the store keeps old bytes and zero-fills the new ones.
    uint64_t b = mem.alloc(1 << 20);
    EXPECT_EQ(mem.loadInt(a, 8), -1);
    EXPECT_EQ(mem.loadInt(b, 8), 0);
    EXPECT_EQ(mem.loadInt(b + (1 << 20) - 8, 8), 0);
}

TEST(MemImageTest, ExhaustionDies)
{
    MemImage mem;
    EXPECT_DEATH(mem.alloc(MemImage::kLimit), "exhausted");
}

TEST(MemImageTest, BumpPointerSaveRestore)
{
    MemImage mem;
    uint64_t before = mem.bumpPtr();
    mem.alloc(1024);
    EXPECT_GT(mem.bumpPtr(), before);
    mem.setBumpPtr(before);
    EXPECT_EQ(mem.bumpPtr(), before);
    // Next alloc reuses the space.
    uint64_t again = mem.alloc(16);
    EXPECT_LT(again, before + 1024);
}
