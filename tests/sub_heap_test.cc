/**
 * @file
 * Tests for Anchorage sub-heaps: bump allocation, power-of-two free-list
 * reuse, and tail trimming (§4.3).
 */

#include <gtest/gtest.h>

#include "anchorage/sub_heap.h"
#include "base/rng.h"
#include "sim/address_space.h"

namespace
{

using namespace alaska;
using namespace alaska::anchorage;

class SubHeapTest : public ::testing::Test
{
  protected:
    PhantomAddressSpace space_;
};

TEST_F(SubHeapTest, BumpAllocationIsContiguous)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 100);
    auto b = heap.alloc(2, 100);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(b.addr, a.addr + 112); // 100 aligned up to 112
    EXPECT_EQ(heap.extent(), 224u);
    EXPECT_EQ(heap.liveBytes(), 224u);
}

TEST_F(SubHeapTest, SizeClassesArePowersOfTwo)
{
    EXPECT_EQ(SubHeap::classOf(1), 0);
    EXPECT_EQ(SubHeap::classOf(16), 0);
    EXPECT_EQ(SubHeap::classOf(31), 0);
    EXPECT_EQ(SubHeap::classOf(32), 1);
    EXPECT_EQ(SubHeap::classOf(63), 1);
    EXPECT_EQ(SubHeap::classOf(64), 2);
    EXPECT_EQ(SubHeap::classOf(4096), 8);
}

TEST_F(SubHeapTest, FreeListReusesBlocks)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 64);
    heap.alloc(2, 64);
    heap.free(a.addr);
    EXPECT_EQ(heap.freeBytes(), 64u);
    // Same class -> the hole is reused, not bumped past.
    auto c = heap.alloc(3, 64);
    EXPECT_EQ(c.addr, a.addr);
    EXPECT_EQ(heap.freeBytes(), 0u);
}

TEST_F(SubHeapTest, OnlyFrontOfClassListIsChecked)
{
    SubHeap heap(space_, 1 << 20);
    // Two frees in the same class; LIFO order means the most recently
    // freed block is the "front".
    auto a = heap.alloc(1, 64);
    auto b = heap.alloc(2, 64);
    heap.alloc(3, 64);
    heap.free(a.addr);
    heap.free(b.addr);
    auto c = heap.alloc(4, 64);
    EXPECT_EQ(c.addr, b.addr);
}

TEST_F(SubHeapTest, DifferentClassDoesNotReuse)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 1024);
    heap.alloc(2, 16);
    heap.free(a.addr);
    // A 16-byte request must not consume the 1 KiB hole (different
    // class) — that is what keeps reuse O(1) and internal waste < 2x.
    auto c = heap.alloc(3, 16);
    EXPECT_NE(c.addr, a.addr);
}

TEST_F(SubHeapTest, ExhaustionFailsCleanly)
{
    SubHeap heap(space_, 4096);
    auto a = heap.alloc(1, 4096);
    ASSERT_TRUE(a.ok);
    auto b = heap.alloc(2, 16);
    EXPECT_FALSE(b.ok);
}

TEST_F(SubHeapTest, TrimTopRetractsTrailingFreeBlocks)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 8192);
    auto b = heap.alloc(2, 8192);
    auto c = heap.alloc(3, 8192);
    (void)a;
    (void)b;
    heap.free(b.addr);
    heap.free(c.addr);
    const size_t extent_before = heap.extent();
    const size_t reclaimed = heap.trimTop();
    // b and c are both trailing-free after c's release; both go.
    EXPECT_EQ(reclaimed, 2 * 8192u);
    EXPECT_EQ(heap.extent(), extent_before - 2 * 8192u);
    EXPECT_EQ(heap.freeBytes(), 0u);
}

TEST_F(SubHeapTest, TrimStopsAtLiveBlock)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 4096);
    heap.alloc(2, 4096);
    heap.free(a.addr); // a free hole below a live block
    EXPECT_EQ(heap.trimTop(), 0u);
    EXPECT_EQ(heap.freeBytes(), 4096u);
}

TEST_F(SubHeapTest, TrimReturnsPagesToTheKernel)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 64 * 4096);
    const size_t rss_full = space_.rss();
    EXPECT_GE(rss_full, 64 * 4096u);
    heap.free(a.addr);
    heap.trimTop();
    EXPECT_EQ(space_.rss(), 0u);
}

TEST_F(SubHeapTest, StaleFreeListEntriesAreHarmless)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 64);
    heap.free(a.addr);
    heap.trimTop(); // block trimmed; its free-list entry is now stale
    auto b = heap.alloc(2, 64);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(b.addr, a.addr); // re-bumped over the same space
    EXPECT_EQ(heap.liveBytes(), 64u);
}

TEST_F(SubHeapTest, LowestFreeBlockBelowFindsCompactionTargets)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 64);
    auto b = heap.alloc(2, 64);
    auto c = heap.alloc(3, 64);
    heap.free(a.addr);
    heap.free(b.addr);
    // The defrag walk wants the lowest hole below c.
    const int idx = heap.lowestFreeBlockBelow(64, c.addr);
    ASSERT_GE(idx, 0);
    EXPECT_EQ(heap.blocks()[idx].addr, a.addr);
    // And nothing below a.
    EXPECT_EQ(heap.lowestFreeBlockBelow(64, a.addr), -1);
}

/** Property: accounting invariants hold under random churn. */
class SubHeapChurn : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SubHeapChurn, AccountingInvariants)
{
    PhantomAddressSpace space;
    SubHeap heap(space, 8 << 20);
    Rng rng(GetParam());
    std::vector<std::pair<uint64_t, size_t>> live;
    size_t expected_live_bytes = 0;

    for (int step = 0; step < 20000; step++) {
        if (live.empty() || rng.chance(0.55)) {
            const size_t size = 1 + rng.below(2048);
            auto r = heap.alloc(1000 + step, size);
            if (!r.ok)
                continue;
            // Reused blocks may be up to 2x the request (same class);
            // account what the heap actually handed out.
            const int idx = heap.findBlock(r.addr);
            ASSERT_GE(idx, 0);
            const size_t actual = heap.blocks()[idx].size;
            live.emplace_back(r.addr, actual);
            expected_live_bytes += actual;
        } else {
            const size_t idx = rng.below(live.size());
            heap.free(live[idx].first);
            expected_live_bytes -= live[idx].second;
            live[idx] = live.back();
            live.pop_back();
        }
        ASSERT_EQ(heap.liveBlocks(), live.size());
        ASSERT_EQ(heap.liveBytes(), expected_live_bytes);
        ASSERT_LE(heap.liveBytes() + heap.freeBytes(), heap.extent());
    }
    // Freeing everything and trimming returns the heap to pristine.
    for (auto &[addr, size] : live)
        heap.free(addr);
    heap.trimTop();
    EXPECT_EQ(heap.extent(), 0u);
    EXPECT_EQ(heap.liveBytes(), 0u);
    EXPECT_EQ(heap.freeBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubHeapChurn,
                         ::testing::Values(101, 202, 303));

/** The reference findBlock(): a linear scan over every block. */
int
findBlockByScan(const SubHeap &heap, uint64_t addr)
{
    const auto &blocks = heap.blocks();
    for (size_t i = 0; i < blocks.size(); i++) {
        if (blocks[i].addr == addr)
            return static_cast<int>(i);
    }
    return -1;
}

/**
 * Differential property: the page-indexed findBlock() agrees with a
 * linear scan under churn that exercises every index update — bumps,
 * free-list reuse, trims and coalescing — with block sizes from 16 B
 * to several pages, so some pages have no block starting in them.
 */
class SubHeapFindBlock : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SubHeapFindBlock, MatchesLinearScan)
{
    PhantomAddressSpace space;
    SubHeap heap(space, 4 << 20);
    Rng rng(GetParam());
    std::vector<uint64_t> live;
    std::vector<uint64_t> freed;
    size_t pages_without_start = 0;
    size_t trims = 0;

    auto check = [&](uint64_t addr) {
        ASSERT_EQ(heap.findBlock(addr), findBlockByScan(heap, addr))
            << "addr offset " << static_cast<int64_t>(addr - heap.base());
    };

    for (int step = 0; step < 6000; step++) {
        // Alternate growing and shrinking phases, and often free the
        // topmost live block, so trims pop the tail of the index too.
        const double p_alloc = (step / 500) % 2 == 0 ? 0.60 : 0.35;
        const double op = rng.real();
        if (live.empty() || op < p_alloc) {
            // Log-uniform sizes: mostly small, a tail past one page.
            const size_t size = 1 + rng.below(size_t{16} << rng.below(10));
            auto r = heap.alloc(1 + step, size);
            if (r.ok)
                live.push_back(r.addr);
        } else if (op < 0.92) {
            size_t idx = rng.below(live.size());
            if (rng.chance(0.25)) {
                for (size_t j = 0; j < live.size(); j++)
                    idx = live[j] > live[idx] ? j : idx;
            }
            heap.free(live[idx]);
            freed.push_back(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        } else if (op < 0.97) {
            trims += heap.trimTop() > 0 ? 1 : 0;
        } else {
            heap.coalesceHoles();
        }

        // Point queries: block starts, interiors, freed (possibly
        // trimmed or coalesced-away) blocks, and out-of-range addresses.
        const auto &blocks = heap.blocks();
        for (int q = 0; q < 8 && !blocks.empty(); q++) {
            const Block &b = blocks[rng.below(blocks.size())];
            check(b.addr);
            check(b.addr + 1 + rng.below(b.size - 1)); // interior
        }
        if (!freed.empty())
            check(freed[rng.below(freed.size())]);
        check(heap.base() - SubHeap::alignment);
        check(heap.base() - 1 - rng.below(1 << 20));
        check(heap.base() + heap.extent());
        check(heap.base() + heap.extent() + rng.below(1 << 20));
        check(heap.base() + heap.capacity());

        if (step % 500 == 499) {
            // Full sweep: every 16-byte slot of the extent.
            for (uint64_t a = heap.base(); a < heap.base() + heap.extent();
                 a += SubHeap::alignment)
                check(a);
            std::vector<bool> has_start((heap.extent() + 4095) / 4096);
            for (const Block &b : heap.blocks())
                has_start[(b.addr - heap.base()) / 4096] = true;
            for (bool s : has_start)
                pages_without_start += s ? 0 : 1;
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(pages_without_start, 0u);
    EXPECT_GT(trims, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubHeapFindBlock,
                         ::testing::Values(11, 12, 13, 14, 15));

} // namespace
