/**
 * @file
 * Tests for the page-residency model underlying all RSS measurements.
 */

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "sim/page_model.h"

namespace
{

using namespace alaska;

TEST(PageModel, TouchMakesPagesResident)
{
    PageModel pm(4096);
    EXPECT_EQ(pm.rss(), 0u);
    pm.touch(0, 1);
    EXPECT_EQ(pm.rss(), 4096u);
    pm.touch(4096, 4096);
    EXPECT_EQ(pm.rss(), 8192u);
}

TEST(PageModel, TouchSpanningPagesCountsAll)
{
    PageModel pm(4096);
    pm.touch(4000, 200); // straddles a page boundary
    EXPECT_EQ(pm.rss(), 8192u);
}

TEST(PageModel, RepeatTouchIsIdempotent)
{
    PageModel pm(4096);
    pm.touch(0, 4096);
    pm.touch(0, 4096);
    EXPECT_EQ(pm.rss(), 4096u);
}

TEST(PageModel, DiscardReleasesOnlyFullPages)
{
    PageModel pm(4096);
    pm.touch(0, 3 * 4096);
    // Range covers page 1 fully, pages 0 and 2 partially.
    pm.discard(100, 2 * 4096);
    EXPECT_EQ(pm.rss(), 2 * 4096u);
    EXPECT_TRUE(pm.isResident(0));
    EXPECT_FALSE(pm.isResident(4096));
    EXPECT_TRUE(pm.isResident(2 * 4096));
}

TEST(PageModel, DiscardSmallerThanAPageIsANoop)
{
    PageModel pm(4096);
    pm.touch(0, 4096);
    pm.discard(0, 100);
    EXPECT_EQ(pm.rss(), 4096u);
}

TEST(PageModel, RetouchAfterDiscardCostsAgain)
{
    PageModel pm(4096);
    pm.touch(0, 4096);
    pm.discard(0, 4096);
    EXPECT_EQ(pm.rss(), 0u);
    pm.touch(0, 1);
    EXPECT_EQ(pm.rss(), 4096u);
}

TEST(PageModel, AliasSharesAFrame)
{
    // The Mesh trick: two virtual pages, one physical frame.
    PageModel pm(4096);
    pm.touch(0, 4096);        // page 0 resident
    pm.touch(8 * 4096, 4096); // page 8 resident
    EXPECT_EQ(pm.rss(), 2 * 4096u);
    pm.alias(8 * 4096, 0); // mesh page 8 onto page 0
    EXPECT_EQ(pm.rss(), 4096u);
    // Touching through either virtual page keeps one frame.
    pm.touch(8 * 4096, 4096);
    pm.touch(0, 4096);
    EXPECT_EQ(pm.rss(), 4096u);
}

TEST(PageModel, AliasChainsCollapseToOneFrame)
{
    PageModel pm(4096);
    pm.touch(0, 4096);
    pm.touch(4096, 4096);
    pm.touch(8192, 4096);
    pm.alias(4096, 0);
    pm.alias(8192, 4096); // through the alias, lands on frame 0
    EXPECT_EQ(pm.rss(), 4096u);
}

TEST(PageModel, CustomPageSize)
{
    PageModel pm(1 << 16); // 64 KiB "pages"
    pm.touch(1, 2);
    EXPECT_EQ(pm.rss(), static_cast<size_t>(1 << 16));
}

/**
 * Reference model for the differential test: the same residency and
 * alias semantics as PageModel, kept in a std::set of frame indices.
 */
class ReferenceModel
{
  public:
    explicit ReferenceModel(uint64_t page_size) : page_(page_size) {}

    void
    touch(uint64_t addr, uint64_t len)
    {
        if (len == 0)
            return;
        for (uint64_t p = addr / page_; p <= (addr + len - 1) / page_; p++)
            resident_.insert(frameOf(p));
    }

    void
    discard(uint64_t addr, uint64_t len)
    {
        for (uint64_t p = (addr + page_ - 1) / page_;
             p < (addr + len) / page_; p++)
            resident_.erase(frameOf(p));
    }

    void
    alias(uint64_t vaddr, uint64_t taddr)
    {
        const uint64_t vpage = vaddr / page_;
        const uint64_t target = frameOf(taddr / page_);
        const uint64_t old_frame = frameOf(vpage);
        if (old_frame == target)
            return;
        aliases_[vpage] = target;
        resident_.erase(old_frame);
    }

    void
    unalias(uint64_t vaddr)
    {
        const uint64_t vpage = vaddr / page_;
        if (aliases_.erase(vpage) > 0)
            resident_.insert(vpage);
    }

    bool
    isResident(uint64_t addr) const
    {
        return resident_.count(frameOf(addr / page_)) > 0;
    }

    void
    clear()
    {
        resident_.clear();
        aliases_.clear();
    }

    size_t size() const { return resident_.size(); }
    size_t aliased() const { return aliases_.size(); }

  private:
    uint64_t
    frameOf(uint64_t vpage) const
    {
        auto it = aliases_.find(vpage);
        return it == aliases_.end() ? vpage : it->second;
    }

    uint64_t page_;
    std::set<uint64_t> resident_;
    std::map<uint64_t, uint64_t> aliases_;
};

/**
 * Run seeded random touch/discard/alias/unalias steps over windows of
 * pages starting at each of bases (aliases may cross windows) and
 * compare PageModel against the reference after every step.
 */
void
runDifferential(uint64_t page_size, const std::vector<uint64_t> &bases,
                uint64_t seed)
{
    constexpr uint64_t windowPages = 96;
    constexpr int steps = 3000;
    const uint64_t window_bytes = windowPages * page_size;
    PageModel pm(page_size);
    ReferenceModel ref(page_size);
    std::mt19937_64 rng(seed);
    auto pick_base = [&] { return bases[rng() % bases.size()]; };
    auto pick_page = [&] {
        return pick_base() + (rng() % windowPages) * page_size;
    };

    for (int step = 0; step < steps; step++) {
        const unsigned op = rng() % 1000;
        const uint64_t base = pick_base();
        const uint64_t addr = base + rng() % window_bytes;
        if (op < 400) {
            const uint64_t len =
                rng() % (8 * page_size) + (rng() % 4 == 0 ? 0 : 1);
            if (addr + len <= base + window_bytes) {
                pm.touch(addr, len);
                ref.touch(addr, len);
            }
        } else if (op < 700) {
            const uint64_t len = rng() % (12 * page_size);
            if (addr + len <= base + window_bytes) {
                pm.discard(addr, len);
                ref.discard(addr, len);
            }
        } else if (op < 900) {
            const uint64_t vpage = pick_page();
            const uint64_t target = pick_page() + rng() % page_size;
            pm.alias(vpage, target);
            ref.alias(vpage, target);
        } else if (op < 998) {
            const uint64_t vpage = pick_page();
            pm.unalias(vpage);
            ref.unalias(vpage);
        } else {
            pm.clear();
            ref.clear();
        }
        ASSERT_EQ(pm.residentPages(), ref.size()) << "step " << step;
        ASSERT_EQ(pm.rss(), ref.size() * page_size) << "step " << step;
        ASSERT_EQ(pm.aliasedPages(), ref.aliased()) << "step " << step;
        for (uint64_t b : bases) {
            for (uint64_t p = 0; p < windowPages; p++) {
                const uint64_t probe =
                    b + p * page_size + rng() % page_size;
                ASSERT_EQ(pm.isResident(probe), ref.isResident(probe))
                    << "step " << step << " address " << probe;
            }
        }
    }
}

/** Page frames per bitmap leaf: windows around multiples straddle it. */
constexpr uint64_t leafFrames = uint64_t{1} << 15;

/** Base of a window starting 40 frames below leaf boundary leaf. */
uint64_t
straddling(uint64_t leaf, uint64_t page_size)
{
    return (leaf * leafFrames - 40) * page_size;
}

TEST(PageModelDifferential, LowAddresses)
{
    runDifferential(4096, {0}, 1);
    runDifferential(1 << 16, {0}, 2);
}

TEST(PageModelDifferential, PhantomRange)
{
    const uint64_t phantom = UINT64_C(0x100000000000);
    runDifferential(4096, {phantom, phantom + (uint64_t{1} << 32)}, 3);
    runDifferential(1 << 16, {phantom + (1 << 16) * 7}, 4);
}

TEST(PageModelDifferential, RealMmapAddresses)
{
    const size_t bytes = 96u << 16;
    void *mem = ::mmap(nullptr, bytes, PROT_NONE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    ASSERT_NE(mem, MAP_FAILED);
    const auto base = reinterpret_cast<uint64_t>(mem);
    runDifferential(4096, {base, 0}, 5);
    runDifferential(1 << 16, {base & ~uint64_t{0xffff}}, 6);
    ::munmap(mem, bytes);
}

TEST(PageModelDifferential, StraddlesLeafBoundaries)
{
    // Windows of 96 pages starting 40 pages below a leaf boundary: the
    // first leaf, leaves 256 apart in one inner node, an inner-node
    // boundary and a leaf deep in the range, all in one model so any
    // two nodes the index math confused would share bits.
    for (uint64_t page : {uint64_t{4096}, uint64_t{1} << 16}) {
        runDifferential(page,
                        {straddling(1, page), straddling(257, page),
                         straddling(512 * 3, page),
                         straddling(512 * 8 + 1, page)},
                        7 + page);
    }
}

TEST(PageModelDifferential, HighestModelledPage)
{
    // The last 96 frames of the modelled range: touches right up to
    // the final byte must be accepted.
    const uint64_t frames = uint64_t{1} << PageModel::frameBits;
    runDifferential(4096, {(frames - 96) * 4096}, 9);
    PageModel pm(4096);
    pm.touch(frames * 4096 - 1, 1);
    EXPECT_EQ(pm.residentPages(), 1u);
    pm.discard((frames - 1) * 4096, 4096);
    EXPECT_EQ(pm.residentPages(), 0u);
}

TEST(PageModelConcurrency, OverlappingTouchDiscardEndsAtExactUnion)
{
    // Eight threads churn overlapping ranges that straddle a leaf
    // boundary (so leaves are also published under contention), then
    // clear their slice of the span, then touch their own range. The
    // count after joining must be exactly the union of the own ranges.
    constexpr int threads = 8;
    constexpr uint64_t span = 4096;      // pages churned by everyone
    constexpr uint64_t stride = 400;     // own-range starts
    constexpr uint64_t ownPages = 600;   // overlaps the next by 200
    constexpr uint64_t page = 4096;
    const uint64_t base_page = leafFrames * 5 - span / 2;
    PageModel pm(page);
    std::barrier phase(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; t++) {
        workers.emplace_back([&, t] {
            std::mt19937_64 rng(100 + t);
            phase.arrive_and_wait();
            for (int i = 0; i < 4000; i++) {
                const uint64_t p = base_page + rng() % (span - 64);
                const uint64_t n = 1 + rng() % 64;
                if (rng() % 3 == 0)
                    pm.discard(p * page, n * page);
                else
                    pm.touch(p * page, n * page);
            }
            phase.arrive_and_wait();
            const uint64_t slice = span / threads;
            pm.discard((base_page + t * slice) * page, slice * page);
            phase.arrive_and_wait();
            pm.touch((base_page + t * stride) * page, ownPages * page);
        });
    }
    for (auto &w : workers)
        w.join();
    const uint64_t union_pages = (threads - 1) * stride + ownPages;
    EXPECT_EQ(pm.residentPages(), union_pages);
    EXPECT_EQ(pm.rss(), union_pages * page);
    EXPECT_TRUE(pm.isResident(base_page * page));
    EXPECT_TRUE(pm.isResident((base_page + union_pages - 1) * page));
    EXPECT_FALSE(pm.isResident((base_page + union_pages) * page));
}

TEST(PageModelDeathTest, AddressPastModelledRangeFails)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const uint64_t limit = uint64_t{1} << (PageModel::frameBits + 12);
    EXPECT_DEATH(
        {
            PageModel pm(4096);
            pm.touch(limit, 1);
        },
        "outside the modelled");
    EXPECT_DEATH(
        {
            PageModel pm(4096);
            pm.touch(limit - 4096, 8192); // runs off the end
        },
        "outside the modelled");
    EXPECT_DEATH(
        {
            PageModel pm(1 << 16);
            pm.isResident(uint64_t{1} << (PageModel::frameBits + 16));
        },
        "outside the modelled");
}

TEST(PageModelDeathTest, NonPowerOfTwoPageSizeFails)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH({ PageModel pm(3000); }, "not a power of two");
    EXPECT_DEATH({ PageModel pm(0); }, "not a power of two");
}

} // namespace
