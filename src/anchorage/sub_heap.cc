#include "anchorage/sub_heap.h"

#include <algorithm>

#include "anchorage/mesh_directory.h"
#include "base/logging.h"

namespace alaska::anchorage
{

namespace
{

uint64_t
alignUp(uint64_t value, uint64_t alignment)
{
    return (value + alignment - 1) & ~(alignment - 1);
}

} // anonymous namespace

SubHeap::SubHeap(AddressSpace &space, size_t capacity,
                 uint32_t owner_shard)
    : space_(space), capacity_(capacity), ownerShard_(owner_shard)
{
    base_ = space_.map(capacity);
    blocks_.reserve(1024);
}

SubHeap::~SubHeap()
{
    space_.unmap(base_, capacity_);
}

int
SubHeap::classOf(size_t size)
{
    if (size < alignment)
        size = alignment;
    const int cls = 63 - __builtin_clzll(size) - 4; // 16 B -> class 0
    return std::min(cls, numClasses - 1);
}

SubHeapAlloc
SubHeap::alloc(uint32_t id, size_t size)
{
    const SubHeapAlloc reused = allocFromFreeList(id, size);
    if (reused.ok)
        return reused;
    return bumpAlloc(id, alignUp(size, alignment));
}

SubHeapAlloc
SubHeap::allocFromFreeList(uint32_t id, size_t size)
{
    const size_t need = alignUp(size, alignment);
    const int cls = classOf(need);

    // O(1) reuse: only the front of the class list is checked (§4.3).
    pruneClassFront(cls);
    auto &list = freeLists_[cls];
    if (!list.empty()) {
        const uint32_t idx = list.back();
        Block &blk = blocks_[idx];
        // A same-class block can still be smaller than the request
        // (classes span [2^k, 2^(k+1))); the caller bumps in that case.
        if (blk.size >= need) {
            list.pop_back();
            blk.handleId = id;
            freeBytes_ -= blk.size;
            liveBytes_ += blk.size;
            liveCount_++;
            if (meshDir_ != nullptr)
                meshDir_->noteWrite(blk.addr, need);
            space_.touch(blk.addr, need);
            return {true, blk.addr};
        }
    }
    return {false, 0};
}

SubHeapAlloc
SubHeap::bumpAlloc(uint32_t id, size_t need)
{
    if (bump_ + need > capacity_)
        return {false, 0};
    const uint64_t addr = base_ + bump_;
    bump_ += need;
    indexBlock(static_cast<uint32_t>(blocks_.size()), addr);
    blocks_.push_back(Block{addr, static_cast<uint32_t>(need), id});
    liveBytes_ += need;
    liveCount_++;
    if (meshDir_ != nullptr)
        meshDir_->noteWrite(addr, need);
    space_.touch(addr, need);
    return {true, addr};
}

void
SubHeap::pruneClassFront(int cls)
{
    auto &list = freeLists_[cls];
    while (!list.empty()) {
        const uint32_t idx = list.back();
        if (idx < blocks_.size() && blocks_[idx].isFree())
            return;
        list.pop_back(); // stale: trimmed away or already reused
    }
}

void
SubHeap::indexBlock(uint32_t index, uint64_t addr)
{
    // Every page whose start lies above the previous block's address
    // and at or below this one's has this block as its first.
    const uint64_t last_page = (addr - base_) >> pageShift;
    while (pageFirst_.size() <= last_page)
        pageFirst_.push_back(index);
}

int
SubHeap::findBlock(uint64_t addr) const
{
    // Addresses below base_ wrap to a huge page number and miss too.
    const uint64_t page = (addr - base_) >> pageShift;
    if (page >= pageFirst_.size())
        return -1; // no block starts at or above this page's start
    // Only blocks starting inside addr's own page lie between the
    // page's first block and addr, so the scan is page-bounded.
    size_t i = pageFirst_[page];
    while (i < blocks_.size() && blocks_[i].addr < addr)
        i++;
    if (i == blocks_.size() || blocks_[i].addr != addr)
        return -1;
    return static_cast<int>(i);
}

void
SubHeap::free(uint64_t addr)
{
    const int idx = findBlock(addr);
    ALASKA_ASSERT(idx >= 0, "free of unknown block at %llx",
                  static_cast<unsigned long long>(addr));
    freeBlockAt(idx);
}

void
SubHeap::freeBlockAt(int index)
{
    Block &blk = blocks_[index];
    ALASKA_ASSERT(!blk.isFree(), "double free of block at %llx",
                  static_cast<unsigned long long>(blk.addr));
    blk.handleId = Block::freeMarker;
    liveBytes_ -= blk.size;
    liveCount_--;
    freeBytes_ += blk.size;
    freeLists_[classOf(blk.size)].push_back(static_cast<uint32_t>(index));
}

void
SubHeap::claimBlock(int index, uint32_t id, size_t size)
{
    Block &blk = blocks_[index];
    ALASKA_ASSERT(blk.isFree(), "claim of live block");
    ALASKA_ASSERT(blk.size >= size, "claimed block too small");
    blk.handleId = id;
    freeBytes_ -= blk.size;
    liveBytes_ += blk.size;
    liveCount_++;
    if (meshDir_ != nullptr)
        meshDir_->noteWrite(blk.addr, size);
    space_.touch(blk.addr, size);
    // The matching free-list entry becomes stale and is pruned lazily.
}

int
SubHeap::lowestFreeBlockBelow(size_t size, uint64_t limit)
{
    const size_t need = alignUp(size, alignment);
    const int cls = classOf(need);
    int best = -1;
    // Full scan of the class list: this runs inside the stop-the-world
    // pause, where thoroughness is worth the time (the mutator-facing
    // alloc path stays O(1)).
    for (uint32_t idx : freeLists_[cls]) {
        if (idx >= blocks_.size())
            continue;
        const Block &blk = blocks_[idx];
        if (!blk.isFree() || blk.size < need || blk.addr >= limit)
            continue;
        if (best < 0 || blk.addr < blocks_[best].addr)
            best = static_cast<int>(idx);
    }
    return best;
}

SubHeap::CompactionIndex
SubHeap::buildCompactionIndex() const
{
    CompactionIndex index;
    for (uint32_t i = 0; i < blocks_.size(); i++) {
        const Block &blk = blocks_[i];
        if (blk.isFree())
            index.sorted[classOf(blk.size)].push_back(i);
    }
    // blocks_ is address-ordered, so each class list already is too.
    return index;
}

int
SubHeap::popLowestFreeBelow(CompactionIndex &index, size_t size,
                            uint64_t limit)
{
    const size_t need = alignUp(size, alignment);
    const int cls = classOf(need);
    auto &list = index.sorted[cls];
    auto &cursor = index.cursor[cls];
    while (cursor < list.size()) {
        const uint32_t idx = list[cursor];
        if (idx >= blocks_.size()) {
            // Snapshot index outlived a trim (a Hybrid-mode barrier ran
            // between a concurrent campaign's moves): the block is gone.
            cursor++;
            continue;
        }
        const Block &blk = blocks_[idx];
        if (!blk.isFree() || blk.size < need) {
            cursor++; // reused meanwhile, or a smaller same-class block
            continue;
        }
        if (blk.addr >= limit)
            return -1; // ascending addresses: nothing below limit left
        cursor++;
        return static_cast<int>(idx);
    }
    return -1;
}

size_t
SubHeap::coalesceHoles()
{
    // blocks_ is address-ordered and tiles the extent with no gaps
    // (bump allocation appends back-to-back), so vector-adjacent free
    // blocks are address-adjacent: one compaction sweep merges every
    // run of holes in place.
    size_t merged = 0;
    size_t w = 0;
    for (size_t r = 0; r < blocks_.size();) {
        if (blocks_[r].isFree()) {
            Block run = blocks_[r];
            size_t r2 = r + 1;
            while (r2 < blocks_.size() && blocks_[r2].isFree()) {
                run.size += blocks_[r2].size;
                r2++;
            }
            merged += (r2 - r) - 1;
            blocks_[w++] = run;
            r = r2;
        } else {
            blocks_[w++] = blocks_[r++];
        }
    }
    if (merged == 0)
        return 0;
    blocks_.resize(w);
    pageFirst_.clear();
    for (size_t i = 0; i < blocks_.size(); i++)
        indexBlock(static_cast<uint32_t>(i), blocks_[i].addr);
    // Every index changed: rebuild the free lists from scratch. The
    // reverse walk makes each class's back() (the O(1) reuse slot) the
    // lowest-addressed hole, which is also where defrag wants mutator
    // reuse to land.
    for (auto &list : freeLists_)
        list.clear();
    for (size_t i = blocks_.size(); i-- > 0;) {
        if (blocks_[i].isFree()) {
            freeLists_[classOf(blocks_[i].size)].push_back(
                static_cast<uint32_t>(i));
        }
    }
    return merged;
}

size_t
SubHeap::trimTop()
{
    const size_t old_bump = bump_;
    while (!blocks_.empty() && blocks_.back().isFree()) {
        const Block &blk = blocks_.back();
        freeBytes_ -= blk.size;
        bump_ = blk.addr - base_;
        blocks_.pop_back();
        // The free-list entries for popped indices go stale and are
        // pruned lazily on their next pop.
    }
    // Pages whose first block was popped now have no block at or
    // above their start; entries are ascending, so they are the tail.
    while (!pageFirst_.empty() && pageFirst_.back() >= blocks_.size())
        pageFirst_.pop_back();
    if (bump_ < old_bump) {
        // Return the reclaimed tail to the kernel (MADV_DONTNEED).
        // Dissolve any mesh sharing a frame with the tail first, or
        // the discard would pull the frame out from under the partner
        // page.
        if (meshDir_ != nullptr)
            meshDir_->noteDiscard(base_ + bump_, old_bump - bump_);
        space_.discard(base_ + bump_, old_bump - bump_);
        return old_bump - bump_;
    }
    return 0;
}

} // namespace alaska::anchorage
