/**
 * @file
 * Anchorage sub-heaps (paper §4.3).
 *
 * Each sub-heap is a contiguous region allocated with a naive bump
 * pointer plus a power-of-two free list: an allocation first checks the
 * front of its size class's list (O(1)), then bumps. There is no
 * splitting, no thread caching, and no coalescing on the mutator free
 * path — the allocator is deliberately simple because defragmentation,
 * not placement cleverness, is what fights fragmentation here. Defrag
 * passes do coalesce (coalesceHoles()): after a sub-heap is evacuated
 * its class-exact holes would otherwise cap how densely later moves
 * can repack it.
 *
 * Block metadata is kept out-of-band (a sorted vector per sub-heap)
 * rather than in headers so the same code runs over real and phantom
 * address spaces; see DESIGN.md. A page index beside it maps each
 * 4 KiB page of the extent to the first block starting at or above
 * the page's start, so findBlock() — the lookup behind every free —
 * is one index load plus a scan over the blocks of a single page,
 * not a binary search over the whole sub-heap.
 */

#ifndef ALASKA_ANCHORAGE_SUB_HEAP_H
#define ALASKA_ANCHORAGE_SUB_HEAP_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/address_space.h"

namespace alaska::anchorage
{

class MeshDirectory;

/** Out-of-band metadata for one heap block. */
struct Block
{
    static constexpr uint32_t freeMarker = 0xffffffffu;

    uint64_t addr = 0;
    /** Usable size (16-byte aligned). */
    uint32_t size = 0;
    /** Owning handle ID, or freeMarker if the block is free. */
    uint32_t handleId = freeMarker;

    bool isFree() const { return handleId == freeMarker; }
};

/** Result of allocating within a sub-heap. */
struct SubHeapAlloc
{
    bool ok = false;
    uint64_t addr = 0;
};

/** One bump-allocated, free-list-recycled heap segment. */
class SubHeap
{
  public:
    /** Number of power-of-two size classes (16 B .. 2 GiB). */
    static constexpr int numClasses = 28;
    /** Block alignment. */
    static constexpr uint64_t alignment = 16;

    /**
     * @param space backing address space (thread-safe; see sim/)
     * @param capacity region size in bytes
     * @param owner_shard the Anchorage shard this sub-heap belongs to
     *        (an inert tag for stats/asserts; 0 for unsharded users)
     */
    SubHeap(AddressSpace &space, size_t capacity,
            uint32_t owner_shard = 0);
    ~SubHeap();

    SubHeap(const SubHeap &) = delete;
    SubHeap &operator=(const SubHeap &) = delete;

    /**
     * Allocate size bytes for handle id: front-of-class free list first,
     * bump second. Fails (ok=false) if neither fits.
     */
    SubHeapAlloc alloc(uint32_t id, size_t size);

    /**
     * Like alloc() but reuses an existing hole only — never bumps.
     * Concurrent relocation campaigns use this for cross-heap
     * destinations so that a campaign can reduce but never grow the
     * heap's extent (stop-the-world passes may bump because their trims
     * run with the world stopped and win the space right back).
     */
    SubHeapAlloc allocFromFreeList(uint32_t id, size_t size);

    /** Free the block at addr (must be a live block of this heap). */
    void free(uint64_t addr);

    /** True iff addr lies within this sub-heap's region. */
    bool
    contains(uint64_t addr) const
    {
        return addr >= base_ && addr < base_ + capacity_;
    }

    /**
     * Find the index of the block starting at addr (live or free); -1
     * if no block starts there. O(blocks per page) via the page index.
     */
    int findBlock(uint64_t addr) const;

    /**
     * Retract the bump pointer past any trailing free blocks and
     * MADV_DONTNEED the reclaimed tail.
     * @return bytes reclaimed from the extent.
     */
    size_t trimTop();

    /**
     * Merge runs of address-adjacent free blocks into single holes and
     * rebuild the free lists. Defrag-only (blocks_ indices change, so
     * the caller must hold the shard lock and must not have a live
     * CompactionIndex for this heap): called when a pass or campaign
     * finishes with a source sub-heap, so the class-exact holes its
     * evacuation left behind fuse into holes big enough for any later
     * placement — without this, concurrent campaigns floor out above
     * the stop-the-world fragmentation floor. O(blocks).
     * @return number of holes merged away.
     */
    size_t coalesceHoles();

    /** Anchorage shard that owns this sub-heap (tag; see constructor). */
    uint32_t ownerShard() const { return ownerShard_; }

    /** Base address of the region. */
    uint64_t base() const { return base_; }
    /** Region capacity in bytes. */
    size_t capacity() const { return capacity_; }
    /** Current bump offset — the sub-heap's used extent. */
    size_t extent() const { return bump_; }
    /** Bytes in live blocks. */
    size_t liveBytes() const { return liveBytes_; }
    /** Bytes sitting in free blocks (reusable holes). */
    size_t freeBytes() const { return freeBytes_; }
    /** Number of live blocks. */
    size_t liveBlocks() const { return liveCount_; }

    /** All blocks, address-ordered (live and free). For defrag walks. */
    std::vector<Block> &blocks() { return blocks_; }
    const std::vector<Block> &blocks() const { return blocks_; }

    /**
     * Mark the block at index as reallocated to handle id (defrag
     * destination found via lowestFreeBlockBelow).
     */
    void claimBlock(int index, uint32_t id, size_t size);

    /** Release a block by index (defrag source). */
    void freeBlockAt(int index);

    /**
     * Lowest-addressed free block of the exact size class that can hold
     * size bytes and whose address is below limit. Used by defrag to
     * move objects strictly downward. @return block index or -1.
     *
     * Unlike the O(1) mutator path, this scans the class list — the cost
     * is part of the stop-the-world pause, not the allocation path.
     */
    int lowestFreeBlockBelow(size_t size, uint64_t limit);

    /**
     * Address-sorted snapshot of the free blocks, consumed cursor-wise
     * by a top-down defrag walk (whose limit only decreases). Lets a
     * whole pass run in O(F log F) instead of O(F) per moved object.
     * Entries are validated on pop, so the snapshot may outlive
     * mutator allocations (concurrent campaigns) and even trims.
     */
    struct CompactionIndex
    {
        std::array<std::vector<uint32_t>, numClasses> sorted;
        std::array<size_t, numClasses> cursor{};
    };

    /** Build the snapshot for this sub-heap. */
    CompactionIndex buildCompactionIndex() const;

    /**
     * Pop the lowest free block that fits size below limit, advancing
     * the class cursor. @return block index or -1.
     */
    int popLowestFreeBelow(CompactionIndex &index, size_t size,
                           uint64_t limit);

    /** Size class of a request (index into the free lists). */
    static int classOf(size_t size);

    /**
     * Attach the service's mesh directory (nullptr detaches). When
     * set, every block placement (alloc/claim) reports its range via
     * noteWrite() before touching pages — the split-on-write hook —
     * and trims report reclaimed tails via noteDiscard() before
     * returning them to the kernel. Costs one relaxed atomic load per
     * placement while no meshes exist.
     */
    void setMeshDirectory(MeshDirectory *dir) { meshDir_ = dir; }

  private:
    /** Granularity of the page index (4 KiB). */
    static constexpr unsigned pageShift = 12;

    SubHeapAlloc bumpAlloc(uint32_t id, size_t size);
    /** Extend the page index for a block appended at index/addr. */
    void indexBlock(uint32_t index, uint64_t addr);
    /** Drop stale indices from the front of a class list. */
    void pruneClassFront(int cls);

    AddressSpace &space_;
    MeshDirectory *meshDir_ = nullptr;
    uint64_t base_ = 0;
    size_t capacity_ = 0;
    uint32_t ownerShard_ = 0;
    size_t bump_ = 0;
    size_t liveBytes_ = 0;
    size_t freeBytes_ = 0;
    size_t liveCount_ = 0;

    /** Address-ordered block metadata; indices are stable except for
     *  trailing pops in trimTop(). */
    std::vector<Block> blocks_;
    /**
     * Page index: pageFirst_[p] is the position in blocks_ of the first
     * block whose address is at or above page p's start. It covers
     * exactly the pages up to and including the last block's start
     * page, so every entry is a valid index. Appended by bumpAlloc(),
     * trimmed by trimTop(), rebuilt by coalesceHoles(); free-list
     * reuse and claims leave the layout, and so the index, alone.
     */
    std::vector<uint32_t> pageFirst_;
    /** LIFO free lists of block indices, one per power-of-two class.
     *  Entries may be stale (trimmed or reused); validated on pop. */
    std::array<std::vector<uint32_t>, numClasses> freeLists_;
};

} // namespace alaska::anchorage

#endif // ALASKA_ANCHORAGE_SUB_HEAP_H
