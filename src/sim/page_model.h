/**
 * @file
 * Page-granular residency accounting.
 *
 * The paper measures defragmentation success as the process's resident
 * set size over time, sampled from the kernel. Sampling /proc from
 * inside unit tests is noisy and machine-dependent, so every allocator
 * in this repository routes its page-level effects (first touch,
 * MADV_DONTNEED, and Mesh-style page aliasing) through this model, which
 * produces exact, deterministic RSS numbers. Real-backed address spaces
 * additionally perform the matching mmap/madvise calls so the behaviour
 * stays honest.
 *
 * Thread safety: touch(), discard(), and the queries may be called
 * concurrently, and none of them takes a lock. The resident set is a
 * three-level radix bitmap over page frames (a fixed top array, then
 * lazily created inner nodes and leaves, each published once by CAS
 * and freed only by the destructor), and the resident count is one
 * atomic beside it. A touch of a page that is already resident — the
 * overwhelmingly common case, as in a kernel — is a relaxed load and a
 * bit test; only a clear bit takes a fetch_or, whose old value decides
 * whether the count goes up (discard mirrors this with fetch_and).
 * This matters because the sharded Anchorage service
 * (anchorage/anchorage_service.h) drives touches from every shard
 * concurrently, and concurrent relocation campaigns copy (and
 * therefore touch) outside any heap lock.
 *
 * alias()/unalias() are also safe to call concurrently with the other
 * operations: the alias map lives behind its own mutex, and the
 * no-alias fast path (the overwhelmingly common case — all modes
 * except meshing) stays a single relaxed-atomic load. A touch racing
 * an alias() may transiently keep the superseded frame resident; RSS
 * can briefly overcount by a page but never undercounts.
 */

#ifndef ALASKA_SIM_PAGE_MODEL_H
#define ALASKA_SIM_PAGE_MODEL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace alaska
{

/** Deterministic model of kernel page residency for a process. */
class PageModel
{
  public:
    /**
     * Page frames below 2^frameBits are modelled: 48-bit addresses at
     * 4 KiB pages. Touching an address past that fails an assertion.
     */
    static constexpr unsigned frameBits = 36;

    /** @param page_size page size in bytes; must be a power of two. */
    explicit PageModel(size_t page_size = 4096);
    ~PageModel();

    PageModel(const PageModel &) = delete;
    PageModel &operator=(const PageModel &) = delete;

    /** Page size in bytes. */
    size_t pageSize() const { return pageSize_; }

    /** Mark every page overlapping [addr, addr+len) resident. */
    void touch(uint64_t addr, size_t len);

    /**
     * MADV_DONTNEED on [addr, addr+len): pages *fully contained* in the
     * range lose residency (partial edge pages stay, as in the kernel).
     */
    void discard(uint64_t addr, size_t len);

    /**
     * Mesh-style aliasing: virtual page vpage is remapped to the
     * physical frame backing target. vpage's own frame (if any) is
     * released; future touches of either virtual page land on the
     * shared frame. Safe to call concurrently with touch/discard/
     * queries (see the file comment for the transient-overcount
     * caveat); callers that need a pass to observe a consistent block
     * layout synchronize at a higher level (the mesh pass holds its
     * shard lock).
     */
    void alias(uint64_t vpage_addr, uint64_t target_page_addr);

    /**
     * Undo an alias: vpage gets back a private frame (itself) and that
     * frame becomes resident — the model of a copy-on-write split
     * fault, where the kernel materializes a private copy of the
     * shared frame on write. No-op if vpage is not aliased.
     */
    void unalias(uint64_t vpage_addr);

    /** Number of virtual pages currently aliased onto another frame. */
    size_t aliasedPages() const;

    /** Physical frame address backing the page containing addr. */
    uint64_t frameAddrOf(uint64_t addr) const
    {
        return frameOf(addr >> pageShift_) << pageShift_;
    }

    /** Resident bytes (distinct physical frames times page size). */
    size_t rss() const { return residentPages() * pageSize_; }

    /** Number of distinct resident physical frames. */
    size_t residentPages() const;

    /** True iff the page containing addr is resident. */
    bool isResident(uint64_t addr) const;

    /** Forget everything. Must not race the other operations. */
    void clear();

  private:
    /** Frames per leaf (log2): one 4 KiB leaf of bits. */
    static constexpr unsigned leafBits = 15;
    /** Leaves per inner node (log2). */
    static constexpr unsigned midBits = 9;
    /** Inner nodes in the fixed top array (log2). */
    static constexpr unsigned topBits = frameBits - midBits - leafBits;

    /** 2^leafBits residency bits, one per frame. */
    struct Leaf
    {
        std::atomic<uint64_t> words[(size_t{1} << leafBits) / 64];
    };

    /** 2^midBits leaf pointers; null until a frame in range is set. */
    struct Mid
    {
        std::atomic<Leaf *> leaves[size_t{1} << midBits];
    };

    /** Slot of frame's inner node in top_. */
    static uint64_t topIndex(uint64_t frame)
    {
        return frame >> (midBits + leafBits);
    }

    /** Slot of frame's leaf in its inner node. */
    static uint64_t midIndex(uint64_t frame)
    {
        return (frame >> leafBits) & ((uint64_t{1} << midBits) - 1);
    }

    /** The word of leaf holding frame's bit. */
    static std::atomic<uint64_t> &wordOf(Leaf &leaf, uint64_t frame)
    {
        return leaf.words[(frame >> 6) &
                          ((uint64_t{1} << (leafBits - 6)) - 1)];
    }

    /** Map a virtual page index to its physical frame index. */
    uint64_t frameOf(uint64_t vpage) const;

    /** Page index of addr; asserts it lies inside the modelled range. */
    uint64_t pageOf(uint64_t addr) const;

    /** The leaf holding frame's bit, or nullptr if none exists yet. */
    Leaf *findLeaf(uint64_t frame) const;

    /** The leaf holding frame's bit, creating nodes on the way. */
    Leaf *leafFor(uint64_t frame);

    /** Set frame's bit, counting it if it was clear. */
    void setResident(uint64_t frame);

    /** Clear frame's bit, uncounting it if it was set. */
    void clearResident(uint64_t frame);

    size_t pageSize_;
    unsigned pageShift_ = 0;

    /**
     * Set bits across all leaves. Signed because a discard can clear a
     * bit (and decrement) between a racing touch's fetch_or and its
     * increment; residentPages() clamps that transient at zero.
     */
    std::atomic<int64_t> residentCount_{0};

    /** Radix root: inner nodes, null until first needed. */
    std::atomic<Mid *> top_[size_t{1} << topBits]{};

    /**
     * Virtual page -> physical frame, for aliased pages only, guarded
     * by aliasMutex_. aliasCount_ mirrors aliases_.size() so frameOf()
     * can skip the lock entirely while no aliases exist — the touch
     * fast path every non-meshing mode runs stays one atomic load.
     */
    std::atomic<size_t> aliasCount_{0};
    mutable std::mutex aliasMutex_;
    std::unordered_map<uint64_t, uint64_t> aliases_;
};

} // namespace alaska

#endif // ALASKA_SIM_PAGE_MODEL_H
