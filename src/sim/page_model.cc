#include "sim/page_model.h"

#include "base/logging.h"

namespace alaska
{

namespace
{

/** Bit mask of frame within its leaf word. */
inline uint64_t
bitOf(uint64_t frame)
{
    return uint64_t{1} << (frame & 63);
}

/**
 * Load slot's node, publishing a fresh zeroed one by CAS if it is
 * null. A thread that loses the race frees its node and adopts the
 * winner's, so every slot is written at most once.
 */
template <typename Node>
Node *
publish(std::atomic<Node *> &slot)
{
    Node *node = slot.load(std::memory_order_acquire);
    if (__builtin_expect(node != nullptr, 1))
        return node;
    Node *fresh = new Node();
    if (slot.compare_exchange_strong(node, fresh,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
        return fresh;
    delete fresh;
    return node;
}

} // anonymous namespace

PageModel::PageModel(size_t page_size)
    : pageSize_(page_size)
{
    ALASKA_ASSERT(page_size > 0 && (page_size & (page_size - 1)) == 0,
                  "page size %zu is not a power of two", page_size);
    pageShift_ = static_cast<unsigned>(__builtin_ctzll(page_size));
}

PageModel::~PageModel()
{
    for (auto &top_slot : top_) {
        Mid *mid = top_slot.load(std::memory_order_relaxed);
        if (mid == nullptr)
            continue;
        for (auto &leaf : mid->leaves)
            delete leaf.load(std::memory_order_relaxed);
        delete mid;
    }
}

uint64_t
PageModel::frameOf(uint64_t vpage) const
{
    if (__builtin_expect(
            aliasCount_.load(std::memory_order_acquire) == 0, 1))
        return vpage;
    std::lock_guard<std::mutex> guard(aliasMutex_);
    auto it = aliases_.find(vpage);
    return it == aliases_.end() ? vpage : it->second;
}

uint64_t
PageModel::pageOf(uint64_t addr) const
{
    const uint64_t page = addr >> pageShift_;
    ALASKA_ASSERT((page >> frameBits) == 0,
                  "address %llx lies outside the modelled %u-bit page "
                  "frame range",
                  static_cast<unsigned long long>(addr), frameBits);
    return page;
}

PageModel::Leaf *
PageModel::findLeaf(uint64_t frame) const
{
    const Mid *mid = top_[topIndex(frame)].load(std::memory_order_acquire);
    if (mid == nullptr)
        return nullptr;
    return mid->leaves[midIndex(frame)].load(std::memory_order_acquire);
}

PageModel::Leaf *
PageModel::leafFor(uint64_t frame)
{
    return publish(publish(top_[topIndex(frame)])->leaves[midIndex(frame)]);
}

void
PageModel::setResident(uint64_t frame)
{
    std::atomic<uint64_t> &word = wordOf(*leafFor(frame), frame);
    const uint64_t bit = bitOf(frame);
    // Already resident: a kernel charges nothing for a repeat touch,
    // and neither does the model — no read-modify-write.
    if (word.load(std::memory_order_relaxed) & bit)
        return;
    if ((word.fetch_or(bit, std::memory_order_relaxed) & bit) == 0)
        residentCount_.fetch_add(1, std::memory_order_relaxed);
}

void
PageModel::clearResident(uint64_t frame)
{
    Leaf *leaf = findLeaf(frame);
    if (leaf == nullptr)
        return; // no frame in this leaf's range was ever resident
    std::atomic<uint64_t> &word = wordOf(*leaf, frame);
    const uint64_t bit = bitOf(frame);
    if ((word.load(std::memory_order_relaxed) & bit) == 0)
        return;
    if (word.fetch_and(~bit, std::memory_order_relaxed) & bit)
        residentCount_.fetch_sub(1, std::memory_order_relaxed);
}

void
PageModel::touch(uint64_t addr, size_t len)
{
    if (len == 0)
        return;
    const uint64_t first = pageOf(addr);
    const uint64_t last = pageOf(addr + len - 1);
    for (uint64_t p = first; p <= last; p++)
        setResident(frameOf(p));
}

void
PageModel::discard(uint64_t addr, size_t len)
{
    if (len < pageSize_)
        return;
    pageOf(addr + len - 1); // range check: no released page lies above
    // Only pages fully inside the range are released.
    const uint64_t first = (addr + pageSize_ - 1) >> pageShift_;
    const uint64_t end = (addr + len) >> pageShift_;
    for (uint64_t p = first; p < end; p++)
        clearResident(frameOf(p));
}

void
PageModel::alias(uint64_t vpage_addr, uint64_t target_page_addr)
{
    std::lock_guard<std::mutex> alias_guard(aliasMutex_);
    const uint64_t vpage = pageOf(vpage_addr);
    // Resolve the target under the lock so chained aliases collapse to
    // the root frame at insertion time.
    const uint64_t target_page = pageOf(target_page_addr);
    auto target_it = aliases_.find(target_page);
    const uint64_t target =
        target_it == aliases_.end() ? target_page : target_it->second;
    auto vpage_it = aliases_.find(vpage);
    const uint64_t old_frame =
        vpage_it == aliases_.end() ? vpage : vpage_it->second;
    if (old_frame == target)
        return;
    // Publish the mapping before releasing the old frame: a touch
    // racing this call then lands on the shared frame (or, pre-publish,
    // transiently re-sets the bit we are about to clear — an
    // overcount, never an undercount).
    aliases_[vpage] = target;
    aliasCount_.store(aliases_.size(), std::memory_order_release);
    clearResident(old_frame);
}

void
PageModel::unalias(uint64_t vpage_addr)
{
    std::lock_guard<std::mutex> alias_guard(aliasMutex_);
    const uint64_t vpage = pageOf(vpage_addr);
    if (aliases_.erase(vpage) == 0)
        return;
    aliasCount_.store(aliases_.size(), std::memory_order_release);
    // The split fault's private copy is resident from birth.
    setResident(vpage);
}

size_t
PageModel::aliasedPages() const
{
    return aliasCount_.load(std::memory_order_acquire);
}

size_t
PageModel::residentPages() const
{
    const int64_t count = residentCount_.load(std::memory_order_relaxed);
    return count > 0 ? static_cast<size_t>(count) : 0;
}

bool
PageModel::isResident(uint64_t addr) const
{
    const uint64_t frame = frameOf(pageOf(addr));
    Leaf *leaf = findLeaf(frame);
    if (leaf == nullptr)
        return false;
    return (wordOf(*leaf, frame).load(std::memory_order_relaxed) &
            bitOf(frame)) != 0;
}

void
PageModel::clear()
{
    std::lock_guard<std::mutex> alias_guard(aliasMutex_);
    for (auto &top_slot : top_) {
        Mid *mid = top_slot.load(std::memory_order_acquire);
        if (mid == nullptr)
            continue;
        for (auto &leaf_slot : mid->leaves) {
            Leaf *leaf = leaf_slot.load(std::memory_order_acquire);
            if (leaf == nullptr)
                continue;
            for (auto &word : leaf->words)
                word.store(0, std::memory_order_relaxed);
        }
    }
    residentCount_.store(0, std::memory_order_relaxed);
    aliases_.clear();
    aliasCount_.store(0, std::memory_order_release);
}

} // namespace alaska
