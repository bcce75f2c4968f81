/**
 * @file
 * Tests for batched, resumable defragmentation (paper §6's pause-time
 * story): a pass split into byte-bounded barriers reaches the same end
 * state as one monolithic barrier, every barrier respects the batch
 * budget, per-shard caps hold, the resumable cursor survives mutator
 * interleavings between barriers, the per-barrier stats fields
 * report honest pause accounting, and skipping destination searches
 * known to fail leaves every move decision unchanged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "anchorage/alloc_model_adapter.h"
#include "anchorage/anchorage_service.h"
#include "base/rng.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "kv/cache_workload.h"
#include "sim/address_space.h"
#include "sim/clock.h"

namespace
{

using namespace alaska;
using namespace alaska::anchorage;

/** Largest object the fixtures allocate; per-barrier overshoot slack. */
constexpr size_t kMaxObject = 1 << 10;

/**
 * One self-contained heap stack (space, service, runtime) that can be
 * fragmented deterministically — built twice by the equality test so a
 * monolithic and a batched pass can run on identical heaps. shards=1
 * keeps placement independent of the process-global thread ordinal.
 */
struct HeapStack
{
    PhantomAddressSpace space;
    AnchorageService service;
    Runtime runtime;

    explicit HeapStack(size_t shards = 1)
        : service(space, AnchorageConfig{.subHeapBytes = 1 << 20,
                                         .shards = shards}),
          runtime(RuntimeConfig{.tableCapacity = 1u << 18})
    {
        runtime.attachService(&service);
    }

    /** Allocate then free a deterministic subset: fragmentation ~2x. */
    void
    fragment(int objects = 6000)
    {
        Rng rng(42);
        std::vector<void *> handles;
        for (int i = 0; i < objects; i++)
            handles.push_back(runtime.halloc(16 + rng.below(240)));
        for (size_t i = 0; i < handles.size(); i += 2)
            runtime.hfree(handles[i]);
    }
};

/** End-state fingerprint of one defrag run, for cross-run equality
 *  (only one Runtime may be live at a time, so the monolithic and
 *  batched stacks run sequentially and compare fingerprints). */
struct RunResult
{
    size_t extent;
    size_t active;
    DefragStats stats;
};

TEST(BatchedDefragTest, BatchedPassMatchesMonolithicEndState)
{
    // Same heap, same budget: a monolithic barrier and a batched pass
    // must land on identical extent/live accounting — batching changes
    // when work happens, never what work happens.
    RunResult mono;
    {
        HeapStack stack;
        stack.fragment();
        ASSERT_GT(stack.service.fragmentation(), 1.5);
        mono.stats = stack.service.defrag(SIZE_MAX);
        mono.extent = stack.service.heapExtent();
        mono.active = stack.service.activeBytes();
        EXPECT_GT(mono.stats.movedObjects, 0u);
    }

    HeapStack stack;
    stack.fragment();
    auto pass = stack.service.beginBatchedDefrag(SIZE_MAX);
    const size_t batch = 48 << 10;
    size_t steps = 0;
    while (!pass.done()) {
        const DefragStats s = pass.step(batch);
        // Every barrier is bounded by the batch budget plus at most
        // one object's overshoot.
        EXPECT_LE(s.maxBarrierBytes, batch + kMaxObject);
        steps++;
        ASSERT_LT(steps, 10000u) << "batched pass failed to terminate";
    }
    // The pass really was split into many short barriers...
    EXPECT_GT(steps, 1u);
    EXPECT_EQ(pass.totals().barriers, steps);
    // ...and reached the monolithic end state exactly.
    EXPECT_EQ(stack.service.heapExtent(), mono.extent);
    EXPECT_EQ(stack.service.activeBytes(), mono.active);
    EXPECT_EQ(pass.totals().movedObjects, mono.stats.movedObjects);
    EXPECT_EQ(pass.totals().movedBytes, mono.stats.movedBytes);
    EXPECT_EQ(pass.totals().reclaimedBytes,
              mono.stats.reclaimedBytes);
}

TEST(BatchedDefragTest, BudgetLimitedBatchedPassMatchesMonolithic)
{
    const size_t budget = 200 << 10;
    RunResult mono;
    {
        HeapStack stack;
        stack.fragment();
        mono.stats = stack.service.defrag(budget);
        mono.extent = stack.service.heapExtent();
        mono.active = stack.service.activeBytes();
    }

    HeapStack stack;
    stack.fragment();
    auto pass = stack.service.beginBatchedDefrag(budget);
    while (!pass.done())
        pass.step(32 << 10);
    EXPECT_EQ(pass.totals().movedBytes, mono.stats.movedBytes);
    EXPECT_EQ(stack.service.heapExtent(), mono.extent);
    // The pass budget bounds the whole sequence, batch by batch.
    EXPECT_LE(pass.totals().movedBytes, budget + kMaxObject);
}

TEST(BatchedDefragTest, CursorSurvivesInterleavedMutators)
{
    RealAddressSpace space;
    AnchorageService service(space,
                             AnchorageConfig{.subHeapBytes = 1 << 20});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 18});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);
    Rng rng(7);

    struct Obj
    {
        void *h;
        std::vector<unsigned char> shadow;
    };
    std::vector<Obj> live;
    auto make = [&] {
        Obj obj;
        const size_t size = 16 + rng.below(480);
        obj.h = runtime.halloc(size);
        obj.shadow.resize(size);
        for (auto &byte : obj.shadow)
            byte = static_cast<unsigned char>(rng.below(256));
        std::memcpy(translate(obj.h), obj.shadow.data(), size);
        live.push_back(std::move(obj));
    };
    for (int i = 0; i < 4000; i++)
        make();
    for (size_t i = live.size(); i-- > 0;) {
        if (rng.chance(0.5)) {
            runtime.hfree(live[i].h);
            live[i] = std::move(live.back());
            live.pop_back();
        }
    }
    const double frag_before = service.fragmentation();
    ASSERT_GT(frag_before, 1.4);

    // Step a batched pass and mutate between every two barriers: the
    // carried cursor/index state must revalidate against trims, hole
    // reuse, and fresh bumps the mutator causes mid-pass.
    auto pass = service.beginBatchedDefrag(SIZE_MAX);
    size_t steps = 0;
    while (!pass.done()) {
        const DefragStats s = pass.step(24 << 10);
        EXPECT_LE(s.maxBarrierBytes, (24u << 10) + kMaxObject);
        steps++;
        ASSERT_LT(steps, 10000u);
        for (int i = 0; i < 20 && !live.empty(); i++) {
            if (rng.chance(0.5)) {
                make();
            } else {
                const size_t idx = rng.below(live.size());
                runtime.hfree(live[idx].h);
                live[idx] = std::move(live.back());
                live.pop_back();
            }
        }
    }
    EXPECT_GT(steps, 1u);
    EXPECT_LT(service.fragmentation(), frag_before);

    // Every survivor is intact, bit for bit, wherever it landed.
    for (auto &obj : live) {
        ASSERT_EQ(std::memcmp(translate(obj.h), obj.shadow.data(),
                              obj.shadow.size()),
                  0);
        runtime.hfree(obj.h);
    }
}

TEST(BatchedDefragTest, PerShardCapBoundsEveryShardsSpend)
{
    HeapStack stack(/*shards=*/4);

    // Populate (and fragment) several distinct shards: thread ordinals
    // are round-robin, so a handful of registered threads covers
    // multiple residues mod 4. Spawned sequentially — the allocations
    // themselves need no concurrency.
    std::vector<size_t> used_shards;
    for (int t = 0; t < 8; t++) {
        std::thread worker([&] {
            ThreadRegistration reg(stack.runtime);
            used_shards.push_back(stack.service.homeShardIndex());
            std::vector<void *> handles;
            for (int i = 0; i < 1500; i++)
                handles.push_back(stack.runtime.halloc(256));
            for (size_t i = 0; i < handles.size(); i += 2)
                stack.runtime.hfree(handles[i]);
        });
        worker.join();
    }
    std::sort(used_shards.begin(), used_shards.end());
    used_shards.erase(
        std::unique(used_shards.begin(), used_shards.end()),
        used_shards.end());
    ASSERT_GT(used_shards.size(), 1u);

    const size_t cap = 64 << 10;
    auto pass =
        stack.service.beginBatchedDefrag(SIZE_MAX, /*shard cap=*/cap);
    size_t steps = 0;
    while (!pass.done()) {
        pass.step(16 << 10);
        ASSERT_LT(++steps, 10000u);
    }

    // No shard's sources spent more than their cap (+ one object),
    // and more than one fragmented shard got reclamation — the cap's
    // whole point.
    size_t shards_reclaimed = 0;
    for (size_t moved : pass.shardMovedBytes()) {
        EXPECT_LE(moved, cap + kMaxObject);
        if (moved > 0)
            shards_reclaimed++;
    }
    EXPECT_GT(shards_reclaimed, 1u);
}

TEST(BatchedDefragTest, StatsReportPerBarrierAccounting)
{
    HeapStack stack;
    stack.fragment();

    // A monolithic pass is one barrier, and its max fields equal the
    // whole pass — honest numbers for the degenerate case.
    const DefragStats one = stack.service.defrag(64 << 10);
    EXPECT_EQ(one.barriers, 1u);
    EXPECT_EQ(one.maxBarrierBytes, one.movedBytes);
    EXPECT_DOUBLE_EQ(one.maxBarrierSec, one.measuredSec);
    EXPECT_DOUBLE_EQ(one.maxBarrierModeledSec, one.modeledSec);

    // A stepped pass accumulates: barriers counts steps, the max
    // fields track the worst step, and the folded sums keep growing.
    auto pass = stack.service.beginBatchedDefrag(SIZE_MAX);
    size_t steps = 0;
    uint64_t worst_bytes = 0;
    while (!pass.done()) {
        const DefragStats s = pass.step(16 << 10);
        worst_bytes = std::max(worst_bytes, s.maxBarrierBytes);
        steps++;
        ASSERT_LT(steps, 10000u);
    }
    EXPECT_EQ(pass.totals().barriers, steps);
    EXPECT_EQ(pass.totals().maxBarrierBytes, worst_bytes);
    EXPECT_LE(pass.totals().maxBarrierSec, pass.totals().measuredSec);
    EXPECT_GT(pass.totals().maxBarrierModeledSec, 0.0);
}

TEST(BatchedDefragTest, DestinationSearchMemoKeepsDecisions)
{
    // A Figure-9 cache trace (32 MiB, drifting ~500 B values) under the
    // default stop-the-world controller, ticked on a virtual clock. The
    // expected figures were recorded from passes that ran every
    // cross-heap destination search. A memo that skips a search which
    // would have succeeded changes the moves: one that reset only the
    // placed block's size class moved 57763776 bytes in 58 barriers on
    // this trace, because a stale free-list entry of one class can name
    // a free block of another.
    VirtualClock clock;
    PhantomAddressSpace space;
    ControlParams control;
    control.useModeledTime = true;
    uint64_t moved = 0;
    uint64_t barriers = 0;
    uint64_t rss_hash = UINT64_C(14695981039346656037); // FNV-1a basis
    {
        AnchorageAllocModel model(space, clock, control);
        kv::CacheWorkloadConfig config;
        config.maxMemory = 32 << 20;
        config.valueSize = 500;
        config.driftPeriod = 32000;
        config.seed = 86;
        kv::CacheWorkload trace(model, config);
        for (uint64_t i = 1; i <= 420000; i++) {
            trace.insertOne();
            if (i % 150 != 0)
                continue;
            clock.advance(1e-3);
            model.maintain();
            const ControlAction &act = model.lastAction();
            if (act.defragged) {
                moved += act.stats.movedBytes;
                barriers += act.stats.barriers;
            }
            rss_hash = (rss_hash ^ model.rss()) * UINT64_C(1099511628211);
        }
        trace.drain();
    }
    EXPECT_EQ(moved, 83676304u);
    EXPECT_EQ(barriers, 83u);
    EXPECT_EQ(rss_hash, UINT64_C(0xe1fe9a6ec2043de5));
}

} // namespace
