/**
 * @file
 * Measurement pieces shared by every workload: the byte hash behind
 * the output checks, the CPU-time clocks, the latency metrics from
 * exact samples, the reference job and the set-up normalisation, the
 * host calibration, and the layer ladder.
 */

#include <time.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "base/rng.h"
#include "bench.h"
#include "core/handle.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "serve/server.h"
#include "telemetry/trace.h"
#include "ycsb/ycsb.h"

namespace perfbench
{

using namespace alaska;

uint64_t
hashBytes(const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t h = len * 0x9e3779b97f4a7c15ULL;
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        uint64_t w;
        std::memcpy(&w, p + i, 8);
        h = (h ^ w) * 0xff51afd7ed558ccdULL;
        h ^= h >> 32;
    }
    for (; i < len; i++)
        h = (h ^ p[i]) * 0x100000001b3ULL;
    return h ^ (h >> 29);
}

namespace
{

uint64_t
clockNs(clockid_t clock)
{
    timespec t;
    clock_gettime(clock, &t);
    return static_cast<uint64_t>(t.tv_sec) * 1000000000ULL +
           static_cast<uint64_t>(t.tv_nsec);
}

/** The set-up reference's wall time on the host the bounds were set
 *  on; see BENCH.md. */
constexpr double kSetupRefNominalSec = 0.08;

} // namespace

uint64_t
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

uint64_t
processCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

Latency
latencyOf(const LatencyDigest &samplesNs)
{
    return Latency{samplesNs.percentile(50) / 1e3,
                   samplesNs.percentile(99) / 1e3,
                   samplesNs.percentile(99.9) / 1e3};
}

// --- the reference job -----------------------------------------------------

namespace
{

constexpr size_t kRefBytes = 64u << 20;
constexpr size_t kRefStride = 512;
constexpr size_t kRefRead = 300;

} // namespace

RefLoop::RefLoop(uint64_t seed)
    : buffer_(kRefBytes), state_(seed * 0x9e3779b97f4a7c15ULL | 1)
{
    for (size_t i = 0; i < kRefBytes; i += 64)
        buffer_[i] = static_cast<unsigned char>(i >> 6);
}

uint64_t
RefLoop::run(uint64_t steps)
{
    uint64_t sum = 0;
    for (uint64_t i = 0; i < steps; i++) {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        const size_t at = (state_ % (kRefBytes / kRefStride)) * kRefStride;
        sum += hashBytes(buffer_.data() + at, kRefRead);
    }
    return sum;
}

double
setupReferenceSec(uint64_t seed)
{
    const uint64_t t0 = nowNs();
    RefLoop ref(seed);
    volatile uint64_t keep = ref.run(kSetupRefSteps);
    (void)keep;
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

double
normalizedSetupSec(const std::vector<double> &setupSec,
                   const std::vector<double> &referenceSec)
{
    std::vector<double> ratios;
    for (size_t i = 0; i < setupSec.size() && i < referenceSec.size(); i++)
        ratios.push_back(ratio(setupSec[i], referenceSec[i]));
    std::fprintf(stderr, "set-up: median %.4g s, reference %.4g s\n",
                 summarize(setupSec).median, summarize(referenceSec).median);
    return summarize(ratios).median * kSetupRefNominalSec;
}

void
addLatencyMetrics(double p50VsLibc, double p99VsLibc, const Latency &alaska,
                  RunResult &out)
{
    put(out.e2e, "p99_vs_libc", p99VsLibc, "x");
    put(out.layer, "op.p50_vs_libc", p50VsLibc, "x");
    put(out.layer, "op.p50_us", alaska.p50, "us");
    put(out.layer, "op.p99_us", alaska.p99, "us");
    put(out.layer, "op.p999_us", alaska.p999, "us");
}

void
addDefragMetrics(const DefragSummary &d, Metrics &layer)
{
    const double moved_mb = static_cast<double>(d.stats.movedBytes) / 1e6;
    const double recovered_mb =
        static_cast<double>(d.stats.reclaimedBytes + d.stats.bytesRecovered) /
        1e6;
    put(layer, "anchorage.defrag_busy_frac", ratio(d.busySec, d.wallSec),
        "s/s");
    put(layer, "anchorage.moved_mb", moved_mb, "MB");
    put(layer, "anchorage.recovered_mb", recovered_mb, "MB");
    put(layer, "anchorage.recovered_mb_per_busy_s",
        ratio(recovered_mb, d.busySec), "MB/s");
    put(layer, "anchorage.passes", static_cast<double>(d.passes), "count");
    put(layer, "anchorage.campaign_commit_frac",
        ratio(static_cast<double>(d.stats.committed),
              static_cast<double>(d.stats.attempts)),
        "fraction");
    put(layer, "anchorage.nospace", static_cast<double>(d.stats.noSpace),
        "count");
    put(layer, "core.barriers", static_cast<double>(d.barriers), "count");
    put(layer, "core.barrier_pause_frac", ratio(d.pauseSec, d.wallSec),
        "s/s");
    put(layer, "core.grace_wait_frac",
        ratio(d.stats.graceWaitSec, d.wallSec), "s/s");
}

void
addHeapMetrics(const anchorage::AnchorageService &service, Metrics &layer)
{
    put(layer, "anchorage.frag_final", service.fragmentation(), "x");
    put(layer, "anchorage.extent_mb",
        static_cast<double>(service.heapExtent()) / 1e6, "MB");
    put(layer, "anchorage.subheaps",
        static_cast<double>(service.subHeapCount()), "count");
}

// --- host calibration ------------------------------------------------------

namespace
{

/** Dependent xorshift chain: pure ALU, no memory traffic. */
uint64_t
aluChain(uint64_t x, uint64_t iters)
{
    for (uint64_t i = 0; i < iters; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

/** Aggregate ALU iterations per second with @p threads busy threads. */
double
aluRate(int threads, uint64_t iters)
{
    std::vector<std::thread> pool;
    std::vector<uint64_t> sinks(static_cast<size_t>(threads));
    const uint64_t t0 = nowNs();
    for (int t = 0; t < threads; t++)
        pool.emplace_back([&sinks, t, iters] {
            sinks[static_cast<size_t>(t)] =
                aluChain(static_cast<uint64_t>(t) + 88172645463325252ULL,
                         iters);
        });
    for (auto &th : pool)
        th.join();
    const double sec = static_cast<double>(nowNs() - t0) * 1e-9;
    volatile uint64_t keep = sinks[0];
    (void)keep;
    return static_cast<double>(iters) * threads / sec;
}

} // namespace

void
calibrateHost(Metrics &layer)
{
    // Timer: mean cost of back-to-back steady_clock reads.
    {
        constexpr int kReads = 1 << 20;
        uint64_t last = nowNs();
        const uint64_t t0 = last;
        for (int i = 0; i < kReads; i++)
            last = nowNs();
        put(layer, "host.timer_ns",
            static_cast<double>(last - t0) / kReads, "ns");
    }
    // ALU: median of three runs at 1 and at 4 threads, one at 2.
    {
        constexpr uint64_t kIters = 20'000'000;
        std::vector<double> one, four;
        for (int r = 0; r < 3; r++) {
            one.push_back(aluRate(1, kIters));
            four.push_back(aluRate(4, kIters));
        }
        const double two = aluRate(2, kIters);
        const double base = summarize(one).median;
        put(layer, "host.alu_scaling_2t", two / base, "x");
        put(layer, "host.alu_scaling_4t", summarize(four).median / base,
            "x");
    }
    // STREAM-style copy over buffers larger than the caches: two
    // warm-up passes, then the median of seven timed passes.
    {
        constexpr size_t kBytes = 32u << 20;
        std::vector<char> src(kBytes, 1), dst(kBytes, 0);
        std::vector<double> gbps;
        for (int r = 0; r < 9; r++) {
            src[static_cast<size_t>(r)] = static_cast<char>(r);
            const uint64_t t0 = nowNs();
            std::memcpy(dst.data(), src.data(), kBytes);
            const double sec = static_cast<double>(nowNs() - t0) * 1e-9;
            if (r >= 2)
                gbps.push_back(static_cast<double>(kBytes) / sec / 1e9);
        }
        volatile char keep = dst[kBytes / 2];
        (void)keep;
        put(layer, "host.copy_gbps", summarize(gbps).median, "GB/s");
    }
}

// --- the layer ladder ------------------------------------------------------

namespace
{

/** Median over @p reps of fn()'s ns per op (fn returns its op count). */
template <typename F>
double
nsPerOp(int reps, F fn)
{
    std::vector<double> per;
    for (int r = 0; r < reps; r++) {
        const uint64_t t0 = nowNs();
        const uint64_t ops = fn();
        per.push_back(static_cast<double>(nowNs() - t0) /
                      static_cast<double>(ops ? ops : 1));
    }
    return summarize(per).median;
}

/** A random sample of the live handles, found in the handle table. */
std::vector<void *>
sampleLiveHandles(Runtime &rt, size_t want, uint64_t seed)
{
    std::vector<void *> handles;
    const HandleTable &table = rt.table();
    const uint32_t mark = table.watermark();
    for (uint32_t id = 0; id < mark; id++)
        if (table.entry(id).allocated())
            handles.push_back(reinterpret_cast<void *>(makeHandle(id)));
    Rng rng(seed);
    for (size_t i = handles.size(); i > 1; i--)
        std::swap(handles[i - 1], handles[rng.below(i)]);
    if (handles.size() > want)
        handles.resize(want);
    return handles;
}

volatile uint64_t gSink;

} // namespace

void
runLadder(const LadderInputs &in, Metrics &layer)
{
    Runtime &rt = *in.runtime;
    constexpr int kReps = 5;

    // translate and api::deref over the same sample of live handles.
    const std::vector<void *> handles =
        sampleLiveHandles(rt, 1 << 16, in.seed);
    const double translate_ns = nsPerOp(kReps, [&] {
        uint64_t acc = 0;
        for (int pass = 0; pass < 8; pass++)
            for (void *h : handles)
                acc += reinterpret_cast<uint64_t>(translate(h));
        gSink = acc;
        return handles.size() * 8;
    });
    const double deref_ns = nsPerOp(kReps, [&] {
        uint64_t acc = 0;
        access_scope scope;
        for (int pass = 0; pass < 8; pass++)
            for (void *h : handles)
                acc += reinterpret_cast<uint64_t>(
                    api::deref(static_cast<char *>(h)));
        gSink = acc;
        return handles.size() * 8;
    });

    // Handle-ID allocation: allocate/release pairs.
    const double handle_id_ns = nsPerOp(kReps, [&] {
        constexpr uint64_t kPairs = 200000;
        for (uint64_t i = 0; i < kPairs; i++)
            rt.releaseHandleId(rt.allocateHandleId());
        return kPairs;
    });

    // halloc/hfree on the workload's size mix.
    std::vector<double> halloc_per, hfree_per;
    {
        constexpr size_t kObjects = 20000;
        std::vector<void *> objs(kObjects);
        for (int r = 0; r < kReps; r++) {
            uint64_t t0 = nowNs();
            for (size_t i = 0; i < kObjects; i++)
                objs[i] = rt.halloc(in.sizeMix[i % in.sizeMix.size()]);
            halloc_per.push_back(static_cast<double>(nowNs() - t0) /
                                 kObjects);
            t0 = nowNs();
            for (size_t i = 0; i < kObjects; i++)
                rt.hfree(objs[i]);
            hfree_per.push_back(static_cast<double>(nowNs() - t0) /
                                kObjects);
        }
    }
    const double halloc_ns = summarize(halloc_per).median;
    const double hfree_ns = summarize(hfree_per).median;

    // An empty stop-the-world barrier and one grace round trip.
    const double barrier_ns = nsPerOp(kReps, [&] {
        constexpr int kBarriers = 20;
        for (int i = 0; i < kBarriers; i++)
            rt.barrier([](const PinnedSet &) {});
        return kBarriers;
    });
    const double grace_ns = nsPerOp(kReps, [&] {
        constexpr int kGraces = 2000;
        for (int i = 0; i < kGraces; i++)
            rt.waitForGrace(Runtime::advanceCampaignEpoch());
        return kGraces;
    });

    // A small one-worker server on the same heap for the
    // served-request rung (and the kv rung, when the workload has no
    // store of its own).
    constexpr uint64_t kServerRecords = 4096;
    serve::Server server(rt, serve::ServerConfig{.workers = 1});
    server.populate(kServerRecords);
    std::vector<uint64_t> ids(kServerRecords);
    for (uint64_t id = 0; id < kServerRecords; id++)
        ids[id] = id;
    Rng rng(in.seed ^ 0x1add3);
    for (size_t i = ids.size(); i > 1; i--)
        std::swap(ids[i - 1], ids[rng.below(i)]);

    // MiniKv get/set on the workload's own records (else the server's).
    std::vector<KvRecord> records = in.kvSample;
    if (records.empty())
        for (uint64_t id : ids)
            records.push_back(KvRecord{&server.shard(server.shardOf(id)),
                                       ycsb::Workload::keyFor(id),
                                       server.valueFor(id)});
    const double get_ns = nsPerOp(kReps, [&] {
        size_t bytes = 0;
        for (const KvRecord &r : records) {
            access_scope scope;
            auto v = r.store->get(r.key);
            bytes += v ? v->size() : 0;
        }
        gSink = bytes;
        return records.size();
    });
    const double set_ns = nsPerOp(kReps, [&] {
        for (const KvRecord &r : records) {
            access_scope scope;
            r.store->set(r.key, r.value);
        }
        return records.size();
    });

    // Served request: closed loop, one get in flight at a time.
    std::atomic<uint64_t> done{0};
    server.setCompletionHandler([&done](const serve::Response &r) {
        done.store(r.id + 1, std::memory_order_release);
    });
    server.start();
    LatencyDigest submit_samples, request_samples;
    constexpr uint64_t kServed = 2000;
    for (uint64_t i = 0; i < kServed; i++) {
        serve::Request req;
        req.id = i;
        req.op = serve::OpKind::Get;
        req.key = ids[i % ids.size()];
        const uint64_t t0 = nowNs();
        req.intendedNs = t0;
        {
            telemetry::TraceSpan span("submit");
            server.submit(req);
        }
        const uint64_t t1 = nowNs();
        // Yield while waiting: the worker may share this CPU.
        while (done.load(std::memory_order_acquire) != i + 1)
            std::this_thread::yield();
        submit_samples.add(t1 - t0);
        request_samples.add(nowNs() - t0);
    }
    server.stop();
    {
        // Under the Scoped discipline a store is only touched in a scope.
        access_scope scope;
        server.clearStores();
    }
    const double submit_ns = submit_samples.percentile(50);
    const double request_ns = request_samples.percentile(50);

    put(layer, "core.translate_ns", translate_ns, "ns");
    put(layer, "api.deref_ns", deref_ns, "ns");
    put(layer, "api.deref_vs_translate", ratio(deref_ns, translate_ns), "x");
    put(layer, "core.handle_id_ns", handle_id_ns, "ns");
    put(layer, "core.handle_id_vs_deref", ratio(handle_id_ns, deref_ns),
        "x");
    put(layer, "core.halloc_ns", halloc_ns, "ns");
    put(layer, "core.hfree_ns", hfree_ns, "ns");
    put(layer, "core.halloc_vs_handle_id", ratio(halloc_ns, handle_id_ns),
        "x");
    put(layer, "core.barrier_ns", barrier_ns, "ns");
    put(layer, "core.grace_ns", grace_ns, "ns");
    put(layer, "kv.get_ns", get_ns, "ns");
    put(layer, "kv.set_ns", set_ns, "ns");
    put(layer, "kv.get_vs_halloc", ratio(get_ns, halloc_ns), "x");
    put(layer, "kv.get_vs_deref", ratio(get_ns, deref_ns), "x");
    put(layer, "serve.submit_ns", submit_ns, "ns");
    put(layer, "serve.request_ns", request_ns, "ns");
    put(layer, "serve.request_vs_kv_get", ratio(request_ns, get_ns), "x");
    put(layer, "op.p50_vs_kv_get", ratio(in.p50Us * 1e3, get_ns), "x");
}

} // namespace perfbench
