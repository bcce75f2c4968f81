/**
 * @file
 * cache-churn: closed loop, one thread, the paper's Figure 9
 * Redis-cache trace (kv::CacheWorkload: 100 MiB maxmemory, sampled-LRU
 * eviction, drifting ~500 B values, 1.5M inserts) through
 * anchorage::AnchorageAllocModel on a RealAddressSpace. The controller
 * runs default ControlParams (StopTheWorld, 1 MiB batched barriers)
 * with modeled time, ticked on a virtual clock every kTickInserts
 * inserts so its batches are not starved. The same trace is replayed
 * on malloc/free in the same process, block by block, and a fixed
 * reference job (RefLoop) runs after each pair of blocks.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anchorage/alloc_model_adapter.h"
#include "bench.h"
#include "kv/cache_workload.h"
#include "sim/address_space.h"
#include "sim/clock.h"
#include "telemetry/trace.h"

namespace perfbench
{

using namespace alaska;

namespace
{

/** Inserts between controller ticks, and the virtual time per tick:
 *  1.5M inserts over 10 virtual seconds, as in Figure 9. */
constexpr uint64_t kTickInserts = 150;
constexpr double kTickSec = 1e-3;
/** Inserts per block of the Anchorage/malloc alternation. */
constexpr uint64_t kBlockInserts = 10 * kTickInserts;
/** Steps of the reference job after each pair of blocks. */
constexpr uint64_t kBlockRefSteps = kBlockInserts;

/** Forwards to another model, with sampled spans in traced runs. */
class SpanModel : public AllocModel
{
  public:
    SpanModel(AllocModel &inner, bool traced) : inner_(inner), traced_(traced)
    {
    }

    uint64_t
    alloc(size_t size) override
    {
        std::optional<telemetry::TraceSpan> span;
        if (traced_ && ++calls_ % kSpanSample == 0)
            span.emplace("halloc");
        return inner_.alloc(size);
    }

    void
    free(uint64_t token) override
    {
        std::optional<telemetry::TraceSpan> span;
        if (traced_ && ++calls_ % kSpanSample == 0)
            span.emplace("hfree");
        inner_.free(token);
    }

    size_t rss() const override { return inner_.rss(); }
    size_t activeBytes() const override { return inner_.activeBytes(); }
    const char *name() const override { return inner_.name(); }

  private:
    AllocModel &inner_;
    bool traced_;
    uint64_t calls_ = 0;
};

/** malloc/free behind the AllocModel interface: the libc replay. */
class MallocModel : public AllocModel
{
  public:
    uint64_t
    alloc(size_t size) override
    {
        return reinterpret_cast<uint64_t>(std::malloc(size));
    }

    void free(uint64_t token) override { std::free(reinterpret_cast<void *>(token)); }
    size_t rss() const override { return 0; }
    size_t activeBytes() const override { return 0; }
    const char *name() const override { return "malloc"; }
};

/**
 * One trace: Figure 9's shape (sampled-LRU cache of ~500 B drifting
 * values, ~8.6x turnover of maxmemory) at 32 MiB, so that several
 * independent traces fit in one run and the run reports their medians.
 */
kv::CacheWorkloadConfig
traceConfig(const Options &opt, uint64_t trace_seed)
{
    kv::CacheWorkloadConfig c;
    c.maxMemory = opt.smoke ? 8u << 20 : 32u << 20;
    c.valueSize = 500;
    c.driftPeriod = opt.smoke ? 10000 : 32000;
    c.seed = trace_seed;
    return c;
}

uint64_t
totalInserts(const Options &opt)
{
    return opt.smoke ? 120000 : 480000;
}

/** One Anchorage episode's heap; member order is teardown order. */
struct Episode
{
    VirtualClock clock;
    RealAddressSpace space;
    anchorage::AnchorageAllocModel model;
    SpanModel spans;
    kv::CacheWorkload trace;
    bool drained = false;

    Episode(const Options &opt, anchorage::ControlParams control,
            uint64_t trace_seed)
        : model(space, clock, control), spans(model, opt.traced),
          trace(spans, traceConfig(opt, trace_seed))
    {
    }

    // CacheWorkload leaves its records to its owner.
    ~Episode() { drain(); }

    /** Free every record (once: drain() frees the bucket array). */
    void
    drain()
    {
        if (!drained)
            trace.drain();
        drained = true;
    }

    /** Advance virtual time one tick and let the controller act. */
    void
    tick()
    {
        clock.advance(kTickSec);
        model.maintain();
    }

    /** Set-up: insert until the cache first evicts (the fill). */
    void
    fill()
    {
        uint64_t n = 0;
        while (trace.evictions() == 0) {
            trace.insertOne();
            if (++n % kTickInserts == 0)
                tick();
        }
    }
};

} // namespace

RunResult
runCacheChurn(const Options &opt)
{
    RunResult out;
    anchorage::ControlParams control;
    control.useModeledTime = true;

    // Independent traces until the time is up; the CPU-time figures
    // pool all of them, the others are medians over the traces.
    const uint64_t deadline = nowNs() + static_cast<uint64_t>(opt.seconds * 1e9);
    std::vector<double> setups, setup_refs, ops_rates, rss_mb, peak_mb,
        rss_live, p50s, p99s, p999s, p50_ratios, p99_ratios, evictions;
    // CPU time over all traces: a trace runs one or two defrag passes
    // (its seed decides), so a per-trace median of the defrag cost
    // would flip between the two.
    uint64_t all_inserts = 0, all_mutator = 0, all_maintain = 0,
             all_libc = 0, all_ref = 0, all_ref_steps = 0;
    RefLoop ref(opt.seed);
    DefragSummary defrag;
    int traces = 0;
    uint64_t samples = 0;
    for (bool last = false; !last; traces++) {
        const uint64_t trace_seed = opt.seed * 1000003 + traces;
        const uint64_t trace0 = nowNs();
        // Set-up: heap, runtime, controller, and the cache fill, each
        // followed by the set-up reference.
        std::unique_ptr<Episode> ep;
        for (int r = 0; r < (traces == 0 ? opt.setupReps : 1); r++) {
            ep.reset();
            const uint64_t t0 = nowNs();
            ep = std::make_unique<Episode>(opt, control, trace_seed);
            ep->fill();
            setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
            setup_refs.push_back(setupReferenceSec(trace_seed + r));
        }
        const uint64_t inserts = totalInserts(opt) - ep->trace.insertions();

        // The same trace on malloc/free, filled the same way.
        MallocModel malloc_model;
        kv::CacheWorkload libc_trace(malloc_model,
                                     traceConfig(opt, trace_seed));
        while (libc_trace.evictions() == 0)
            libc_trace.insertOne();

        // Timed churn, alternating blocks of the two traces so host
        // drift cancels from their ratio. Each side is timed in the
        // thread's CPU time, read at the edges of every block and
        // around every controller tick. Each insert is also one wall
        // latency sample; a tick's maintain() (and any barrier in it)
        // is charged to the insert the controller interrupted.
        uint64_t wall_ns = 0, mutator_cpu = 0, maintain_cpu = 0,
                 pause_ns = 0, libc_cpu = 0, ref_cpu = 0, ref_steps = 0;
        uint64_t rss_samples = 0, rss_below_active = 0;
        size_t peak_rss = ep->model.rss();
        double rss_sum = 0;
        LatencyDigest latency, libc_latency;
        auto anchorage_block = [&](uint64_t first, uint64_t n) {
            const uint64_t w0 = nowNs();
            uint64_t stretch0 = threadCpuNs();
            for (uint64_t i = first; i < first + n; i++) {
                const uint64_t a = nowNs();
                ep->trace.insertOne();
                const uint64_t b = nowNs();
                uint64_t lat = b - a;
                if (i % kTickInserts == 0) {
                    const uint64_t m0 = threadCpuNs();
                    mutator_cpu += m0 - stretch0;
                    {
                        telemetry::TraceSpan span("maintain");
                        ep->tick();
                    }
                    maintain_cpu += threadCpuNs() - m0;
                    const uint64_t c = nowNs();
                    lat += c - b;
                    const anchorage::ControlAction &act =
                        ep->model.lastAction();
                    if (act.defragged)
                        defrag.stats.accumulate(act.stats);
                    if (act.stats.barriers > 0)
                        pause_ns += c - b;
                    const size_t rss = ep->model.rss();
                    peak_rss = std::max(peak_rss, rss);
                    rss_sum += static_cast<double>(rss);
                    rss_samples++;
                    const size_t active =
                        opt.corrupt == "rss" && i == kTickInserts
                            ? rss + 1
                            : ep->model.activeBytes();
                    if (rss < active)
                        rss_below_active++;
                    stretch0 = threadCpuNs();
                }
                latency.add(lat);
            }
            mutator_cpu += threadCpuNs() - stretch0;
            wall_ns += nowNs() - w0;
        };
        auto libc_block = [&](uint64_t n) {
            const uint64_t c0 = threadCpuNs();
            for (uint64_t i = 0; i < n; i++) {
                const uint64_t a = nowNs();
                libc_trace.insertOne();
                libc_latency.add(nowNs() - a);
            }
            libc_cpu += threadCpuNs() - c0;
        };
        telemetry::traceInstant("phase_begin");
        for (uint64_t done = 0, block = 0; done < inserts; block++) {
            const uint64_t n = std::min(kBlockInserts, inserts - done);
            if (block % 2 == 0) {
                anchorage_block(done + 1, n);
                libc_block(n);
            } else {
                libc_block(n);
                anchorage_block(done + 1, n);
            }
            const uint64_t r0 = threadCpuNs();
            volatile uint64_t keep = ref.run(kBlockRefSteps);
            (void)keep;
            ref_cpu += threadCpuNs() - r0;
            ref_steps += kBlockRefSteps;
            done += n;
        }
        telemetry::traceInstant("phase_end");
        out.attempted += inserts + rss_samples;
        if (rss_below_active)
            out.fail(rss_below_active,
                     "cache-churn: RSS below active bytes at " +
                         std::to_string(rss_below_active) + " samples");
        if (opt.corrupt == "replay")
            libc_trace.insertOne();
        out.attempted++;
        if (libc_trace.evictions() != ep->trace.evictions() ||
            libc_trace.usedMemory() != ep->trace.usedMemory())
            out.fail(1, "cache-churn: the malloc replay diverged from the "
                        "Anchorage trace");
        libc_trace.drain();

        const double rss = rss_sum / static_cast<double>(rss_samples);
        ops_rates.push_back(static_cast<double>(inserts) /
                            (static_cast<double>(wall_ns) * 1e-9));
        all_inserts += inserts;
        all_mutator += mutator_cpu;
        all_maintain += maintain_cpu;
        all_libc += libc_cpu;
        all_ref += ref_cpu;
        all_ref_steps += ref_steps;
        rss_mb.push_back(rss / 1e6);
        peak_mb.push_back(static_cast<double>(peak_rss) / 1e6);
        rss_live.push_back(
            ratio(rss, static_cast<double>(ep->trace.usedMemory())));
        samples += latency.count();
        const Latency lat = latencyOf(latency);
        const Latency libc_lat = latencyOf(libc_latency);
        p50s.push_back(lat.p50);
        p99s.push_back(lat.p99);
        p999s.push_back(lat.p999);
        p50_ratios.push_back(ratio(lat.p50, libc_lat.p50));
        p99_ratios.push_back(ratio(lat.p99, libc_lat.p99));
        evictions.push_back(static_cast<double>(ep->trace.evictions()));
        defrag.wallSec += static_cast<double>(wall_ns) * 1e-9;
        defrag.busySec += static_cast<double>(maintain_cpu) * 1e-9;
        defrag.pauseSec += static_cast<double>(pause_ns) * 1e-9;
        defrag.passes += ep->model.controller().passes();
        defrag.barriers += ep->model.controller().barriers();

        // Stop once another trace would overrun the time budget; the
        // last one's live heap carries the layer ladder.
        last = 2 * nowNs() - trace0 > deadline;
        if (last) {
            addHeapMetrics(ep->model.service(), out.layer);
            LadderInputs ladder;
            ladder.runtime = &ep->model.runtime();
            ladder.sizeMix = {48, 16 + 9, 500 + 9};
            ladder.seed = opt.seed;
            ladder.p50Us = summarize(p50s).median;
            runLadder(ladder, out.layer);
        }

        // Teardown check: every handle freed once the cache drains.
        std::optional<uint64_t> leak;
        if (opt.corrupt == "teardown")
            leak = ep->model.alloc(64);
        ep->drain();
        out.attempted++;
        if (ep->model.activeBytes() != 0)
            out.fail(1, "cache-churn: " +
                            std::to_string(ep->model.activeBytes()) +
                            " active bytes left after teardown");
        if (leak)
            ep->model.free(*leak);
    }
    put(out.e2e, "setup_s", normalizedSetupSec(setups, setup_refs), "s");
    put(out.layer, "op.ops_per_s", summarize(ops_rates).median, "ops/s");
    const double mutator = static_cast<double>(all_mutator);
    const double libc = static_cast<double>(all_libc);
    const double ref_step = ratio(static_cast<double>(all_ref),
                                  static_cast<double>(all_ref_steps));
    put(out.e2e, "overhead_vs_libc", ratio(mutator, libc), "x");
    put(out.e2e, "cost_vs_ref",
        ratio(mutator / static_cast<double>(all_inserts), ref_step), "x");
    put(out.e2e, "cpu_vs_libc",
        ratio(mutator + static_cast<double>(all_maintain), libc), "x");
    put(out.e2e, "rss_mb", summarize(rss_mb).median, "MB");
    put(out.e2e, "peak_rss_mb", summarize(peak_mb).median, "MB");
    put(out.e2e, "rss_per_live", summarize(rss_live).median, "x");
    addLatencyMetrics(summarize(p50_ratios).median,
                      summarize(p99_ratios).median,
                      Latency{summarize(p50s).median, summarize(p99s).median,
                              summarize(p999s).median},
                      out);
    put(out.layer, "host.ref_step_ns", ref_step, "ns");
    put(out.layer, "op.samples", static_cast<double>(samples), "count");
    put(out.layer, "kv.evictions", summarize(evictions).median, "count");
    // Defrag totals per trace, so runs with different trace counts
    // compare.
    defrag.stats.movedBytes /= static_cast<size_t>(traces);
    defrag.stats.reclaimedBytes /= static_cast<size_t>(traces);
    defrag.stats.bytesRecovered /= static_cast<size_t>(traces);
    defrag.stats.noSpace /= static_cast<size_t>(traces);
    defrag.passes /= static_cast<size_t>(traces);
    defrag.barriers /= static_cast<size_t>(traces);
    addDefragMetrics(defrag, out.layer);
    std::fprintf(stderr, "cache-churn: %d traces\n", traces);
    return out;
}

} // namespace perfbench
