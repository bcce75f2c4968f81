/**
 * @file
 * Shared pieces of the repository benchmark: run options, the metric
 * sink, the clocks, the reference job, and the entry points of the
 * three workloads, the layer ladder and the host calibration.
 *
 * The benchmark drives the library only through its public headers;
 * see perfbench/BENCH.md for what each workload is for and which
 * end-to-end metric each per-layer metric should move.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "base/stats.h"
#include "kv/alloc_policy.h"
#include "kv/minikv.h"

namespace perfbench
{

/** What one invocation of the benchmark binary should do. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the timed phase, seconds. */
    double seconds = 10;
    /** Times the set-up is repeated; setup_s is their median. */
    int setupReps = 3;
    /** Record TraceSpans around the calls into each layer. */
    bool traced = false;
    /** Small sizes for the benchmark's own tests. */
    bool smoke = false;
    /** Name of the correctness check to feed a wrong value ("" = none). */
    std::string corrupt;
};

/** A named value with its unit; names are unique within a sink. */
struct Metric
{
    double value = 0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** What one workload run produced. */
struct RunResult
{
    /** End-to-end metrics (user-visible). */
    Metrics e2e;
    /** Per-layer metrics (ladder rungs, counters, layer stats). */
    Metrics layer;
    /** Operations and output checks attempted / failed. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** One line per failed check, for the log. */
    std::vector<std::string> problems;

    void
    fail(uint64_t count, const std::string &why)
    {
        failed += count;
        problems.push_back(why);
    }
};

/** Nanoseconds on the steady clock. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** CPU time of the calling thread, ns (a system call: ~0.3 us). */
uint64_t threadCpuNs();

/** CPU time of every thread of the process, exited ones too, ns. */
uint64_t processCpuNs();

/** num / den, or 0 when the base is not positive (no base, no ratio). */
inline double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** 64-bit mix of a byte string (word-wise; cheap next to a kv op). */
uint64_t hashBytes(const void *data, size_t len);

// --- shared measurement pieces -------------------------------------------

/** The handle-based store every workload's kv layer runs on. */
using AlaskaKv = alaska::kv::MiniKv<alaska::kv::AlaskaAlloc>;

/** One live record the kv rung reads and rewrites in place. */
struct KvRecord
{
    AlaskaKv *store = nullptr;
    std::string key;
    /** The value the record holds; the set rung writes it back. */
    std::string value;
};

/** Inputs of the layer ladder, all on the workload's own live heap. */
struct LadderInputs
{
    alaska::Runtime *runtime = nullptr;
    /** Allocation sizes of the workload, cycled by the halloc rung. */
    std::vector<size_t> sizeMix;
    /** Records of the workload's own store for the kv rung; empty
     *  means the rung runs on the ladder's own small server. */
    std::vector<KvRecord> kvSample;
    /** Median op latency of the workload, us (for op.p50_vs_kv_get). */
    double p50Us = 0;
    uint64_t seed = 1;
};

/**
 * The layer ladder: translate -> api::deref -> handle-ID alloc ->
 * halloc/hfree -> MiniKv get/set -> served request, plus an empty
 * stop-the-world barrier and a grace round trip, each in ns/op and as
 * a ratio to the rung below. Must run on a registered thread, with no
 * defrag running.
 */
void runLadder(const LadderInputs &in, Metrics &layer);

/** Host calibration: ALU scaling, copy bandwidth, timer cost. */
void calibrateHost(Metrics &layer);

/**
 * A fixed reference job that uses none of the library: hash 300 bytes
 * at a random 512-byte-aligned offset of a 64 MiB buffer, like a get
 * reading a value the cache does not hold. Workloads time it beside
 * their own ops, so a figure divided by it cancels the host's speed of
 * the moment but not a change in the library or the kv layer.
 */
class RefLoop
{
  public:
    /** Allocates and faults in the buffer. */
    explicit RefLoop(uint64_t seed);

    /** Run @p steps steps; returns a checksum of what was read. */
    uint64_t run(uint64_t steps);

  private:
    std::vector<unsigned char> buffer_;
    uint64_t state_;
};

/** Steps of the reference job timed after each set-up. */
constexpr uint64_t kSetupRefSteps = 200000;

/**
 * Wall seconds of the set-up reference: build a RefLoop (64 MiB of
 * fresh pages) and run kSetupRefSteps steps on it.
 */
double setupReferenceSec(uint64_t seed);

/**
 * setup_s: the median over set-ups of (set-up wall time ÷ the set-up
 * reference timed right after it), times kSetupRefNominalSec, the
 * reference's time on the host the bounds were set on (BENCH.md). It
 * reads as set-up seconds on that host, and a host that runs slower
 * for a while slows the reference alike and cancels out.
 */
double normalizedSetupSec(const std::vector<double> &setupSec,
                          const std::vector<double> &referenceSec);

/** Percentiles of one set of exact latency samples, in us. */
struct Latency
{
    double p50 = 0, p99 = 0, p999 = 0;
};

/** Percentiles of exact ns samples. */
Latency latencyOf(const alaska::LatencyDigest &samplesNs);

/**
 * The latency metrics of a run: the p99 of the Alaska side as a ratio
 * to the libc side of the same ops (end to end), and the p50 ratio and
 * the Alaska side's own percentiles (per layer). The p50 ratio is not
 * end to end: on kv-defrag it jumped from 1.4 to 1.7-2.2 in one run in
 * six, with the same seed and code.
 */
void addLatencyMetrics(double p50VsLibc, double p99VsLibc,
                       const Latency &alaska, RunResult &out);

/** What the defrag layer did over a timed phase of @p wallSec. */
struct DefragSummary
{
    alaska::anchorage::DefragStats stats;
    /** Time spent defragmenting (maintain() or daemon work), s. */
    double busySec = 0;
    /** Mutator-visible stop-the-world time, s. */
    double pauseSec = 0;
    size_t passes = 0;
    size_t barriers = 0;
    double wallSec = 0;
};

/** The anchorage.* and core.barrier/grace metrics of a timed phase. */
void addDefragMetrics(const DefragSummary &d, Metrics &layer);

/** The anchorage.frag_final/extent_mb/subheaps metrics of a heap. */
void addHeapMetrics(const alaska::anchorage::AnchorageService &service,
                    Metrics &layer);

/** Record a metric (overwrites). */
inline void
put(Metrics &m, const std::string &name, double value, const char *unit)
{
    m[name] = Metric{value, unit};
}

/** Trace sampling: one in this many ops gets a span in traced runs. */
constexpr uint64_t kSpanSample = 256;

// --- workloads -------------------------------------------------------------

RunResult runKvRead(const Options &opt);
RunResult runCacheChurn(const Options &opt);
RunResult runKvDefrag(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
