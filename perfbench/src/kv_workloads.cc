/**
 * @file
 * The two closed-loop key-value workloads. One client thread runs a
 * YCSB mix on MiniKv<AlaskaAlloc> over an Anchorage heap, and the same
 * op stream is replayed on MiniKv<LibcAlloc> in the same process,
 * alternating which side runs first each round; a fixed reference job
 * (RefLoop) runs after both. Each side is timed in the client thread's
 * own CPU time. Every get's value is hashed on both sides and the
 * hashes must agree; after the run both stores must hold the same
 * records.
 *
 *  - kv-read: YCSB-B (95% get, 5% set) over every record, no defrag:
 *    translation stays Direct.
 *  - kv-defrag: the same mix over the odd records of a heap whose even
 *    records were deleted, while a ConcurrentRelocDaemon in Concurrent
 *    mode (default ControlParams) compacts it: every op runs under the
 *    Scoped discipline, sets beside live campaigns and their grace
 *    periods. Only fragmentation and the daemon differ from kv-read.
 *    The daemon runs only while the Alaska side replays: it is started
 *    before and stopped after that side's round, so on the one CPU the
 *    process is pinned to its time slices never land in the libc
 *    replay or the reference job. (Under YCSB-A's 50% sets the daemon's
 *    convergence time, and with it the run's RSS, varied 14% between
 *    runs.)
 */

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "anchorage/control.h"
#include "base/rng.h"
#include "bench.h"
#include "core/runtime.h"
#include "services/concurrent_reloc_daemon.h"
#include "sim/address_space.h"
#include "telemetry/trace.h"
#include "ycsb/ycsb.h"

namespace perfbench
{

using namespace alaska;

namespace
{

constexpr size_t kValueSize = 300;
/** Ops per round; each round runs on both stores. */
constexpr size_t kRoundOps = 50000;
/** Steps of the reference job per round. */
constexpr uint64_t kRoundRefSteps = 50000;
/** One op in this many is timed on its own for the latency samples. */
constexpr size_t kLatencyEvery = 4;
/** Hash standing for "get missed". */
constexpr uint64_t kMissHash = 0x6d15;

/** What distinguishes the two workloads. */
struct Profile
{
    ycsb::WorkloadKind mix;
    /** Delete the even records after loading, and run the daemon. */
    bool defrag;
};

/** Both stores over the same records; member order is teardown order. */
struct KvState
{
    RealAddressSpace space;
    anchorage::AnchorageService service{space};
    std::unique_ptr<Runtime> runtime;
    std::unique_ptr<ThreadRegistration> registration;
    std::unique_ptr<kv::AlaskaAlloc> alloc;
    std::unique_ptr<AlaskaKv> store;
    kv::LibcAlloc libc;
    std::unique_ptr<kv::MiniKv<kv::LibcAlloc>> libcStore;

    KvState(uint64_t records, bool fragment)
    {
        runtime = std::make_unique<Runtime>();
        runtime->attachService(&service);
        registration = std::make_unique<ThreadRegistration>(*runtime);
        alloc = std::make_unique<kv::AlaskaAlloc>(*runtime);
        store = std::make_unique<AlaskaKv>(*alloc);
        libcStore = std::make_unique<kv::MiniKv<kv::LibcAlloc>>(libc);
        const ycsb::Workload values(ycsb::WorkloadKind::A, records, 1,
                                    kValueSize);
        for (uint64_t id = 0; id < records; id++) {
            const std::string key = ycsb::Workload::keyFor(id);
            const std::string value = values.valueFor(id);
            store->set(key, value);
            libcStore->set(key, value);
        }
        // Half of every sub-heap becomes holes for defrag to reclaim.
        for (uint64_t id = 0; fragment && id < records; id += 2) {
            const std::string key = ycsb::Workload::keyFor(id);
            store->del(key);
            libcStore->del(key);
        }
    }

    ~KvState()
    {
        {
            access_scope scope;
            store.reset();
        }
        libcStore.reset();
        registration.reset();
        runtime.reset();
    }
};

/** One pre-generated op: key, and for a set the value it writes. */
struct Op
{
    bool set = false;
    std::string key;
    std::string value;
};

/** Wall and client-thread CPU time of one side's round. */
struct Elapsed
{
    uint64_t wallNs = 0;
    uint64_t cpuNs = 0;
};

/**
 * Run one round of ops on a store, timing every kLatencyEvery-th op
 * (wall clock) into @p latency and recording the hash of each get's
 * value. @p corrupt flips a byte of the first get's value.
 */
template <typename Store>
Elapsed
replay(Store &store, const std::vector<Op> &ops, std::vector<uint64_t> &hashes,
       LatencyDigest &latency, bool traced, bool corrupt)
{
    const uint64_t w0 = nowNs(), c0 = threadCpuNs();
    for (size_t i = 0; i < ops.size(); i++) {
        const Op &op = ops[i];
        const bool timed = i % kLatencyEvery == 0;
        const uint64_t a = timed ? nowNs() : 0;
        {
            std::optional<telemetry::TraceSpan> span;
            if (traced && i % kSpanSample == 0)
                span.emplace("kv_op");
            access_scope scope;
            if (op.set) {
                store.set(op.key, op.value);
                hashes[i] = 0;
            } else {
                std::optional<std::string> v = store.get(op.key);
                if (v && corrupt) {
                    (*v)[0] ^= 1; // the first get only
                    corrupt = false;
                }
                hashes[i] = v ? hashBytes(v->data(), v->size()) : kMissHash;
            }
        }
        if (timed)
            latency.add(nowNs() - a);
    }
    return Elapsed{nowNs() - w0, threadCpuNs() - c0};
}

RunResult
runKv(const Options &opt, const Profile &profile)
{
    RunResult out;
    const uint64_t records = opt.smoke ? 20000 : 200000;

    // Set-up: runtime, Anchorage heap and both stores, several times,
    // each followed by the set-up reference.
    std::vector<double> setups, setup_refs;
    std::unique_ptr<KvState> st;
    for (int r = 0; r < opt.setupReps; r++) {
        st.reset();
        const uint64_t t0 = nowNs();
        st = std::make_unique<KvState>(records, profile.defrag);
        setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        setup_refs.push_back(setupReferenceSec(opt.seed + r));
    }
    put(out.e2e, "setup_s", normalizedSetupSec(setups, setup_refs), "s");
    RefLoop ref(opt.seed);

    // The daemon declares the Scoped discipline for its whole life, so
    // it outlives every access to the stores below.
    std::optional<ConcurrentRelocDaemon> daemon;
    if (profile.defrag) {
        anchorage::ControlParams params;
        params.mode = anchorage::DefragMode::Concurrent;
        daemon.emplace(*st->runtime, st->service, params);
    }

    // Traffic: every record, or only the surviving odd ones.
    const uint64_t keyspace = profile.defrag ? records / 2 : records;
    ycsb::Workload mix(profile.mix, keyspace, opt.seed, kValueSize);
    std::vector<Op> ops(kRoundOps);
    std::vector<uint64_t> alaska_hash(kRoundOps), libc_hash(kRoundOps);
    LatencyDigest latency;
    std::vector<double> round_ratio, round_rate, round_cost, ref_step_ns,
        p50_ratio, p99_ratio;
    uint64_t total_ops = 0, version = 0, alaska_cpu = 0, libc_cpu = 0;
    size_t peak_rss = st->service.rss();
    double rss_sum = 0;
    const uint64_t deadline = nowNs() + static_cast<uint64_t>(opt.seconds * 1e9);
    telemetry::traceInstant("phase_begin");
    const uint64_t phase0 = nowNs();
    const uint64_t process_cpu0 = processCpuNs(), client_cpu0 = threadCpuNs();
    for (int round = 0; nowNs() < deadline || round < 2; round++) {
        for (Op &op : ops) {
            const ycsb::Request req = mix.next();
            const uint64_t id = profile.defrag ? 2 * req.key + 1 : req.key;
            op.set = req.op != ycsb::OpType::Read;
            op.key = ycsb::Workload::keyFor(id);
            if (op.set) {
                // Each set writes a fresh version, so a lost or
                // misplaced write shows in later gets on one side only.
                op.value = mix.valueFor(id);
                version++;
                std::memcpy(op.value.data(), &version, sizeof(version));
            }
        }
        const bool corrupt = round == 0 && opt.corrupt == "get";
        LatencyDigest a_lat, l_lat;
        // The daemon runs for the Alaska side's round only, inside one
        // trace window per round.
        auto alaska_side = [&] {
            std::optional<telemetry::TraceSpan> window;
            if (daemon && opt.traced)
                window.emplace("daemon_window");
            if (daemon)
                daemon->start();
            const Elapsed e = replay(*st->store, ops, alaska_hash, a_lat,
                                     opt.traced, corrupt);
            if (daemon)
                daemon->stop();
            return e;
        };
        auto libc_side = [&] {
            return replay(*st->libcStore, ops, libc_hash, l_lat, false, false);
        };
        Elapsed a, l;
        if (round % 2 == 0) {
            a = alaska_side();
            l = libc_side();
        } else {
            l = libc_side();
            a = alaska_side();
        }
        const uint64_t r0 = threadCpuNs();
        volatile uint64_t keep = ref.run(kRoundRefSteps);
        (void)keep;
        ref_step_ns.push_back(static_cast<double>(threadCpuNs() - r0) /
                              static_cast<double>(kRoundRefSteps));

        total_ops += ops.size();
        alaska_cpu += a.cpuNs;
        libc_cpu += l.cpuNs;
        const double n = static_cast<double>(ops.size());
        round_rate.push_back(n / (static_cast<double>(a.wallNs) * 1e-9));
        round_ratio.push_back(ratio(static_cast<double>(a.cpuNs),
                                    static_cast<double>(l.cpuNs)));
        round_cost.push_back(
            ratio(static_cast<double>(a.cpuNs) / n, ref_step_ns.back()));
        // Latency ratios per round too: both sides' samples then come
        // from the same fraction of a second.
        const Latency a_pct = latencyOf(a_lat), l_pct = latencyOf(l_lat);
        p50_ratio.push_back(ratio(a_pct.p50, l_pct.p50));
        p99_ratio.push_back(ratio(a_pct.p99, l_pct.p99));
        latency.merge(a_lat);
        uint64_t wrong = 0;
        for (size_t i = 0; i < ops.size(); i++)
            if (alaska_hash[i] != libc_hash[i] || alaska_hash[i] == kMissHash)
                wrong++;
        if (wrong)
            out.fail(wrong, "gets differ from the libc replay or missed: " +
                                std::to_string(wrong) + " in round " +
                                std::to_string(round));
        const size_t rss = st->service.rss();
        peak_rss = std::max(peak_rss, rss);
        rss_sum += static_cast<double>(rss);
    }
    if (daemon)
        daemon->stop();
    // Every thread but the client is the daemon's (the calibration
    // threads have exited, the ladder's server is not up yet).
    const uint64_t client_cpu = threadCpuNs() - client_cpu0;
    const uint64_t process_cpu = processCpuNs() - process_cpu0;
    const double daemon_sec =
        daemon && process_cpu > client_cpu
            ? static_cast<double>(process_cpu - client_cpu) * 1e-9
            : 0;
    const double phase_sec = static_cast<double>(nowNs() - phase0) * 1e-9;
    telemetry::traceInstant("phase_end");
    out.attempted = total_ops;

    const double rss = rss_sum / static_cast<double>(round_rate.size());
    const double live = static_cast<double>(st->store->usedMemory());

    // Both stores must hold the same records: every surviving id with
    // the same value, every deleted id absent.
    if (opt.corrupt == "content") {
        access_scope scope;
        st->store->set(ycsb::Workload::keyFor(1), "x");
    }
    uint64_t bad = 0;
    for (uint64_t id = 0; id < records; id++) {
        const std::string key = ycsb::Workload::keyFor(id);
        std::optional<std::string> a;
        {
            access_scope scope;
            a = st->store->get(key);
        }
        const std::optional<std::string> l = st->libcStore->get(key);
        const bool should_exist = !profile.defrag || id % 2 == 1;
        if (a != l || a.has_value() != should_exist)
            bad++;
    }
    out.attempted += records;
    if (bad)
        out.fail(bad, std::to_string(bad) +
                          " records differ between the stores after the run");

    put(out.layer, "op.ops_per_s", summarize(round_rate).median, "ops/s");
    put(out.e2e, "overhead_vs_libc", summarize(round_ratio).median, "x");
    put(out.e2e, "cost_vs_ref", summarize(round_cost).median, "x");
    // The daemon's CPU time counts against Alaska too.
    put(out.e2e, "cpu_vs_libc",
        ratio(static_cast<double>(alaska_cpu) * 1e-9 + daemon_sec,
              static_cast<double>(libc_cpu) * 1e-9),
        "x");
    put(out.e2e, "rss_mb", rss / 1e6, "MB");
    put(out.e2e, "peak_rss_mb", static_cast<double>(peak_rss) / 1e6, "MB");
    put(out.e2e, "rss_per_live", ratio(rss, live), "x");
    const Latency alaska_lat = latencyOf(latency);
    addLatencyMetrics(summarize(p50_ratio).median,
                      summarize(p99_ratio).median, alaska_lat, out);
    put(out.layer, "host.ref_step_ns", summarize(ref_step_ns).median, "ns");
    put(out.layer, "op.samples", static_cast<double>(latency.count()),
        "count");

    put(out.layer, "kv.evictions",
        static_cast<double>(st->store->stats().evictions), "count");
    DefragSummary defrag;
    defrag.wallSec = phase_sec;
    if (daemon) {
        defrag.stats = daemon->totals();
        defrag.busySec = daemon_sec;
        defrag.pauseSec = daemon->totalPauseSec();
        defrag.passes = daemon->passes();
        defrag.barriers = daemon->barriers();
    }
    addDefragMetrics(defrag, out.layer);
    addHeapMetrics(st->service, out.layer);

    LadderInputs ladder;
    ladder.runtime = st->runtime.get();
    ladder.sizeMix = {sizeof(kv::DictEntry), kv::sdsAllocSize(15),
                      kv::sdsAllocSize(kValueSize)};
    ladder.p50Us = alaska_lat.p50;
    ladder.seed = opt.seed;
    Rng pick(opt.seed ^ 0x5eed);
    for (int i = 0; i < 4096; i++) {
        const uint64_t id = pick.below(keyspace);
        const std::string key =
            ycsb::Workload::keyFor(profile.defrag ? 2 * id + 1 : id);
        access_scope scope;
        std::optional<std::string> v = st->store->get(key);
        ladder.kvSample.push_back(
            KvRecord{st->store.get(), key, v ? *v : std::string()});
    }
    runLadder(ladder, out.layer);
    return out;
}

} // namespace

RunResult
runKvRead(const Options &opt)
{
    return runKv(opt, Profile{ycsb::WorkloadKind::B, false});
}

RunResult
runKvDefrag(const Options &opt)
{
    return runKv(opt, Profile{ycsb::WorkloadKind::B, true});
}

} // namespace perfbench
