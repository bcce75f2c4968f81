/**
 * @file
 * The benchmark binary: runs one workload and prints its metrics as
 * one JSON line prefixed with "PERFBENCH_RESULT ". perfbench/run.py
 * builds it, runs it, adds the trace self-time metrics and prints the
 * final result.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-file PATH] [--smoke] [--corrupt CHECK]
 *
 * --trace 0 runs the workload untraced for S seconds and reports its
 * end-to-end metrics. --trace 1 runs it untraced for S/2 seconds, then
 * with tracing on for S/2 seconds, writes the trace to PATH and
 * reports the traced run's per-layer metrics plus trace.overhead_frac,
 * the traced run's slowdown against the untraced one. --corrupt feeds
 * a wrong value to the named output check (get, content, rss, replay,
 * teardown), which must then fail (the benchmark's own tests use it).
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "telemetry/trace.h"

namespace
{

using namespace perfbench;

/**
 * Pin the process (this thread and every thread it creates later) to
 * the last CPU it may run on. The host's vCPUs deliver anywhere from
 * one to four cores of aggregate throughput from one hour to the next;
 * on one CPU the client and the defrag daemon always interleave the
 * same way, whatever the host does.
 */
void
pinToOneCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return;
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
        if (CPU_ISSET(cpu, &set))
            last = cpu;
    if (last < 0)
        return;
    CPU_ZERO(&set);
    CPU_SET(last, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0)
        std::fprintf(stderr, "could not pin to cpu %d\n", last);
}

void
printMetrics(const Metrics &metrics)
{
    std::printf("{");
    bool first = true;
    for (const auto &[name, m] : metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
        first = false;
    }
    std::printf("}");
}

RunResult
runWorkload(const Options &opt)
{
    if (opt.workload == "kv-read")
        return runKvRead(opt);
    if (opt.workload == "cache-churn")
        return runCacheChurn(opt);
    return runKvDefrag(opt);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload kv-read|kv-defrag|cache-churn "
                 "--seed N --seconds S --trace 0|1 [--trace-file PATH] "
                 "[--smoke] [--corrupt CHECK]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    int trace = 0;
    std::string trace_file = "perfbench-trace.json";
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--workload" && has_value) {
            opt.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            opt.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && has_value) {
            trace = std::atoi(argv[++i]);
        } else if (arg == "--trace-file" && has_value) {
            trace_file = argv[++i];
        } else if (arg == "--corrupt" && has_value) {
            opt.corrupt = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }
    if (opt.workload != "kv-read" && opt.workload != "kv-defrag" &&
        opt.workload != "cache-churn")
        return usage(argv[0]);
    if (opt.seconds <= 0 || (trace != 0 && trace != 1))
        return usage(argv[0]);
    const std::string checks[] = {"", "get", "content", "rss", "replay",
                                  "teardown"};
    if (std::find(std::begin(checks), std::end(checks), opt.corrupt) ==
        std::end(checks))
        return usage(argv[0]);

    Metrics host;
    calibrateHost(host);
    pinToOneCpu();

    RunResult result;
    Metrics metrics;
    if (trace == 0) {
        result = runWorkload(opt);
        metrics = result.e2e;
    } else {
        Options half = opt;
        half.seconds = opt.seconds / 2;
        half.setupReps = 1;
        const RunResult plain = runWorkload(half);
        half.traced = true;
        alaska::telemetry::enableTracing(1 << 18);
        result = runWorkload(half);
        alaska::telemetry::disableTracing();
        if (!alaska::telemetry::dumpTrace(trace_file.c_str())) {
            std::fprintf(stderr, "cannot write trace to %s\n",
                         trace_file.c_str());
            return 1;
        }
        metrics = result.layer;
        metrics.insert(host.begin(), host.end());
        // Slowdown of the traced run against the untraced one.
        put(metrics, "trace.overhead_frac",
            ratio(plain.layer.at("op.ops_per_s").value,
                  result.layer.at("op.ops_per_s").value) -
                1,
            "fraction");
        result.attempted += plain.attempted;
        result.failed += plain.failed;
        result.problems.insert(result.problems.end(), plain.problems.begin(),
                               plain.problems.end());
    }

    for (const auto &[name, m] : host)
        std::fprintf(stderr, "host %s = %.4g %s\n", name.c_str(), m.value,
                     m.unit.c_str());
    for (const std::string &p : result.problems)
        std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
    std::printf("PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": ",
                result.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    printMetrics(metrics);
    std::printf("}\n");
    return result.failed == 0 ? 0 : 1;
}
