/**
 * @file
 * Tests of the benchmark's own helpers: the ratio, the byte hash behind
 * the output checks, and the host-normalised set-up time. (Percentiles
 * and medians come from base/stats.h, which the library's tests
 * cover.) Prints one line per failed expectation and exits non-zero if
 * any failed.
 */

#include <cstdio>
#include <vector>

#include "bench.h"

namespace
{

int gFailures = 0;

void
expectEq(double got, double want, const char *what)
{
    if (got != want) {
        std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
        gFailures++;
    }
}

} // namespace

int
main()
{
    using namespace perfbench;

    expectEq(ratio(3, 2), 1.5, "ratio");
    expectEq(ratio(3, 0), 0, "ratio with zero base");
    expectEq(ratio(3, -1), 0, "ratio with negative base");
    expectEq(static_cast<double>(hashBytes("abc", 3) == hashBytes("abc", 3)),
             1, "hash is deterministic");
    expectEq(static_cast<double>(hashBytes("abc", 3) == hashBytes("abd", 3)),
             0, "hash sees a changed byte");
    {
        // A set-up that takes twice the reference's time reads the
        // same whatever the host's speed: 2 x the nominal reference.
        const double fast = normalizedSetupSec({0.2, 0.4, 0.3},
                                               {0.1, 0.2, 0.15});
        const double slow = normalizedSetupSec({0.6, 1.2, 0.9},
                                               {0.3, 0.6, 0.45});
        expectEq(fast, slow, "normalised set-up ignores host speed");
        expectEq(normalizedSetupSec({0.2}, {0.1}) /
                     normalizedSetupSec({0.1}, {0.1}),
                 2, "normalised set-up scales with set-up time");
        // The median of the per-set-up ratios: one slow outlier does
        // not move it.
        expectEq(normalizedSetupSec({0.2, 0.2, 5.0}, {0.1, 0.1, 0.1}),
                 normalizedSetupSec({0.2}, {0.1}),
                 "normalised set-up is a median");
    }

    std::printf("%s: %d failure(s)\n", gFailures ? "FAILED" : "ok",
                gFailures);
    return gFailures ? 1 : 0;
}
