/**
 * @file
 * The benchmark's host-speed probe, as a process of its own.
 *
 *   agentbench_probe
 *
 * A fixed piece of work that runs none of the simulator's code: hash
 * table, tree and vector churn over a few MB, the operation mix of the
 * simulator's hot path. It prints the seconds the work took and its own
 * peak resident memory in MiB:
 *
 *   {"probe_s": 0.0987, "peak_rss_mb": 13.2}
 *
 * agentbench_workload starts it just before each timed call and scales
 * the call by it. It is a separate executable that does not link the
 * simulator, so a change to src/ (its allocator, its flags) cannot
 * speed up or slow down the probe, and the probe's memory never counts
 * toward the workload's peak.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <vector>

namespace
{

/** Keeps the work observable so it cannot be optimised away. */
volatile std::uint64_t sink = 0;

void
work()
{
    std::unordered_map<std::uint64_t, int> table;
    std::map<std::uint64_t, int> tree;
    std::vector<std::uint64_t> keys;
    std::uint64_t x = 88172645463325252ull; // xorshift64 state
    std::uint64_t acc = 0;
    for (int i = 0; i < 300000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys.push_back(x);
        table[x % 200000] = i;
        if (i % 4 == 0)
            tree[x % 50000] = i;
        acc += table.count((x >> 3) % 200000);
        if (i % 7 == 0)
            table.erase((x >> 5) % 200000);
    }
    for (std::uint64_t k : keys)
        acc += k & 1;
    sink = acc + tree.size();
}

} // namespace

int
main()
{
    const auto t0 = std::chrono::steady_clock::now();
    work();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"probe_s\": %.9g, \"peak_rss_mb\": %.6g}\n", seconds,
                static_cast<double>(ru.ru_maxrss) / 1024.0);
    return 0;
}
