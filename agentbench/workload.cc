/**
 * @file
 * One benchmark workload in one single-threaded process.
 *
 *   agentbench_workload --workload NAME [--seed N] [--seconds S]
 *                       [--calls M] [--requests N] [--warmup N]
 *                       [--probe PATH] [--bare] [--setup-only]
 *                       [--incident-dir DIR]
 *
 * A workload's input is a fixed set of sub-inputs, each one timed call
 * into core (core::runServing or core::runCluster) at the workload's
 * request count, with its own seed derived from --seed. The process
 * sets up (configuration plus a short warm-up run that fills lazy
 * caches), makes one timed call per sub-input, then repeats calls in
 * the same order until S seconds have passed and every sub-input has
 * run at least twice. Every repeat must reproduce its first outcome
 * exactly. --calls M instead makes one call on each of the first M
 * sub-inputs and stops. --requests N overrides the workload's request
 * count, for short test runs.
 *
 * With --probe PATH, each host time is also reported scaled by the
 * speed probe (agentbench_probe at PATH) run just before it. The
 * process and the probes it starts run pinned to one CPU, so that the
 * probe measures the CPU the calls run on.
 *
 * It prints one JSON object on stdout: host timings, the simulated
 * outputs summed over the sub-inputs (read from the result structs),
 * one digest of simulated outputs per sub-input for comparison across
 * processes, and the outcome of every correctness check.
 * agentbench/run.py turns that into the benchmark's metrics.
 *
 * --bare detaches every observer from cluster_observed (the
 * observer-purity twin); --setup-only times one set-up and exits.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hh"
#include "core/probe.hh"
#include "core/serving_system.hh"
#include "sim/rng.hh"
#include "telemetry/session.hh"
#include "telemetry/slo.hh"

namespace
{

using namespace agentsim;
using Clock = std::chrono::steady_clock;

/** Taken during static initialisation, as close to process start as
 *  the program can observe. */
const Clock::time_point kProcessStart = Clock::now();

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 2026;
    double seconds = 12.0;
    int calls = 0;
    int requests = 0;
    int warmup = -1;
    bool bare = false;
    bool setupOnly = false;
    std::string probe;
    std::string incidentDir = "agentbench-incidents";
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "agentbench_workload: %s\n", msg.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::strtoull(value(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(value());
        else if (arg == "--calls")
            o.calls = std::atoi(value());
        else if (arg == "--requests")
            o.requests = std::atoi(value());
        else if (arg == "--warmup")
            o.warmup = std::atoi(value());
        else if (arg == "--incident-dir")
            o.incidentDir = value();
        else if (arg == "--probe")
            o.probe = value();
        else if (arg == "--bare")
            o.bare = true;
        else if (arg == "--setup-only")
            o.setupOnly = true;
        else
            usage("unknown argument " + arg);
    }
    return o;
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

struct Shape
{
    /** Requests per timed call. */
    int requests = 0;
    /** Sub-inputs (timed calls) in the workload's input set. */
    int subInputs = 0;
};

/** Sized so one pass over the sub-inputs takes 9-11 s on a 4-vCPU
 *  Xeon virtual machine, about half of the benchmark's 22 s, so every
 *  sub-input is timed at least twice. */
Shape
shapeOf(const std::string &name)
{
    if (name == "agent_react")
        return {4000, 6};
    if (name == "chat_short")
        return {25000, 5};
    if (name == "kv_pressure")
        return {1200, 4};
    if (name == "cluster_observed")
        return {1000, 4};
    return {};
}

/** Seed of the set-up run (not part of the measured input). */
constexpr std::uint64_t kWarmupSeed = 1;

/**
 * Seed of cluster_observed's node-crash schedules, the same for every
 * workload seed. Sub-input k crashes its nodes on the schedule drawn
 * from subSeed(kFaultSeed, k), so a run's crash count does not change
 * with --seed: it would otherwise dominate the spread of the simulated
 * tail latency from seed to seed.
 */
constexpr std::uint64_t kFaultSeed = 120;

std::uint64_t
subSeed(std::uint64_t seed, int sub_input)
{
    return sim::hashCombine(seed, static_cast<std::uint64_t>(sub_input));
}

core::ServeConfig
serveConfig(const std::string &name, int requests, std::uint64_t seed)
{
    core::ServeConfig cfg;
    cfg.engineConfig = core::enginePreset8b();
    cfg.numRequests = requests;
    cfg.seed = seed;
    cfg.agent = agents::AgentKind::ReAct;
    cfg.bench = workload::Benchmark::HotpotQA;
    if (name == "agent_react") {
        cfg.qps = 1.5;
    } else if (name == "chat_short") {
        cfg.chatbot = true;
        cfg.qps = 5.0;
    } else {
        // kv_pressure: the KV pool at 20% of the weights, spill tiers
        // sized as in fig17_kv_capacity (one weight-size of blocks in
        // DRAM, twice that on NVMe).
        const auto &model = cfg.engineConfig.model;
        const std::int64_t block_bytes = 16 * model.kvBytesPerToken();
        const std::int64_t dram_blocks = model.weightBytes() / block_bytes;
        cfg.qps = 1.0;
        cfg.engineConfig.kvPoolBytes = static_cast<std::int64_t>(
            0.2 * static_cast<double>(model.weightBytes()));
        cfg.engineConfig.hostCacheBlocks = dram_blocks;
        cfg.engineConfig.nvmeCacheBlocks = 2 * dram_blocks;
    }
    return cfg;
}

core::ClusterConfig
clusterConfig(int requests, std::uint64_t seed, std::uint64_t fault_seed)
{
    core::ClusterConfig cfg;
    cfg.numNodes = 4;
    cfg.engineConfig = core::enginePreset8b();
    cfg.policy = core::RoutePolicy::CacheAffinity;
    auto agent = [](agents::AgentKind kind, workload::Benchmark bench,
                    double weight) {
        core::WorkloadSpec spec;
        spec.agent = kind;
        spec.bench = bench;
        spec.weight = weight;
        return spec;
    };
    cfg.mix.push_back(agent(agents::AgentKind::ReAct,
                            workload::Benchmark::HotpotQA, 1.0));
    cfg.mix.push_back(agent(agents::AgentKind::Reflexion,
                            workload::Benchmark::WebShop, 1.0));
    cfg.mix.push_back(agent(agents::AgentKind::Lats,
                            workload::Benchmark::HotpotQA, 0.25));
    core::WorkloadSpec chat;
    chat.chatbot = true;
    cfg.mix.push_back(chat);
    cfg.qps = 2.5;
    cfg.numRequests = requests;
    cfg.seed = seed;
    cfg.faults.seed = fault_seed;
    cfg.faults.nodeMtbfSeconds = 120.0;
    cfg.faults.nodeRestartMeanSeconds = 5.0;
    cfg.checkpoint.enabled = true;
    // Enough retries that every crashed rollout eventually lands: the
    // workload measures recovery, not abandonment.
    cfg.retry.maxAttempts = 10;
    return cfg;
}

/** SLO targets tight enough that crashes burn budget and trip the
 *  flight recorder. */
telemetry::SloConfig
sloConfig()
{
    telemetry::SloConfig slo;
    slo.ttftTargetSeconds = 5.0;
    slo.tbtTargetSeconds = 0.25;
    slo.e2eTargetSeconds = 60.0;
    slo.windowSeconds = 20.0;
    return slo;
}

/** Observers attached to cluster_observed (none in the twin). */
struct Observers
{
    telemetry::SessionTelemetry session;
    std::unique_ptr<telemetry::SloTracker> slo;

    void
    attach(core::ClusterConfig &cfg, const std::string &incident_dir)
    {
        session.reset();
        telemetry::FlightRecorder::Config rc;
        rc.incidentDir = incident_dir;
        session.recorder.setConfig(rc);
        slo = std::make_unique<telemetry::SloTracker>(sloConfig());
        cfg.traceSink = &session.trace;
        cfg.metrics = &session.registry;
        cfg.spans = &session.spans;
        cfg.timeseries = &session.timeseries;
        cfg.recorder = &session.recorder;
        cfg.slo = slo.get();
    }
};

// ---------------------------------------------------------------------
// Reading the result structs.
// ---------------------------------------------------------------------

/**
 * Raw sums read from one or more timed calls. Every reported metric is
 * a sum or a ratio of sums, so a tally over the whole input set pools
 * its sub-inputs exactly.
 */
struct Tally
{
    std::map<std::string, double> sum;
    std::vector<double> latencies;
    /** Check name -> passed (AND over calls). */
    std::map<std::string, bool> checks;

    double get(const std::string &k) const
    {
        const auto it = sum.find(k);
        return it == sum.end() ? 0.0 : it->second;
    }
    void check(const std::string &name, bool ok)
    {
        const auto it = checks.find(name);
        checks[name] = ok && (it == checks.end() || it->second);
    }
    Tally &
    operator+=(const Tally &o)
    {
        for (const auto &[k, v] : o.sum)
            sum[k] += v;
        latencies.insert(latencies.end(), o.latencies.begin(),
                         o.latencies.end());
        for (const auto &[k, ok] : o.checks)
            check(k, ok);
        return *this;
    }
    bool
    sameOutcome(const Tally &o) const
    {
        return sum == o.sum && latencies == o.latencies;
    }
};

bool
within(double value, double reference, double rel)
{
    return std::fabs(value - reference) <= rel * std::fabs(reference);
}

void
addEngine(Tally &t, const serving::EngineStats &e)
{
    auto &s = t.sum;
    s["serving.steps"] += static_cast<double>(e.steps);
    s["serving.preemptions"] += static_cast<double>(e.preemptions);
    s["serving.prefill_tokens"] += static_cast<double>(e.prefillTokens);
    s["serving.decode_tokens"] += static_cast<double>(e.decodeTokens);
    s["serving.wasted_gpu_s"] += e.wastedSeconds;
    s["serving.saved_prefill_s"] += e.savedPrefillSeconds;
    s["llm.gpu_busy_s"] += e.busySeconds;
    s["llm.prefill_s"] += e.prefillSeconds;
    s["llm.decode_s"] += e.decodeSeconds;
    s["llm.flops"] += e.totalFlops;
    s["engine_joules"] += e.busyJoules;
}

Tally
readServe(const core::ServeConfig &cfg, const core::ServeResult &r)
{
    Tally t;
    auto &s = t.sum;
    t.latencies = r.e2eSeconds.values();
    s["offered"] = cfg.numRequests;
    s["completed"] = r.completed;
    s["failed"] = 0; // runServing asserts every request completes
    s["makespan_s"] = r.makespanSeconds;
    s["ledger_requests"] = r.completed;
    s["ledger_gpu_s"] = r.totalCost.gpuSeconds();
    s["ledger_joules"] = r.totalCost.energyJoules;
    s["sim.events"] = r.simEventsProcessed;
    const auto &kv = r.cacheStats;
    s["kv.lookup_tokens"] = static_cast<double>(kv.lookupTokens);
    s["kv.hit_tokens"] = static_cast<double>(kv.hitTokens);
    s["kv.evictions"] = static_cast<double>(kv.evictions);
    s["kv.allocated_blocks"] = static_cast<double>(kv.allocatedBlocks);
    s["kv.tier_demotions"] = static_cast<double>(kv.dram.demotedBlocks +
                                                 kv.nvme.demotedBlocks);
    s["kv.tier_restored_tokens"] = static_cast<double>(
        kv.dram.restoredTokens + kv.nvme.restoredTokens);
    if (!cfg.chatbot) {
        s["agent_completed"] = r.completed;
        s["agents.solved"] = r.solved;
    }
    addEngine(t, r.engineStats);

    const auto &e = r.engineStats;
    t.check("completed_plus_failed_is_offered",
            r.completed == cfg.numRequests &&
                r.e2eSeconds.count() ==
                    static_cast<std::size_t>(cfg.numRequests));
    t.check("ledger_reconciles_with_engine",
            e.busySeconds > 0.0 &&
                within(r.totalCost.gpuSeconds(), e.busySeconds, 0.01) &&
                within(r.totalCost.energyJoules, e.busyJoules, 0.01));
    return t;
}

/** Blame sums over every workflow aggregate; false unless each
 *  aggregate's categories add up exactly to its latency. */
bool
addBlame(Tally &t, const telemetry::SpanCollector &spans)
{
    using telemetry::BlameCategory;
    const std::pair<const char *, BlameCategory> cats[] = {
        {"queue", BlameCategory::Queue},
        {"prefill", BlameCategory::Prefill},
        {"decode", BlameCategory::Decode},
        {"tool", BlameCategory::Tool}};
    auto &s = t.sum;
    bool conserved = !spans.aggregates().empty();
    for (const auto &a : spans.aggregates()) {
        if (a.requests == 0)
            continue;
        const double w = static_cast<double>(a.requests);
        conserved = conserved &&
                    std::fabs(a.sum.total() - a.latencySum) <=
                        1e-9 * a.latencySum;
        s["blame.latency_s"] += a.latencySum;
        s["blame.p95_latency_s"] += w * a.latencyP95.value();
        for (const auto &[name, cat] : cats) {
            s[std::string("blame.mean.") + name] += a.sum[cat];
            s[std::string("blame.p95.") + name] += w * a.p95Blame(cat);
        }
    }
    return conserved;
}

Tally
readCluster(const core::ClusterConfig &cfg, const core::ClusterResult &r,
            const Observers *obs)
{
    Tally t;
    auto &s = t.sum;
    t.latencies = r.e2eSeconds.values();
    s["offered"] = cfg.numRequests;
    s["completed"] = r.completed;
    s["failed"] = r.failed;
    s["makespan_s"] = r.makespanSeconds;
    // The cluster's ledger covers completed agent episodes only
    // (ClusterResult::episodeCost).
    for (std::size_t i = 0; i < cfg.mix.size(); ++i) {
        if (!cfg.mix[i].chatbot)
            s["ledger_requests"] += static_cast<double>(
                r.perWorkloadSeconds[i].count());
    }
    s["ledger_gpu_s"] = r.episodeCost.gpuSeconds();
    s["ledger_joules"] = r.episodeCost.energyJoules;
    // runCluster reports a hit rate per node but no token counts.
    for (const auto &n : r.nodes) {
        s["kv.hit_rate_weighted"] += n.cacheHitRate * n.requests;
        s["kv.hit_rate_weight"] += n.requests;
        addEngine(t, n.engineStats);
    }
    s["core.retries"] = r.retries;
    s["core.failovers"] = r.failovers;
    s["core.resumes"] = static_cast<double>(r.recovery.resumes);
    s["core.lost_gpu_s"] = r.recovery.lostGpuSeconds;
    if (obs != nullptr) {
        const auto &o = obs->session;
        s["telemetry.trace_events"] =
            static_cast<double>(o.trace.eventCount());
        s["telemetry.spans"] =
            static_cast<double>(o.spans.requestsFinished());
        s["telemetry.timeseries_points"] =
            static_cast<double>(o.timeseries.pointsRetained());
        s["telemetry.incident_bundles"] =
            static_cast<double>(r.incidentBundles);
        t.check("blame_conserved", addBlame(t, o.spans));
    }

    t.check("completed_plus_failed_is_offered",
            r.completed + r.failed == cfg.numRequests &&
                r.e2eSeconds.count() ==
                    static_cast<std::size_t>(r.completed));
    // The ledger covers completed agent episodes only, so it is only
    // bounded above by what the engines were busy for.
    const double busy = t.get("llm.gpu_busy_s");
    t.check("ledger_within_engine_busy",
            busy > 0.0 && r.episodeCost.gpuSeconds() <= 1.01 * busy);
    return t;
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

/** Named scalars in insertion order, printed as a JSON object. */
using Values = std::vector<std::pair<std::string, double>>;

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

Values
simMetrics(const Tally &t)
{
    stats::SampleSet lat;
    for (double x : t.latencies)
        lat.add(x);
    const double reqs = t.get("ledger_requests");
    return {
        {"sim_p50_s", lat.empty() ? 0.0 : lat.percentile(50.0)},
        {"sim_p95_s", lat.empty() ? 0.0 : lat.percentile(95.0)},
        {"sim_throughput_qps",
         ratio(t.get("completed"), t.get("makespan_s"))},
        {"sim_goodput_frac", ratio(t.get("completed"), t.get("offered"))},
        {"sim_gpu_s_per_req", ratio(t.get("ledger_gpu_s"), reqs)},
        {"sim_energy_wh_per_req",
         ratio(t.get("ledger_joules") / 3600.0, reqs)},
    };
}

Values
countMetrics(const Tally &t)
{
    Values v;
    auto put = [&](const std::string &k) { v.emplace_back(k, t.get(k)); };
    put("sim.events");
    put("kv.lookup_tokens");
    put("kv.hit_tokens");
    v.emplace_back("kv.prefix_hit_rate",
                   t.get("kv.lookup_tokens") > 0.0
                       ? ratio(t.get("kv.hit_tokens"),
                               t.get("kv.lookup_tokens"))
                       : ratio(t.get("kv.hit_rate_weighted"),
                               t.get("kv.hit_rate_weight")));
    for (const char *k : {"kv.evictions", "kv.allocated_blocks",
                          "kv.tier_demotions", "kv.tier_restored_tokens",
                          "serving.steps"})
        put(k);
    v.emplace_back("serving.tokens_per_step",
                   ratio(t.get("serving.prefill_tokens") +
                             t.get("serving.decode_tokens"),
                         t.get("serving.steps")));
    for (const char *k :
         {"serving.preemptions", "serving.prefill_tokens",
          "serving.decode_tokens", "serving.wasted_gpu_s",
          "serving.saved_prefill_s", "llm.gpu_busy_s", "llm.prefill_s",
          "llm.decode_s", "llm.flops"})
        put(k);
    v.emplace_back("agents.solved_frac",
                   ratio(t.get("agents.solved"), t.get("agent_completed")));
    for (const char *k :
         {"core.retries", "core.failovers", "core.resumes",
          "core.lost_gpu_s", "telemetry.trace_events", "telemetry.spans",
          "telemetry.timeseries_points", "telemetry.incident_bundles"})
        put(k);
    for (const char *stat : {"mean", "p95"}) {
        const double den = t.get(std::string("blame.") +
                                 (stat[0] == 'm' ? "latency_s"
                                                 : "p95_latency_s"));
        for (const char *cat : {"queue", "prefill", "decode", "tool"}) {
            v.emplace_back(std::string("blame.") + stat + "." + cat +
                               "_share",
                           ratio(t.get(std::string("blame.") + stat +
                                       "." + cat),
                                 den));
        }
    }
    return v;
}

/** Simulated outputs that observers and profiling must not change. */
std::vector<double>
digest(const Tally &t)
{
    std::vector<double> d;
    for (const char *k :
         {"offered", "completed", "failed", "makespan_s", "ledger_gpu_s",
          "ledger_joules", "llm.gpu_busy_s", "llm.flops",
          "serving.steps", "serving.prefill_tokens",
          "serving.decode_tokens", "core.retries", "core.resumes"})
        d.push_back(t.get(k));
    for (const auto &[name, value] : simMetrics(t))
        d.push_back(value);
    return d;
}

// ---------------------------------------------------------------------
// The timed call.
// ---------------------------------------------------------------------

struct Call
{
    Tally tally;
    double wallSeconds = 0.0;
    double exportSeconds = 0.0;
};

Call
timedCall(const Options &o, int requests, std::uint64_t seed,
          std::uint64_t fault_seed, Observers *obs)
{
    Call call;
    if (o.workload == "cluster_observed") {
        core::ClusterConfig cfg = clusterConfig(requests, seed, fault_seed);
        if (obs != nullptr)
            obs->attach(cfg, o.incidentDir);
        const auto t0 = Clock::now();
        const core::ClusterResult r = core::runCluster(cfg);
        call.wallSeconds = secondsSince(t0);
        call.tally = readCluster(cfg, r, obs);
        if (obs != nullptr) {
            const auto t1 = Clock::now();
            const std::string json = obs->session.trace.toJson();
            const std::string prom =
                obs->session.registry.renderPrometheus();
            call.exportSeconds = secondsSince(t1);
            call.tally.check("export_nonempty",
                             !json.empty() && !prom.empty());
        }
        return call;
    }
    const core::ServeConfig cfg = serveConfig(o.workload, requests, seed);
    const auto t0 = Clock::now();
    const core::ServeResult r = core::runServing(cfg);
    call.wallSeconds = secondsSince(t0);
    call.tally = readServe(cfg, r);
    return call;
}

/** What the speed probe takes on the reference host, seconds. */
constexpr double kProbeReferenceSeconds = 0.1;

/**
 * Runs the speed probe at @p path and returns the seconds it reports.
 * The probe is a process of its own that runs none of the program's
 * code (see probe.cc). On a shared host, speed drifts 10-25% over
 * minutes; scaling each call by the probe taken just before it on the
 * same CPU gives host seconds at the reference speed.
 */
double
probeSeconds(const std::string &path)
{
    int fds[2];
    if (pipe(fds) != 0)
        usage("cannot create a pipe for the probe");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    char *const argv[] = {const_cast<char *>(path.c_str()), nullptr};
    pid_t pid = 0;
    const int err =
        posix_spawn(&pid, path.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (err != 0)
        usage("cannot start the probe " + path);
    std::string out;
    char buf[256];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;)
        out.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    double seconds = 0.0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        std::sscanf(out.c_str(), "{\"probe_s\": %lf", &seconds) != 1 ||
        !(seconds > 0.0))
        usage("the probe " + path + " failed");
    return seconds;
}

double
atReferenceSpeed(double seconds, double probe)
{
    return seconds * kProbeReferenceSeconds / probe;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
printValues(const char *key, const Values &values)
{
    std::printf(", \"%s\": {", key);
    for (std::size_t i = 0; i < values.size(); ++i) {
        std::printf("%s\"%s\": %.17g", i ? ", " : "",
                    values[i].first.c_str(), values[i].second);
    }
    std::printf("}");
}

void
printList(const std::vector<double> &values, int precision)
{
    std::printf("[");
    for (std::size_t i = 0; i < values.size(); ++i)
        std::printf("%s%.*g", i ? ", " : "", precision, values[i]);
    std::printf("]");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    if (!o.probe.empty()) {
        cpu_set_t cpu;
        CPU_ZERO(&cpu);
        CPU_SET(sched_getcpu(), &cpu);
        sched_setaffinity(0, sizeof cpu, &cpu);
    }
    Shape shape = shapeOf(o.workload);
    if (shape.requests == 0)
        usage("unknown workload '" + o.workload + "'");
    if (o.requests > 0)
        shape.requests = o.requests;
    const bool observed = o.workload == "cluster_observed" && !o.bare;
    if (observed)
        std::filesystem::create_directories(o.incidentDir);

    // Set-up: a short run fills the simulator's lazy state (frame
    // pools, allocator arenas) before timing. Its seed is fixed, so
    // set-up does the same work whatever the workload seed.
    const int warmup =
        o.warmup >= 0 ? o.warmup : std::max(8, shape.requests / 25);
    auto observers = observed ? std::make_unique<Observers>() : nullptr;
    if (warmup > 0)
        timedCall(o, warmup, kWarmupSeed, kWarmupSeed, observers.get());
    const double setup_seconds = secondsSince(kProcessStart);
    const bool probing = !o.probe.empty();
    const double setup_ref =
        probing ? atReferenceSpeed(setup_seconds, probeSeconds(o.probe))
                : 0.0;
    if (o.setupOnly) {
        std::printf("{\"setup_s\": %.9g, \"setup_ref_s\": %.9g}\n",
                    setup_seconds, setup_ref);
        return 0;
    }

    const int first_pass = o.calls > 0 ? std::min(o.calls, shape.subInputs)
                                       : shape.subInputs;
    std::vector<Tally> firsts;
    std::vector<std::vector<double>> walls(first_pass);
    std::vector<std::vector<double>> walls_ref(first_pass);
    std::vector<double> exports;
    bool repeats_identical = true;
    const auto t0 = Clock::now();
    for (int n = 0;; ++n) {
        const int k = n % first_pass;
        const double probe = probing ? probeSeconds(o.probe) : 0.0;
        Call call = timedCall(o, shape.requests, subSeed(o.seed, k),
                              subSeed(kFaultSeed, k), observers.get());
        walls[k].push_back(call.wallSeconds);
        if (probing)
            walls_ref[k].push_back(atReferenceSpeed(call.wallSeconds, probe));
        if (observed)
            exports.push_back(call.exportSeconds);
        if (n < first_pass)
            firsts.push_back(std::move(call.tally));
        else
            repeats_identical = repeats_identical &&
                                call.tally.sameOutcome(firsts[k]);
        if (o.calls > 0 ? n + 1 >= first_pass
                        : n + 1 >= 2 * first_pass &&
                              secondsSince(t0) >= o.seconds)
            break;
    }

    Tally total;
    for (const Tally &t : firsts)
        total += t;
    if (o.calls == 0)
        total.check("repetitions_identical", repeats_identical);
    std::vector<double> per_input;
    std::vector<double> per_input_ref;
    for (int k = 0; k < first_pass; ++k) {
        per_input.push_back(median(walls[k]));
        per_input_ref.push_back(median(walls_ref[k]));
    }

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, "
                "\"requests_per_call\": %d, \"calls\": %d, "
                "\"offered\": %.0f, \"completed\": %.0f, "
                "\"failed\": %.0f",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), shape.requests,
                first_pass, total.get("offered"), total.get("completed"),
                total.get("failed"));
    std::printf(", \"setup_s\": %.9g, \"setup_ref_s\": %.9g, "
                "\"peak_rss_mb\": %.6g, \"host_wall_s\": %.9g, "
                "\"host_wall_ref_s\": %.9g",
                setup_seconds, setup_ref, peakRssMb(), median(per_input),
                median(per_input_ref));
    std::printf(", \"wall_by_input\": ");
    printList(per_input, 9);
    std::printf(", \"export_s\": %.9g", median(exports));
    printValues("sim", simMetrics(total));
    printValues("counts", countMetrics(total));
    std::printf(", \"digests\": [");
    for (std::size_t k = 0; k < firsts.size(); ++k) {
        std::printf("%s", k ? ", " : "");
        printList(digest(firsts[k]), 17);
    }
    std::printf("], \"checks\": {");
    bool first_check = true;
    for (const auto &[name, ok] : total.checks) {
        std::printf("%s\"%s\": %s", first_check ? "" : ", ", name.c_str(),
                    ok ? "true" : "false");
        first_check = false;
    }
    std::printf("}}\n");
    return 0;
}
