/**
 * @file
 * Unit tests for the windowed time-series store and the flight
 * recorder: ring wraparound, windowed queries, the serving and
 * cluster samplers' cadence, trigger debounce, the
 * disk budget, the deadline-miss spike detector, the recorder-off
 * bit-identity contract at the serving layer, and digest pins of the
 * trace and incident-bundle bytes of small observed runs.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.hh"
#include "core/probe.hh"
#include "core/serving_system.hh"
#include "serving/checkpoint.hh"
#include "serving/engine.hh"
#include "sim/rng.hh"
#include "sim/types.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/slo.hh"
#include "telemetry/session.hh"
#include "telemetry/timeseries.hh"

namespace
{

using namespace agentsim;
using sim::fromSeconds;
using telemetry::FlightRecorder;
using telemetry::IncidentTrigger;
using telemetry::TimeSeriesStore;

/** Fresh per-test incident directory under the gtest temp dir. */
std::string
incidentDir(const std::string &name)
{
    const auto dir =
        std::filesystem::path(::testing::TempDir()) / "agentsim" / name;
    std::filesystem::remove_all(dir);
    return dir.string();
}

TEST(TimeSeries, RingWrapKeepsNewestPointsInOrder)
{
    TimeSeriesStore ts;
    TimeSeriesStore::Config cfg;
    cfg.capacity = 8;
    ts.setConfig(cfg);
    for (int i = 0; i < 20; ++i)
        ts.record("queue", fromSeconds(i), static_cast<double>(i));
    EXPECT_EQ(ts.seriesCount(), 1u);
    EXPECT_EQ(ts.pointsRetained(), 8u);

    const auto w = ts.window("queue", 0, fromSeconds(100));
    ASSERT_EQ(w.size(), 8u); // only the newest 8 survive the wrap
    for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_EQ(w[i].tick, fromSeconds(12 + static_cast<int>(i)));
        EXPECT_DOUBLE_EQ(w[i].value, 12.0 + static_cast<double>(i));
    }
}

TEST(TimeSeries, WindowedRateAndDerivative)
{
    TimeSeriesStore ts;
    // A counter climbing 10/s, sampled once a second.
    for (int i = 0; i <= 10; ++i)
        ts.record("requests_total", fromSeconds(i), 10.0 * i);

    EXPECT_NEAR(ts.windowRate("requests_total", 0, fromSeconds(10)),
                10.0, 1e-9);
    // Restricting the window restricts the rate computation to the
    // in-window endpoints: (50 - 20) / 3s.
    EXPECT_NEAR(ts.windowRate("requests_total", fromSeconds(2),
                              fromSeconds(5)),
                10.0, 1e-9);
    EXPECT_NEAR(ts.windowDerivative("requests_total", 0,
                                    fromSeconds(10)),
                10.0, 1e-9);
    // Sub-two-point windows report 0 rather than inventing a slope.
    EXPECT_DOUBLE_EQ(ts.windowRate("requests_total", fromSeconds(4),
                                   fromSeconds(4)),
                     0.0);
    EXPECT_DOUBLE_EQ(ts.windowRate("absent", 0, fromSeconds(10)), 0.0);

    const auto stats =
        ts.windowStats("requests_total", fromSeconds(3), fromSeconds(7));
    EXPECT_EQ(stats.samples, 5u);
    EXPECT_DOUBLE_EQ(stats.min, 30.0);
    EXPECT_DOUBLE_EQ(stats.max, 70.0);
    EXPECT_DOUBLE_EQ(stats.mean, 50.0);
    EXPECT_DOUBLE_EQ(stats.last, 70.0);
}

TEST(TimeSeries, CsvWindowIsLongFormatAndClipped)
{
    TimeSeriesStore ts;
    ts.record("a", fromSeconds(1), 1.0);
    ts.record("a", fromSeconds(9), 9.0);
    ts.record("b", fromSeconds(5), 5.0);
    const std::string csv =
        ts.renderCsvWindow(fromSeconds(4), fromSeconds(10));
    EXPECT_NE(csv.find("series,time_s,value"), std::string::npos);
    EXPECT_NE(csv.find("a,9.000000,9"), std::string::npos);
    EXPECT_NE(csv.find("b,5.000000,5"), std::string::npos);
    EXPECT_EQ(csv.find("a,1.000000"), std::string::npos); // clipped
}

TEST(TimeSeries, RenderCsvCoversEveryRetainedPoint)
{
    TimeSeriesStore ts;
    ts.record("a", 0, 1.0);
    ts.record("a", fromSeconds(1e6), 2.0);
    ts.record("b", fromSeconds(3), 3.0);
    const std::string csv = ts.renderCsv();
    EXPECT_EQ(csv, ts.renderCsvWindow(
                       0, std::numeric_limits<sim::Tick>::max()));
    EXPECT_EQ(csv.rfind("series,time_s,value\n", 0), 0u);
    EXPECT_NE(csv.find("a,0.000000,1\n"), std::string::npos);
    EXPECT_NE(csv.find("a,1000000.000000,2\n"), std::string::npos);
    EXPECT_NE(csv.find("b,3.000000,3\n"), std::string::npos);
    std::size_t lines = 0;
    for (const char c : csv)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, ts.pointsRetained() + 1);
}

/** Every point of @p name, oldest first. */
std::vector<telemetry::TsPoint>
allPoints(const TimeSeriesStore &ts, const std::string &name)
{
    return ts.window(name, 0, std::numeric_limits<sim::Tick>::max());
}

/** The sampler woke first one @p period in, then every @p period. */
void
expectSampledEvery(const std::vector<telemetry::TsPoint> &points,
                   double period)
{
    ASSERT_GT(points.size(), 2u);
    EXPECT_EQ(points.front().tick, fromSeconds(period));
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_EQ(points[i].tick - points[i - 1].tick,
                  fromSeconds(period))
            << "point " << i;
    }
}

/** A completion counter never falls, and the sampler's last wake
 *  follows the drain, so it has seen all @p completed requests. */
void
expectCountsUpTo(const std::vector<telemetry::TsPoint> &points,
                 int completed)
{
    ASSERT_FALSE(points.empty());
    for (std::size_t i = 1; i < points.size(); ++i)
        EXPECT_GE(points[i].value, points[i - 1].value) << "point " << i;
    EXPECT_DOUBLE_EQ(points.back().value,
                     static_cast<double>(completed));
}

TEST(TimeSeries, ServingSamplerWakesAtStorePeriod)
{
    core::ServeConfig cfg;
    cfg.chatbot = true;
    cfg.closedLoop = true;
    cfg.numRequests = 12;
    cfg.seed = 99;
    cfg.engineConfig = core::enginePreset8b();

    TimeSeriesStore fine({.periodSeconds = 0.25});
    cfg.timeseries = &fine;
    const auto r1 = core::runServing(cfg);
    const auto fine_points = allPoints(fine, "requests_completed");
    expectSampledEvery(fine_points, 0.25);
    expectCountsUpTo(fine_points, r1.completed);

    TimeSeriesStore coarse({.periodSeconds = 1.0});
    cfg.timeseries = &coarse;
    const auto r2 = core::runServing(cfg);
    const auto coarse_points = allPoints(coarse, "requests_completed");
    expectSampledEvery(coarse_points, 1.0);
    expectCountsUpTo(coarse_points, r2.completed);

    // Both samplers stop at their first wake after the same drain, so
    // four times the cadence gives four times the points, less at
    // most three.
    EXPECT_GE(fine_points.size() + 3, 4 * coarse_points.size());
    EXPECT_LE(fine_points.size(), 4 * coarse_points.size());
}

TEST(TimeSeries, ClusterSamplerWakesAtStorePeriod)
{
    core::ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.engineConfig = core::enginePreset8b();
    core::WorkloadSpec chat;
    chat.chatbot = true;
    chat.weight = 1.0;
    cfg.mix.push_back(chat);
    cfg.qps = 2.0;
    cfg.numRequests = 16;
    cfg.seed = 4;

    TimeSeriesStore ts({.periodSeconds = 0.75});
    cfg.timeseries = &ts;
    const auto r = core::runCluster(cfg);
    ASSERT_EQ(r.completed, 16);
    const auto completed = allPoints(ts, "cluster_completed");
    expectSampledEvery(completed, 0.75);
    expectCountsUpTo(completed, r.completed);
    // Per-node series ride the same wake.
    expectSampledEvery(allPoints(ts, "node1_queue_depth"), 0.75);
}

TEST(FlightRecorderTest, DebouncePerTriggerKind)
{
    FlightRecorder::Config cfg;
    cfg.incidentDir = incidentDir("debounce");
    cfg.debounceSeconds = 30.0;
    cfg.windowSeconds = 10.0;
    FlightRecorder rec(cfg);

    rec.trigger(IncidentTrigger::SloBurn, fromSeconds(10), "first");
    rec.trigger(IncidentTrigger::SloBurn, fromSeconds(20), "debounced");
    // A different kind has its own debounce clock.
    rec.trigger(IncidentTrigger::Brownout, fromSeconds(20), "other");
    // Past the debounce interval the kind may fire again.
    rec.trigger(IncidentTrigger::SloBurn, fromSeconds(45), "second");

    EXPECT_EQ(rec.incidentsDumped(), 3);
    EXPECT_EQ(rec.skippedDebounce(), 1);
    EXPECT_EQ(rec.writeFailures(), 0);
    for (const auto &path : rec.incidentPaths()) {
        EXPECT_TRUE(std::filesystem::exists(
            std::filesystem::path(path) / "manifest.json"))
            << path;
        EXPECT_TRUE(std::filesystem::exists(
            std::filesystem::path(path) / "trace.json"))
            << path;
        EXPECT_TRUE(std::filesystem::exists(
            std::filesystem::path(path) / "timeseries.csv"))
            << path;
    }
}

TEST(FlightRecorderTest, DiskBudgetStopsDumps)
{
    FlightRecorder::Config cfg;
    cfg.incidentDir = incidentDir("budget");
    cfg.debounceSeconds = 0.001;
    cfg.diskBudgetBytes = 64; // smaller than any bundle
    FlightRecorder rec(cfg);

    rec.trigger(IncidentTrigger::BreakerOpen, fromSeconds(1), "x");
    rec.trigger(IncidentTrigger::BreakerOpen, fromSeconds(2), "y");

    EXPECT_EQ(rec.incidentsDumped(), 0);
    EXPECT_EQ(rec.skippedBudget(), 2);
    EXPECT_EQ(rec.bytesWritten(), 0);
    EXPECT_FALSE(std::filesystem::exists(cfg.incidentDir));
}

TEST(FlightRecorderTest, DeadlineMissSpikeSelfTriggers)
{
    FlightRecorder::Config cfg;
    cfg.incidentDir = incidentDir("miss_spike");
    cfg.missSpikeCount = 3;
    cfg.missWindowSeconds = 5.0;
    FlightRecorder rec(cfg);

    // Two misses spread outside the window: no spike.
    rec.noteDeadlineMiss(fromSeconds(1));
    rec.noteDeadlineMiss(fromSeconds(10));
    EXPECT_EQ(rec.incidentsDumped(), 0);
    // A third miss within 5s of the second completes the spike.
    rec.noteDeadlineMiss(fromSeconds(11));
    rec.noteDeadlineMiss(fromSeconds(12));
    EXPECT_EQ(rec.incidentsDumped(), 1);
}

TEST(FlightRecorderTest, BundleWindowClipsRingContent)
{
    FlightRecorder::Config cfg;
    cfg.incidentDir = incidentDir("window");
    cfg.windowSeconds = 10.0;
    FlightRecorder rec(cfg);
    telemetry::TraceSink sink;
    sink.attachRecorder(&rec);

    // One event well before the window, one inside it.
    sink.complete(telemetry::TracePid::kEngine, 1, "ancient", "test",
                  fromSeconds(1), fromSeconds(2));
    sink.complete(telemetry::TracePid::kEngine, 1, "recent", "test",
                  fromSeconds(55), fromSeconds(56));
    telemetry::SpanCompletion sc;
    sc.requestKey = 7;
    sc.workflow = "w";
    sc.latencySeconds = 3.0;
    sc.start = fromSeconds(53);
    sc.end = fromSeconds(56);
    rec.noteSpanCompletion(sc);

    rec.trigger(IncidentTrigger::Autoscale, fromSeconds(60), "clip");
    ASSERT_EQ(rec.incidentsDumped(), 1);

    std::ifstream in(std::filesystem::path(rec.incidentPaths()[0]) /
                     "trace.json");
    const std::string trace((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_NE(trace.find("recent"), std::string::npos);
    EXPECT_EQ(trace.find("ancient"), std::string::npos);

    std::ifstream min(std::filesystem::path(rec.incidentPaths()[0]) /
                      "manifest.json");
    const std::string manifest((std::istreambuf_iterator<char>(min)),
                               std::istreambuf_iterator<char>());
    EXPECT_NE(manifest.find("\"schema\": \"agentsim-incident-v1\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"trigger\": \"autoscale\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"span_completions\": 1"),
              std::string::npos);
}

TEST(FlightRecorderTest, ClearDropsStateButKeepsConfig)
{
    FlightRecorder::Config cfg;
    cfg.incidentDir = incidentDir("clear");
    FlightRecorder rec(cfg);
    telemetry::TraceSink trace;
    trace.attachRecorder(&rec);
    trace.complete(telemetry::TracePid::kEngine, 1, "step", "test",
                   fromSeconds(1), fromSeconds(2));
    rec.trigger(IncidentTrigger::SloBurn, fromSeconds(5), "x");
    EXPECT_EQ(rec.incidentsDumped(), 1);

    rec.clear();
    EXPECT_EQ(rec.incidentsDumped(), 0);
    EXPECT_EQ(rec.traceEventsRetained(), 0u);
    EXPECT_EQ(rec.bytesWritten(), 0);
    EXPECT_EQ(rec.config().incidentDir, cfg.incidentDir);
}

TEST(FlightRecorderTest, SinkAndRecorderDetachWhenDestroyed)
{
    FlightRecorder::Config cfg;
    cfg.incidentDir = incidentDir("detach");
    FlightRecorder rec(cfg);
    {
        telemetry::TraceSink sink;
        sink.attachRecorder(&rec);
        sink.instant(telemetry::TracePid::kEngine, 1, "gone", "test",
                     fromSeconds(1));
        EXPECT_EQ(rec.traceEventsRetained(), 1u);
    }
    EXPECT_EQ(rec.traceEventsRetained(), 0u);
    rec.trigger(IncidentTrigger::SloBurn, fromSeconds(2), "no sink");
    EXPECT_EQ(rec.incidentsDumped(), 1);

    // A full sink whose recorder is gone keeps no overflow for it.
    telemetry::TraceSink sink;
    sink.setEventCapacity(1);
    {
        FlightRecorder gone(cfg);
        sink.attachRecorder(&gone);
    }
    for (int i = 0; i < 3; ++i) {
        sink.instant(telemetry::TracePid::kEngine, 1, "tick", "test",
                     fromSeconds(i));
    }
    EXPECT_EQ(sink.droppedEvents(), 2u);
    EXPECT_EQ(sink.dataRetained(), 1u);
}

TEST(FlightRecorderTest, RecorderOffRunIsBitIdentical)
{
    // The whole observability stack must be a pure observer: a run
    // with time-series sampling + recorder rings attached produces
    // exactly the same sim-domain results as a bare run.
    core::ServeConfig bare;
    bare.chatbot = true;
    bare.closedLoop = true;
    bare.numRequests = 12;
    bare.seed = 99;
    bare.engineConfig = core::enginePreset8b();
    const auto r1 = core::runServing(bare);

    telemetry::SessionTelemetry session;
    session.recorder.setConfig(
        {.incidentDir = incidentDir("identity")});
    core::ServeConfig wired = bare;
    wired.telemetry = &session;
    wired.spans = &session.spans;
    wired.recorder = &session.recorder;
    wired.timeseries = &session.timeseries;
    const auto r2 = core::runServing(wired);

    EXPECT_EQ(r1.completed, r2.completed);
    EXPECT_EQ(r1.solved, r2.solved);
    EXPECT_DOUBLE_EQ(r1.p50(), r2.p50());
    EXPECT_DOUBLE_EQ(r1.p95(), r2.p95());
    EXPECT_DOUBLE_EQ(r1.makespanSeconds, r2.makespanSeconds);
    EXPECT_DOUBLE_EQ(r1.engineStats.busySeconds,
                     r2.engineStats.busySeconds);
    // The sampler's last wake can fall after the driver stops; the
    // run is billed to the stop, so energy and KV match exactly.
    EXPECT_EQ(r1.energyWh, r2.energyWh);
    EXPECT_EQ(r1.kvAvgBytes, r2.kvAvgBytes);
    EXPECT_EQ(r1.kvMaxBytes, r2.kvMaxBytes);
    // And the observers did observe.
    EXPECT_GT(session.timeseries.pointsRetained(), 0u);
    EXPECT_GT(session.recorder.traceEventsRetained(), 0u);
}

TEST(FlightRecorderTest, RecorderOutlivesSinkCapacity)
{
    FlightRecorder::Config cfg;
    cfg.incidentDir = incidentDir("outlives_sink");
    cfg.windowSeconds = 30.0;
    FlightRecorder rec(cfg);
    telemetry::TraceSink trace;
    trace.setEventCapacity(5);
    trace.attachRecorder(&rec);
    for (int i = 0; i < 10; ++i) {
        trace.instant(telemetry::TracePid::kEngine, 1,
                      "ev" + std::to_string(i), "test",
                      fromSeconds(i + 1));
    }
    EXPECT_EQ(trace.eventCount(), 5u);
    EXPECT_EQ(trace.droppedEvents(), 5u);
    EXPECT_EQ(trace.toJson().find("\"ev5\""), std::string::npos);

    rec.trigger(IncidentTrigger::SloBurn, fromSeconds(10), "saturated");
    ASSERT_EQ(rec.incidentsDumped(), 1);
    std::ifstream in(std::filesystem::path(rec.incidentPaths()[0]) /
                     "trace.json");
    const std::string bundle((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    // The recorder kept every event, including the five the sink
    // dropped once full.
    for (int i = 0; i < 10; ++i) {
        EXPECT_NE(bundle.find("\"ev" + std::to_string(i) + "\""),
                  std::string::npos)
            << "ev" << i;
    }
}

// ---------------------------------------------------------------------
// Pins: digests of the trace and incident-bundle bytes of small
// observed runs. Any change to how trace events are stored or
// rendered must reproduce them exactly.
// ---------------------------------------------------------------------

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** FNV-1a over every file of every bundle, in dump order. */
std::uint64_t
bundleDigest(const FlightRecorder &rec)
{
    std::uint64_t h = sim::fnv1a("");
    for (const std::string &dir : rec.incidentPaths()) {
        for (const char *file :
             {"trace.json", "timeseries.csv", "manifest.json"}) {
            h = sim::fnv1a(file, h);
            h = sim::fnv1a(readFile(std::filesystem::path(dir) / file),
                           h);
        }
    }
    return h;
}

core::ServeConfig
pinServeConfig()
{
    core::ServeConfig cfg;
    cfg.engineConfig = core::enginePreset8b();
    cfg.agent = agents::AgentKind::ReAct;
    cfg.bench = workload::Benchmark::HotpotQA;
    cfg.qps = 2.0;
    cfg.numRequests = 10;
    cfg.seed = 31;
    return cfg;
}

/** Two nodes, crashes with checkpoint-resume, every observer. */
struct ObservedCluster
{
    telemetry::SessionTelemetry session;
    telemetry::SloTracker slo{[] {
        telemetry::SloConfig c;
        c.ttftTargetSeconds = 2.0;
        c.tbtTargetSeconds = 0.1;
        c.e2eTargetSeconds = 30.0;
        c.windowSeconds = 10.0;
        return c;
    }()};

    /**
     * The pinned configuration; @p observed attaches every observer
     * to a freshly reset session. The SLO tracker is attached either
     * way: the brownout controller reads its burn rate, so it is a
     * control input here, not an observer.
     */
    core::ClusterConfig
    config(const std::string &dir, bool observed)
    {
        slo.reset();
        core::ClusterConfig cfg;
        cfg.numNodes = 2;
        cfg.engineConfig = core::enginePreset8b();
        cfg.policy = core::RoutePolicy::CacheAffinity;
        core::WorkloadSpec react;
        react.agent = agents::AgentKind::ReAct;
        react.bench = workload::Benchmark::HotpotQA;
        cfg.mix.push_back(react);
        core::WorkloadSpec chat;
        chat.chatbot = true;
        cfg.mix.push_back(chat);
        cfg.qps = 3.0;
        cfg.numRequests = 40;
        cfg.seed = 17;
        cfg.faults.seed = 5;
        cfg.faults.nodeMtbfSeconds = 12.0;
        cfg.faults.nodeRestartMeanSeconds = 3.0;
        cfg.checkpoint.enabled = true;
        cfg.retry.maxAttempts = 10;
        cfg.brownout.enabled = true;
        cfg.slo = &slo;
        if (!observed)
            return cfg;
        session.reset();
        session.recorder.setConfig({.incidentDir = dir,
                                    .windowSeconds = 20.0,
                                    .debounceSeconds = 5.0});
        cfg.traceSink = &session.trace;
        cfg.metrics = &session.registry;
        cfg.spans = &session.spans;
        cfg.timeseries = &session.timeseries;
        cfg.recorder = &session.recorder;
        return cfg;
    }

    core::ClusterResult
    run(const std::string &dir)
    {
        return core::runCluster(config(dir, true));
    }
};

TEST(TracePin, ServingTraceDigest)
{
    telemetry::SessionTelemetry session;
    session.recorder.setConfig({.incidentDir = incidentDir("pin_serve")});
    core::ServeConfig cfg = pinServeConfig();
    cfg.telemetry = &session;
    cfg.spans = &session.spans;
    cfg.recorder = &session.recorder;
    cfg.timeseries = &session.timeseries;
    const auto r = core::runServing(cfg);
    ASSERT_EQ(r.completed, 10);
    EXPECT_EQ(sim::fnv1a(session.trace.toJson()), 17152723154605841313ULL);
}

TEST(TracePin, ClusterTraceDigest)
{
    ObservedCluster c;
    const auto r = c.run(incidentDir("pin_cluster_trace"));
    ASSERT_GT(r.faultStats.crashes, 2);
    EXPECT_EQ(sim::fnv1a(c.session.trace.toJson()),
              16666795961637627364ULL);
}

TEST(TracePin, ClusterBundleDigest)
{
    // A session that has run once already: the steady state of a
    // harness that reuses its telemetry across calls.
    ObservedCluster c;
    c.run(incidentDir("pin_bundle_warmup"));
    c.run(incidentDir("pin_bundle"));
    ASSERT_GT(c.session.recorder.incidentsDumped(), 2);
    EXPECT_EQ(bundleDigest(c.session.recorder), 17809509484994470112ULL);
}

/** Pids of @p trace's data events that no process_name names (the
 *  sink renders one event per line). */
std::set<int>
unnamedPids(const std::string &trace)
{
    std::set<int> used;
    std::set<int> named;
    std::istringstream lines(trace);
    for (std::string line; std::getline(lines, line);) {
        const auto at = line.find("\"pid\":");
        if (at == std::string::npos)
            continue;
        const int pid = std::stoi(line.substr(at + 6));
        if (line.find("\"name\":\"process_name\",\"ph\":\"M\"") == 1)
            named.insert(pid);
        else if (line.find("\"ph\":\"M\"") == std::string::npos)
            used.insert(pid);
    }
    std::set<int> unnamed;
    for (const int pid : used) {
        if (named.count(pid) == 0)
            unnamed.insert(pid);
    }
    return unnamed;
}

TEST(FlightRecorderTest, BundlesNameEveryTrackTheyUse)
{
    ObservedCluster c;
    c.run(incidentDir("named_tracks"));
    EXPECT_EQ(unnamedPids(c.session.trace.toJson()), std::set<int>{});
    ASSERT_GT(c.session.recorder.incidentsDumped(), 0);
    for (const std::string &dir : c.session.recorder.incidentPaths()) {
        EXPECT_EQ(unnamedPids(readFile(std::filesystem::path(dir) /
                                       "trace.json")),
                  std::set<int>{})
            << dir;
    }
}

TEST(FlightRecorderTest, FreshAndReusedSessionsWriteIdenticalBundles)
{
    ObservedCluster fresh;
    fresh.run(incidentDir("fresh_session"));
    ObservedCluster reused;
    reused.run(incidentDir("reused_warmup"));
    reused.run(incidentDir("reused_session"));
    ASSERT_GT(fresh.session.recorder.incidentsDumped(), 0);
    EXPECT_EQ(bundleDigest(fresh.session.recorder),
              bundleDigest(reused.session.recorder));
}

// ---------------------------------------------------------------------
// Cluster observers and counters.
// ---------------------------------------------------------------------

/** Every member of @p a and @p b through @p table, named on failure. */
template <class S>
void
expectSameStats(telemetry::StatTable<S> table, const S &a, const S &b,
                const std::string &where)
{
    for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(table[i].value(a), table[i].value(b))
            << where << " row " << i << " ("
            << (table[i].name != nullptr ? table[i].name : "unexported")
            << ")";
    }
}

TEST(ClusterPurity, ObserversLeaveTheRunBitIdentical)
{
    ObservedCluster c;
    const core::ClusterResult bare =
        core::runCluster(c.config(incidentDir("purity_bare"), false));
    const core::ClusterResult observed =
        c.run(incidentDir("purity_observed"));
    ASSERT_GT(observed.faultStats.crashes, 2);
    ASSERT_GT(observed.recovery.resumes, 0);
    // The observers did observe.
    ASSERT_GT(c.session.trace.eventCount(), 0u);
    ASSERT_GT(c.session.timeseries.pointsRetained(), 0u);
    ASSERT_GT(c.session.spans.requestsFinished(), 0);

    EXPECT_EQ(bare.completed, observed.completed);
    EXPECT_EQ(bare.failed, observed.failed);
    EXPECT_EQ(bare.solved, observed.solved);
    EXPECT_EQ(bare.e2eSeconds.values(), observed.e2eSeconds.values());
    EXPECT_EQ(bare.makespanSeconds, observed.makespanSeconds);
    EXPECT_EQ(bare.retriesByCause, observed.retriesByCause);
    EXPECT_EQ(bare.failoversByCause, observed.failoversByCause);
    expectSameStats(serving::kRecoveryStatFields, bare.recovery,
                    observed.recovery, "recovery");
    EXPECT_EQ(bare.recovery.recoveredByCause,
              observed.recovery.recoveredByCause);
    ASSERT_EQ(bare.nodes.size(), observed.nodes.size());
    for (std::size_t i = 0; i < bare.nodes.size(); ++i) {
        expectSameStats(serving::kEngineStatFields,
                        bare.nodes[i].engineStats,
                        observed.nodes[i].engineStats,
                        "node " + std::to_string(i));
    }
}

/** Sum of every `family{node="..."}` sample in @p prom. */
double
sumOverNodes(const std::string &prom, const std::string &family)
{
    double sum = 0.0;
    std::istringstream lines(prom);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind(family + "{node=\"", 0) == 0)
            sum += std::stod(line.substr(line.rfind(' ') + 1));
    }
    return sum;
}

TEST(ClusterCounters, NodeSumsEqualClusterTotals)
{
    ObservedCluster c;
    const core::ClusterResult r = c.run(incidentDir("node_sums"));
    const std::string prom = c.session.registry.renderPrometheus();

    EXPECT_GT(r.simEventsProcessed, 0u);
    EXPECT_GT(r.solved, 0);
    EXPECT_LE(r.solved, r.completed);
    kv::CacheStats cache;
    for (const core::NodeResult &node : r.nodes) {
        EXPECT_LE(node.cacheStats.hitTokens, node.cacheStats.lookupTokens);
        EXPECT_EQ(node.cacheHitRate, node.cacheStats.hitRate());
        telemetry::accumulateStats(serving::kCacheStatFields, cache,
                                   node.cacheStats);
    }
    EXPECT_GT(cache.hitTokens, 0);
    // The exposition's per-node series add up to the node sums ...
    for (const auto &f : serving::kCacheStatFields) {
        if (f.name != nullptr) {
            EXPECT_EQ(sumOverNodes(prom, f.name), f.value(cache))
                << f.name;
        }
    }
    // ... and engineTotals() is the same sum over every member.
    const serving::EngineStats totals = r.engineTotals();
    for (const auto &f : serving::kEngineStatFields) {
        double by_hand = 0.0;
        for (const core::NodeResult &node : r.nodes)
            by_hand += f.value(node.engineStats);
        EXPECT_EQ(f.value(totals), by_hand)
            << (f.name != nullptr ? f.name : "unexported");
        if (f.name != nullptr) {
            EXPECT_EQ(sumOverNodes(prom, f.name), by_hand) << f.name;
        }
    }
    // Cause-labelled client counters sum to the unlabelled fields.
    int retries = 0;
    for (int n : r.retriesByCause)
        retries += n;
    EXPECT_EQ(retries, r.retries);
    int failovers = 0;
    for (int n : r.failoversByCause)
        failovers += n;
    EXPECT_EQ(failovers, r.failovers);
}

TEST(ClusterCounters, OneHelpAndTypePerFamily)
{
    ObservedCluster c;
    c.run(incidentDir("help_type"));
    std::map<std::string, int> help;
    std::map<std::string, int> type;
    std::set<std::string> sampled;
    std::istringstream lines(c.session.registry.renderPrometheus());
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("# HELP ", 0) == 0) {
            ++help[line.substr(7, line.find(' ', 7) - 7)];
        } else if (line.rfind("# TYPE ", 0) == 0) {
            ++type[line.substr(7, line.find(' ', 7) - 7)];
        } else {
            sampled.insert(line.substr(0, line.find_first_of("{ ")));
        }
    }
    EXPECT_EQ(help.size(), c.session.registry.families());
    EXPECT_GT(help.size(), 50u);
    for (const auto &[name, n] : help) {
        EXPECT_EQ(n, 1) << name;
        EXPECT_EQ(type[name], 1) << name;
    }
    EXPECT_EQ(type.size(), help.size());
    // Per-node engine families carry every node.
    EXPECT_EQ(help.count("agentsim_requests_completed_total"), 1u);
    for (const std::string &name : sampled) {
        const bool declared =
            help.count(name) != 0 ||
            help.count(name.substr(0, name.rfind('_'))) != 0;
        EXPECT_TRUE(declared) << name;
    }
}

} // namespace
