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

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
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

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
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
// The trace log's window visitor, against a brute-force filter over
// the newest n data records.
// ---------------------------------------------------------------------

/** A sink filled at random, with the data records a recorder sees
 *  kept aside in log-then-overflow order (each record's tid is its
 *  own id). */
struct ShadowedSink
{
    struct Rec
    {
        std::uint64_t id;
        sim::Tick tick;
        sim::Tick end;
        /** Position in the sink's log (metadata included). */
        std::size_t pos;
    };

    telemetry::TraceSink sink;
    FlightRecorder recorder;
    std::vector<Rec> log;
    std::deque<Rec> overflow;
    std::mt19937_64 rng;
    std::uint64_t next = 0;

    ShadowedSink(std::uint64_t seed, std::size_t capacity,
                 std::size_t overflow_capacity)
        : recorder({.incidentDir = incidentDir("shadowed"),
                    .traceEventCapacity = overflow_capacity}),
          rng(seed)
    {
        sink.setEventCapacity(capacity);
        sink.attachRecorder(&recorder);
    }

    std::uint64_t roll(std::uint64_t n) { return rng() % n; }

    /** One metadata record (a new lane, or now and then a new
     *  track). */
    void
    addMetadata()
    {
        const std::uint64_t id = next++;
        if (roll(4) == 0)
            sink.processName(static_cast<int>(100 + id), "track");
        else
            sink.threadName(telemetry::TracePid::kRequests, id, "lane");
    }

    /** One data record: mostly short and in time order, now and then
     *  an instant or a span long enough to reach far ahead. */
    void
    addData()
    {
        const std::uint64_t id = next++;
        const auto tick = static_cast<sim::Tick>(id * 10 + roll(50));
        const auto dur = static_cast<sim::Tick>(
            roll(20) == 0 ? roll(20000) : roll(5) == 0 ? 0 : roll(100));
        const std::size_t pos = sink.eventCount();
        const bool logged = sink.eventCapacity() == 0 ||
                            pos < sink.eventCapacity();
        sink.complete(telemetry::TracePid::kEngine, id, "d", "test", tick,
                      tick + dur);
        const Rec rec{id, tick, tick + dur, pos};
        if (logged)
            return log.push_back(rec);
        overflow.push_back(rec);
        if (overflow.size() > recorder.config().traceEventCapacity)
            overflow.pop_front();
    }

    std::size_t visible() const { return log.size() + overflow.size(); }

    sim::Tick
    lastEnd() const
    {
        sim::Tick end = 0;
        for (const Rec &r : log)
            end = std::max(end, r.end);
        for (const Rec &r : overflow)
            end = std::max(end, r.end);
        return end;
    }

    std::vector<std::uint64_t>
    expected(std::size_t n, sim::Tick from, sim::Tick to) const
    {
        std::vector<Rec> all(log.begin(), log.end());
        all.insert(all.end(), overflow.begin(), overflow.end());
        std::vector<std::uint64_t> ids;
        for (std::size_t i = all.size() - std::min(n, all.size());
             i < all.size(); ++i) {
            if (all[i].end >= from && all[i].tick <= to)
                ids.push_back(all[i].id);
        }
        return ids;
    }

    std::vector<std::uint64_t>
    visited(std::size_t n, sim::Tick from, sim::Tick to) const
    {
        std::vector<std::uint64_t> ids;
        sink.forEachDataInWindow(n, from, to,
                                 [&](const telemetry::TraceRecord &r) {
                                     EXPECT_FALSE(r.metadata());
                                     ids.push_back(r.tid);
                                 });
        return ids;
    }

    /** Compare the visitor with the brute force over fixed and random
     *  windows and counts. */
    void
    check(const std::string &what)
    {
        const sim::Tick last = lastEnd();
        const std::size_t data = visible();
        std::vector<std::pair<sim::Tick, sim::Tick>> windows = {
            {0, last},                    // the whole log
            {0, -1},                      // before every record
            {last, last},                 // only the last end
            {last + 1, last + 1000},      // after every record
            {0, std::numeric_limits<sim::Tick>::max()},
        };
        // Windows whose ends sit on either side of block edges, and
        // windows starting exactly at a block's largest end.
        constexpr std::size_t kBlock = telemetry::TraceSink::kIndexBlock;
        std::map<std::size_t, sim::Tick> block_max;
        for (std::size_t at = 0; at < log.size(); ++at) {
            sim::Tick &m = block_max[log[at].pos / kBlock];
            m = std::max(m, log[at].end);
            if (at > 0 && log[at].pos / kBlock != log[at - 1].pos / kBlock) {
                for (const std::size_t edge : {at - 1, at}) {
                    windows.push_back({log[edge].tick, log[edge].tick + 500});
                    windows.push_back({log[edge].end, last});
                }
            }
        }
        for (const auto &[block, end] : block_max)
            windows.push_back({end, end + 100});
        for (int i = 0; i < 200; ++i) {
            const auto a = static_cast<sim::Tick>(
                roll(static_cast<std::uint64_t>(last) + 2));
            const auto b = static_cast<sim::Tick>(
                roll(static_cast<std::uint64_t>(last) + 2));
            windows.push_back({std::min(a, b), std::max(a, b)});
        }
        std::vector<std::size_t> counts = {
            0, 1, data / 2, data, data + 1,
            std::numeric_limits<std::size_t>::max()};
        if (data > 0)
            counts.push_back(data - 1);
        for (const auto &[from, to] : windows) {
            counts.push_back(roll(data + 10));
            for (const std::size_t n : counts) {
                ASSERT_EQ(visited(n, from, to), expected(n, from, to))
                    << what << ": n " << n << " window [" << from << ", "
                    << to << "]";
            }
            counts.pop_back();
        }
    }
};

TEST(TraceWindow, MatchesBruteForceWithMetadataAnywhere)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        ShadowedSink s(seed, 0, 65536);
        for (int i = 0; i < 6000; ++i) {
            if (s.roll(10) < 2)
                s.addMetadata();
            else
                s.addData();
        }
        s.check("seed " + std::to_string(seed));
    }
}

TEST(TraceWindow, MatchesBruteForceAcrossMetadataRuns)
{
    // Metadata first, a run of it longer than a block in the middle,
    // and trailing metadata after the newest data record.
    ShadowedSink s(7, 0, 65536);
    for (int i = 0; i < 30; ++i)
        s.addMetadata();
    for (int i = 0; i < 2500; ++i)
        s.addData();
    for (int i = 0; i < 1500; ++i)
        s.addMetadata();
    for (int i = 0; i < 2500; ++i)
        s.addData();
    for (int i = 0; i < 40; ++i)
        s.addMetadata();
    s.check("metadata runs");
}

TEST(TraceWindow, MatchesBruteForceOnACappedSinkWithOverflow)
{
    ShadowedSink s(11, 3000, 700);
    for (int i = 0; i < 7000; ++i) {
        if (s.roll(10) == 0)
            s.addMetadata();
        else
            s.addData();
    }
    ASSERT_GT(s.sink.droppedEvents(), 700u);
    ASSERT_EQ(s.overflow.size(), 700u);
    s.check("capped");
}

TEST(TraceWindow, EmptyAndMetadataOnlySinksVisitNothing)
{
    ShadowedSink s(13, 0, 65536);
    s.check("empty");
    for (int i = 0; i < 2000; ++i)
        s.addMetadata();
    s.check("metadata only");
}

TEST(FlightRecorderTest, BundleHoldsTheNewestRecordsOfALongLog)
{
    // 100k one-millisecond steps; every 1000th record instead spans
    // 200 s, so long spans from the whole log reach the window, but
    // only those among the newest traceEventCapacity (65,536) records
    // may appear in the bundle.
    FlightRecorder rec({.incidentDir = incidentDir("long_log"),
                        .windowSeconds = 30.0});
    ASSERT_EQ(rec.config().traceEventCapacity, 65536u);
    telemetry::TraceSink sink;
    sink.attachRecorder(&rec);
    sink.processName(telemetry::TracePid::kEngine, "LLM engine");
    constexpr std::uint64_t kRecords = 100000;
    const sim::Tick from = fromSeconds(70.0);
    const sim::Tick to = fromSeconds(100.0);
    std::vector<std::uint64_t> expected;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        if (i % 4096 == 0)
            sink.threadName(telemetry::TracePid::kEngine, i, "lane");
        const sim::Tick start = fromSeconds(0.001 * static_cast<double>(i));
        const sim::Tick end =
            start + fromSeconds(i % 1000 == 0 ? 200.0 : 0.001);
        sink.complete(telemetry::TracePid::kEngine, i, "step", "engine",
                      start, end);
        if (i >= kRecords - 65536 && end >= from && start <= to)
            expected.push_back(i);
    }
    ASSERT_GT(sink.eventCount(), 65536u);
    rec.trigger(IncidentTrigger::SloBurn, to, "long log");
    ASSERT_EQ(rec.incidentsDumped(), 1);

    const std::filesystem::path dir = rec.incidentPaths()[0];
    std::vector<std::uint64_t> steps;
    std::size_t lanes = 0;
    std::istringstream lines(readFile(dir / "trace.json"));
    for (std::string line; std::getline(lines, line);) {
        const auto at = line.find("\"tid\":");
        if (line.find("\"ph\":\"X\"") != std::string::npos)
            steps.push_back(std::stoull(line.substr(at + 6)));
        else if (line.find("thread_name") != std::string::npos)
            ++lanes;
    }
    EXPECT_EQ(steps, expected);
    EXPECT_EQ(lanes, (kRecords + 4095) / 4096);
    // Long spans from outside the newest 65,536 records stay out.
    EXPECT_EQ(std::count(steps.begin(), steps.end(), 34000u), 0);
    EXPECT_EQ(std::count(steps.begin(), steps.end(), 35000u), 1);
    EXPECT_NE(readFile(dir / "manifest.json")
                  .find("\"trace_events\": " +
                        std::to_string(expected.size()) + ",\n"),
              std::string::npos);
}

TEST(FlightRecorderTest, BundlesCarryMetadataNamedBetweenDumps)
{
    FlightRecorder rec({.incidentDir = incidentDir("metadata_growth"),
                        .metadataCapacity = 3,
                        .debounceSeconds = 0.0});
    telemetry::TraceSink sink;
    sink.attachRecorder(&rec);
    auto bundle_trace = [&](std::size_t i) {
        return readFile(std::filesystem::path(rec.incidentPaths()[i]) /
                        "trace.json");
    };
    sink.threadName(telemetry::TracePid::kEngine, 1, "lane one");
    rec.trigger(IncidentTrigger::SloBurn, fromSeconds(1), "first");
    sink.threadName(telemetry::TracePid::kEngine, 2, "lane two");
    sink.threadName(telemetry::TracePid::kEngine, 3, "lane three");
    sink.threadName(telemetry::TracePid::kEngine, 4, "lane four");
    rec.trigger(IncidentTrigger::SloBurn, fromSeconds(2), "second");
    // A cleared sink starts its names over.
    sink.clear();
    sink.threadName(telemetry::TracePid::kEngine, 5, "lane five");
    rec.trigger(IncidentTrigger::SloBurn, fromSeconds(3), "third");
    ASSERT_EQ(rec.incidentsDumped(), 3);

    EXPECT_NE(bundle_trace(0).find("lane one"), std::string::npos);
    EXPECT_EQ(bundle_trace(0).find("lane two"), std::string::npos);
    for (const char *name : {"lane one", "lane two", "lane three"})
        EXPECT_NE(bundle_trace(1).find(name), std::string::npos) << name;
    EXPECT_EQ(bundle_trace(1).find("lane four"), std::string::npos);
    EXPECT_EQ(bundle_trace(2).find("lane one"), std::string::npos);
    EXPECT_NE(bundle_trace(2).find("lane five"), std::string::npos);
    EXPECT_EQ(bundle_trace(2).rfind("{\"traceEvents\":[\n{", 0), 0u);
}

// ---------------------------------------------------------------------
// Pins: digests of the trace and incident-bundle bytes of small
// observed runs. Any change to how trace events are stored or
// rendered must reproduce them exactly.
// ---------------------------------------------------------------------

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

/** The agentsim_slo_p*_seconds sample lines of @p prom, in order. */
std::vector<std::string>
sloPercentileLines(const std::string &prom)
{
    std::vector<std::string> out;
    std::istringstream lines(prom);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("agentsim_slo_p", 0) == 0)
            out.push_back(line);
    }
    return out;
}

TEST(TracePin, ClusterSloPercentiles)
{
    // Bucket midpoints of each metric's HDR histogram, within 1% of
    // the exact order statistics of the run's observations (ttft p95
    // 0.074200 s, tbt p99 0.028394 s, e2e p99 7.614594 s).
    ObservedCluster c;
    c.run(incidentDir("pin_cluster_slo"));
    EXPECT_EQ(
        sloPercentileLines(c.session.registry.renderPrometheus()),
        (std::vector<std::string>{
            R"(agentsim_slo_p50_seconds{metric="ttft"} 0.032511999999999999)",
            R"(agentsim_slo_p50_seconds{metric="tbt"} 0.019328000000000001)",
            R"(agentsim_slo_p50_seconds{metric="e2e"} 1.6875520000000002)",
            R"(agentsim_slo_p95_seconds{metric="ttft"} 0.07424)",
            R"(agentsim_slo_p95_seconds{metric="tbt"} 0.020864000000000001)",
            R"(agentsim_slo_p95_seconds{metric="e2e"} 5.5377920000000005)",
            R"(agentsim_slo_p99_seconds{metric="ttft"} 0.10956800000000001)",
            R"(agentsim_slo_p99_seconds{metric="tbt"} 0.028416000000000004)",
            R"(agentsim_slo_p99_seconds{metric="e2e"} 7.6677119999999999)",
        }));
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
