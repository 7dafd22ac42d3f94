/**
 * @file
 * Tier-1 coverage of the telemetry subsystem: registry exposition,
 * time-series sampling of a serving run, cross-layer Chrome trace
 * validity and the jsonEscape control-character fix.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/bottleneck_report.hh"
#include "core/probe.hh"
#include "core/serving_system.hh"
#include "core/table.hh"
#include "core/trace_export.hh"
#include "serving/checkpoint.hh"
#include "serving/engine.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/registry.hh"
#include "telemetry/session.hh"
#include "telemetry/slo.hh"
#include "telemetry/span.hh"
#include "telemetry/stat_table.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_sink.hh"

using namespace agentsim;

namespace
{

/**
 * Minimal recursive-descent JSON validator: structural validity only
 * (objects, arrays, strings with escapes, numbers, literals). Returns
 * true iff the whole input is one valid JSON value.
 */
class JsonValidator
{
  public:
    explicit JsonValidator(std::string text) : s_(std::move(text)) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    std::string s_;
    std::size_t pos_ = 0;

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    bool eof() const { return pos_ >= s_.size(); }

    void
    skipWs()
    {
        while (!eof() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                          s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (!eof()) {
            const char c = s_[pos_];
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control char: invalid JSON
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (eof())
                    return false;
                const char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 1; i <= 4; ++i) {
                        if (pos_ + i >= s_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                s_[pos_ + i])))
                            return false;
                    }
                    pos_ += 4;
                } else if (std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (peek() == '.') {
            ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return pos_ > start;
    }

    bool
    value()
    {
        skipWs();
        switch (peek()) {
          case '{': {
              ++pos_;
              skipWs();
              if (peek() == '}') {
                  ++pos_;
                  return true;
              }
              for (;;) {
                  skipWs();
                  if (!string())
                      return false;
                  skipWs();
                  if (peek() != ':')
                      return false;
                  ++pos_;
                  if (!value())
                      return false;
                  skipWs();
                  if (peek() == ',') {
                      ++pos_;
                      continue;
                  }
                  if (peek() == '}') {
                      ++pos_;
                      return true;
                  }
                  return false;
              }
          }
          case '[': {
              ++pos_;
              skipWs();
              if (peek() == ']') {
                  ++pos_;
                  return true;
              }
              for (;;) {
                  if (!value())
                      return false;
                  skipWs();
                  if (peek() == ',') {
                      ++pos_;
                      continue;
                  }
                  if (peek() == ']') {
                      ++pos_;
                      return true;
                  }
                  return false;
              }
          }
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }
};

/** Count occurrences of a substring. */
int
countOf(const std::string &hay, const std::string &needle)
{
    int n = 0;
    for (std::size_t p = hay.find(needle); p != std::string::npos;
         p = hay.find(needle, p + needle.size()))
        ++n;
    return n;
}

/** Run a small instrumented ReAct workload once. */
const telemetry::SessionTelemetry &
reactSession()
{
    static telemetry::SessionTelemetry session;
    static bool ran = false;
    if (!ran) {
        core::ServeConfig cfg;
        cfg.agent = agents::AgentKind::ReAct;
        cfg.bench = workload::Benchmark::HotpotQA;
        cfg.engineConfig = core::enginePreset8b();
        cfg.qps = 2.0;
        cfg.numRequests = 8;
        cfg.seed = 11;
        cfg.telemetry = &session;
        cfg.spans = &session.spans;
        cfg.timeseries = &session.timeseries;
        core::runServing(cfg);
        ran = true;
    }
    return session;
}

} // namespace

TEST(Telemetry, SamplerSeriesMonotoneAndComplete)
{
    const auto &session = reactSession();
    const telemetry::TimeSeriesStore &ts = session.timeseries;
    const sim::Tick all = std::numeric_limits<sim::Tick>::max();
    for (const char *name :
         {"agentsim_engine_steps_total", "agentsim_prefill_tokens_total",
          "agentsim_kv_blocks_used", "agentsim_queue_depth"}) {
        ASSERT_TRUE(ts.has(name)) << name;
        const auto points = ts.window(name, 0, all);
        ASSERT_GT(points.size(), 10u) << name;
        for (std::size_t i = 1; i < points.size(); ++i) {
            EXPECT_GT(points[i].tick, points[i - 1].tick)
                << name << " point " << i << " goes back in time";
        }
        for (const auto &p : points)
            EXPECT_GE(p.value, 0.0) << name;
    }
    // Counters never fall between samples.
    for (const char *name :
         {"agentsim_engine_steps_total", "agentsim_prefill_tokens_total"}) {
        const auto points = ts.window(name, 0, all);
        for (std::size_t i = 1; i < points.size(); ++i)
            EXPECT_GE(points[i].value, points[i - 1].value) << name;
    }
    for (const auto &p :
         ts.window("agentsim_kv_prefix_hit_rate", 0, all)) {
        EXPECT_GE(p.value, 0.0);
        EXPECT_LE(p.value, 1.0);
    }
    // The last sample precedes the end-of-run export.
    double exported = 0.0;
    session.registry.forEachScalar(
        [&](const std::string &name, double value) {
            if (name == "agentsim_engine_steps_total")
                exported = value;
        });
    const auto steps = ts.window("agentsim_engine_steps_total", 0, all);
    EXPECT_GT(steps.back().value, 0.0);
    EXPECT_LE(steps.back().value, exported);
    // CSV: header plus one row per retained point.
    EXPECT_EQ(countOf(ts.renderCsv(), "\n"),
              static_cast<int>(ts.pointsRetained()) + 1);
}

TEST(Telemetry, PrometheusOutputParsesLineByLine)
{
    const auto &session = reactSession();
    const std::string text = session.registry.renderPrometheus();
    EXPECT_GE(session.registry.families(), 10u);

    std::size_t start = 0;
    int samples = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        ASSERT_NE(end, std::string::npos) << "missing final newline";
        const std::string line = text.substr(start, end - start);
        start = end + 1;
        ASSERT_FALSE(line.empty());
        if (line[0] == '#') {
            EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                        line.rfind("# TYPE ", 0) == 0)
                << line;
            continue;
        }
        // Sample line: <name>[{labels}] <float>
        const std::size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        const std::string name = line.substr(0, sp);
        const std::string value = line.substr(sp + 1);
        EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(name[0])))
            << line;
        char *parse_end = nullptr;
        std::strtod(value.c_str(), &parse_end);
        EXPECT_EQ(*parse_end, '\0') << "unparsable value: " << line;
        ++samples;
    }
    EXPECT_GE(samples, 10);
    EXPECT_NE(text.find("agentsim_kv_blocks_used"), std::string::npos);
    EXPECT_NE(text.find("agentsim_request_e2e_seconds_bucket"),
              std::string::npos);
}

TEST(Telemetry, ChromeTraceIsValidCrossLayerJson)
{
    const auto &session = reactSession();
    const std::string json = session.trace.toJson();

    JsonValidator v(json);
    EXPECT_TRUE(v.valid());

    // All three layers are present on the shared clock.
    EXPECT_NE(json.find("\"name\":\"step\""), std::string::npos);
    EXPECT_NE(json.find("\"queued\""), std::string::npos);
    EXPECT_NE(json.find("\"prefill\""), std::string::npos);
    EXPECT_NE(json.find("\"decode\""), std::string::npos);
    EXPECT_NE(json.find("react.step"), std::string::npos);

    // Only M/X/C/i plus nestable-async b/e (the tail-exemplar span
    // track) are emitted; B/E must balance (we emit none, so both
    // counts are zero) and so must b/e.
    EXPECT_EQ(countOf(json, "\"ph\":\"B\""),
              countOf(json, "\"ph\":\"E\""));
    EXPECT_EQ(countOf(json, "\"ph\":\"b\""),
              countOf(json, "\"ph\":\"e\""));
    const int events = countOf(json, "\"ph\":\"");
    const int known = countOf(json, "\"ph\":\"M\"") +
                      countOf(json, "\"ph\":\"X\"") +
                      countOf(json, "\"ph\":\"C\"") +
                      countOf(json, "\"ph\":\"i\"") +
                      countOf(json, "\"ph\":\"b\"") +
                      countOf(json, "\"ph\":\"e\"");
    EXPECT_EQ(events, known);
    EXPECT_GT(events, 100);

    // Complete events never have negative durations.
    EXPECT_EQ(countOf(json, "\"dur\":-"), 0);
}

TEST(Telemetry, JsonEscapeHandlesControlCharacters)
{
    const std::string nasty =
        std::string("tab\there\r\n\"quote\"\\slash\x01\x1f");
    const std::string escaped = telemetry::jsonEscape(nasty);
    EXPECT_EQ(escaped,
              "tab\\there\\r\\n\\\"quote\\\"\\\\slash\\u0001\\u001f");

    // The whole string must round-trip through the validator as a
    // JSON document.
    JsonValidator v("\"" + escaped + "\"");
    EXPECT_TRUE(v.valid());
}

TEST(Telemetry, RecordsPastTheStackBufferRenderWhole)
{
    // Records longer than the renderer's stack buffer take the direct
    // path and render the same bytes.
    static const std::string control(700, '\x01');
    const std::string long_name(3000, 'n');
    telemetry::TraceSink sink;
    sink.instant(1, 2, long_name, "c", 5);
    sink.complete(1, 3, "short", "c", 1, 3,
                  {telemetry::TraceArg::text("note", control.c_str()),
                   telemetry::TraceArg::integer("k", 7)});
    std::string escaped;
    for (std::size_t i = 0; i < control.size(); ++i)
        escaped += "\\u0001";
    const std::string json = sink.toJson();
    EXPECT_NE(json.find("{\"name\":\"" + long_name +
                        "\",\"cat\":\"c\",\"ph\":\"i\",\"ts\":5,\"pid\":1,"
                        "\"tid\":2,\"s\":\"t\"}"),
              std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"short\",\"cat\":\"c\",\"ph\":\"X\","
                        "\"ts\":1,\"dur\":2,\"pid\":1,\"tid\":3,"
                        "\"args\":{\"note\":\"" +
                        escaped + "\",\"k\":7}}"),
              std::string::npos);
    JsonValidator v(json);
    EXPECT_TRUE(v.valid());
}

TEST(Telemetry, AgentTraceExportSurvivesTabsInLabels)
{
    agents::AgentResult result;
    agents::Span span;
    span.kind = agents::Span::Kind::Tool;
    span.start = 10;
    span.end = 20;
    span.label = "observe\tcol1\tcol2\r\x02";
    result.timeline.push_back(span);

    const std::string json =
        core::toChromeTrace(result, "escape\ttest");
    JsonValidator v(json);
    EXPECT_TRUE(v.valid());
    EXPECT_NE(json.find("\\u0002"), std::string::npos);
}

TEST(Telemetry, RegistryScalarsSampleIntoStore)
{
    telemetry::MetricsRegistry reg;
    auto &c = reg.counter("demo_total", "demo counter");
    auto &g = reg.gauge("demo_gauge", "demo gauge");
    auto &h = reg.histogram("demo_hist", "demo histogram", 0, 10, 5);

    telemetry::TimeSeriesStore ts;
    c.add(1);
    g.set(2.5);
    h.observe(3.0);
    ts.sample(reg, sim::fromSeconds(1.0));
    c.add(2);
    h.observe(7.0);
    ts.sample(reg, sim::fromSeconds(2.0));

    // One series per scalar; histograms as _count and _sum.
    EXPECT_EQ(ts.seriesCount(), 4u);
    const std::string csv = ts.renderCsv();
    EXPECT_EQ(countOf(csv, "\n"), 9); // header + 4 series x 2 points
    EXPECT_NE(csv.find("demo_total,2.000000,3\n"), std::string::npos);
    EXPECT_NE(csv.find("demo_gauge,2.000000,2.5\n"), std::string::npos);
    EXPECT_NE(csv.find("demo_hist_count,2.000000,2\n"),
              std::string::npos);
    EXPECT_NE(csv.find("demo_hist_sum,2.000000,10\n"), std::string::npos);

    // Re-registering with the same name returns the same metric.
    EXPECT_EQ(&reg.counter("demo_total", ""), &c);
    EXPECT_EQ(reg.families(), 3u);
}

TEST(Telemetry, LabelledSeriesShareOneFamily)
{
    telemetry::MetricsRegistry reg;
    reg.counter("req_total", "requests", {{"node", "0"}}).set(3);
    reg.counter("req_total", "ignored help", {{"node", "1"}}).set(4);
    reg.counter("req_total", "", {{"node", "0"}}).add(1);
    reg.gauge("depth", "queue depth").set(2);
    reg.histogram("lat", "latency", 0, 2, 2, {{"node", "0"}}).observe(1.5);
    EXPECT_EQ(reg.families(), 3u);

    const std::string prom = reg.renderPrometheus();
    EXPECT_EQ(prom,
              "# HELP req_total requests\n"
              "# TYPE req_total counter\n"
              "req_total{node=\"0\"} 4\n"
              "req_total{node=\"1\"} 4\n"
              "# HELP depth queue depth\n"
              "# TYPE depth gauge\n"
              "depth 2\n"
              "# HELP lat latency\n"
              "# TYPE lat histogram\n"
              "lat_bucket{node=\"0\",le=\"1\"} 0\n"
              "lat_bucket{node=\"0\",le=\"2\"} 1\n"
              "lat_bucket{node=\"0\",le=\"+Inf\"} 1\n"
              "lat_sum{node=\"0\"} 1.5\n"
              "lat_count{node=\"0\"} 1\n");

    std::vector<std::string> keys;
    reg.forEachScalar(
        [&](const std::string &key, double) { keys.push_back(key); });
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "req_total{node=\"0\"}", "req_total{node=\"1\"}",
                        "depth", "lat_sum{node=\"0\"}",
                        "lat_count{node=\"0\"}"}));
}

TEST(Telemetry, LabelValuesAreEscaped)
{
    telemetry::MetricsRegistry reg;
    reg.counter("c_total", "c", {{"a", "x"}, {"b", "y"}}).set(1);
    reg.counter("c_total", "c", {{"k", "say \"hi\"\\now\nthen"}}).set(2);
    // An escaped value names its own series, and stays on one line.
    reg.counter("c_total", "c", {{"k", "a\nb"}}).set(3);
    reg.counter("c_total", "c", {{"k", "a\\nb"}}).set(4);
    const std::string prom = reg.renderPrometheus();
    EXPECT_NE(prom.find("c_total{a=\"x\",b=\"y\"} 1\n"), std::string::npos);
    EXPECT_NE(prom.find("c_total{k=\"say \\\"hi\\\"\\\\now\\nthen\"} 2\n"),
              std::string::npos);
    EXPECT_NE(prom.find("c_total{k=\"a\\nb\"} 3\n"), std::string::npos);
    EXPECT_NE(prom.find("c_total{k=\"a\\\\nb\"} 4\n"), std::string::npos);
    EXPECT_EQ(countOf(prom, "\n"), 6);
}

TEST(Telemetry, CsvQuotesOnlyLabelledKeys)
{
    telemetry::MetricsRegistry reg;
    reg.counter("plain_total", "plain").set(1);
    reg.counter("tier_total", "tiered", {{"tier", "dram"}, {"node", "0"}})
        .set(2);
    telemetry::TimeSeriesStore ts;
    ts.sample(reg, sim::fromSeconds(1.0));
    EXPECT_EQ(ts.renderCsv(),
              "series,time_s,value\n"
              "plain_total,1.000000,1\n"
              "\"tier_total{tier=\"\"dram\"\",node=\"\"0\"\"}\","
              "1.000000,2\n");
    EXPECT_TRUE(ts.has("tier_total{tier=\"dram\",node=\"0\"}"));
}

TEST(Telemetry, EngineStatsSumThroughTheFieldTable)
{
    // Give every member a distinct value, then sum two copies.
    serving::EngineStats a;
    serving::EngineStats b;
    const auto table = serving::kEngineStatFields;
    for (std::size_t i = 0; i < table.size(); ++i) {
        std::visit(
            [&](auto m) {
                a.*m = static_cast<std::remove_reference_t<decltype(a.*m)>>(
                    i + 1);
                b.*m = static_cast<std::remove_reference_t<decltype(b.*m)>>(
                    100 * (i + 1));
            },
            table[i].member);
    }
    serving::EngineStats sum;
    telemetry::accumulateStats(table, sum, a);
    telemetry::accumulateStats(table, sum, b);
    for (std::size_t i = 0; i < table.size(); ++i)
        EXPECT_EQ(table[i].value(sum), 101.0 * (i + 1)) << i;
    EXPECT_EQ(sum.requestsSubmitted, 101);
    EXPECT_EQ(sum.busyJoules, 101.0 * static_cast<double>(table.size()));

    // Each exported name is declared once across the engine tables.
    std::set<std::string> names;
    std::size_t exported = 0;
    auto collect = [&](const auto &rows) {
        for (const auto &f : rows) {
            if (f.name == nullptr)
                continue;
            names.insert(f.name);
            ++exported;
        }
    };
    collect(table);
    collect(serving::kCacheStatFields);
    collect(serving::kTierStatFields);
    collect(serving::kRecoveryStatFields);
    EXPECT_EQ(names.size(), exported);
}

TEST(Telemetry, WriteTextFileRewritesInPlace)
{
    const auto dir =
        std::filesystem::path(::testing::TempDir()) / "agentsim" /
        "write_text_file";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "artifact.txt").string();
    auto read_back = [&] {
        std::ifstream in(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    // A new file, a longer rewrite, a shorter one (no stale tail) and
    // one of the same length each read back exactly the new bytes.
    for (const std::string text :
         {"first\n", "a longer second version\n", "short\n", "SHORT\n"}) {
        ASSERT_TRUE(telemetry::writeTextFile(path, text)) << text;
        EXPECT_EQ(read_back(), text);
    }
    ASSERT_TRUE(telemetry::writeTextFile(path, ""));
    EXPECT_EQ(read_back(), "");
    EXPECT_FALSE(telemetry::writeTextFile(
        (dir / "missing" / "artifact.txt").string(), "x\n"));
    std::filesystem::remove_all(dir);
}

TEST(Telemetry, WriteTextFileReportsFailedFlush)
{
    // /dev/full accepts the open, then fails the write with ENOSPC.
    EXPECT_FALSE(telemetry::writeTextFile("/dev/full", "hello\n"));
    EXPECT_FALSE(
        telemetry::writeArtifact("/dev/full", "hello\n", "test file"));
    core::Table table("full disk");
    table.header({"a"});
    table.row({"1"});
    EXPECT_FALSE(table.writeCsv("/dev/full"));
}

TEST(Telemetry, LogLevelParsingAndFilter)
{
    using sim::LogLevel;
    EXPECT_EQ(sim::parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(sim::parseLogLevel("INFO"), LogLevel::Info);
    EXPECT_EQ(sim::parseLogLevel("Warning"), LogLevel::Warn);
    EXPECT_EQ(sim::parseLogLevel("quiet"), LogLevel::Error);
    EXPECT_EQ(sim::parseLogLevel("bogus"), std::nullopt);

    const LogLevel saved = sim::logLevel();
    sim::setLogLevel(LogLevel::Error);
    EXPECT_FALSE(sim::logEnabled(LogLevel::Warn));
    EXPECT_FALSE(sim::logEnabled(LogLevel::Info));
    EXPECT_TRUE(sim::logEnabled(LogLevel::Error));
    sim::setLogLevel(LogLevel::Debug);
    EXPECT_TRUE(sim::logEnabled(LogLevel::Debug));
    sim::setLogLevel(saved);
}

TEST(Telemetry, BlockManagerExposesOccupancyGauges)
{
    kv::BlockManagerConfig cfg;
    cfg.numBlocks = 16;
    cfg.blockSize = 4;
    kv::BlockManager mgr(cfg);
    EXPECT_EQ(mgr.blocksInUse(), 0);
    EXPECT_EQ(mgr.blocksFree(), 16);

    std::vector<kv::TokenId> prompt(10, 42);
    for (std::size_t i = 0; i < prompt.size(); ++i)
        prompt[i] = 1000 + i;
    ASSERT_TRUE(mgr.allocatePrompt(1, kv::TokenChain(cfg.blockSize, prompt))
                    .has_value());
    EXPECT_EQ(mgr.blocksInUse(), 3); // ceil(10 / 4)
    EXPECT_EQ(mgr.blocksInUse() + mgr.blocksFree(), mgr.totalBlocks());

    mgr.release(1);
    EXPECT_EQ(mgr.blocksInUse(), 0);
    EXPECT_EQ(mgr.blocksFree(), 16);
}

// ---------------------------------------------------------------------
// Online SLO tracker (telemetry/slo.hh).
// ---------------------------------------------------------------------

namespace
{

using telemetry::SloConfig;
using telemetry::SloMetric;
using telemetry::SloTracker;

SloConfig
tightTtft()
{
    SloConfig cfg;
    cfg.ttftTargetSeconds = 1.0;
    cfg.tbtTargetSeconds = 0.0; // disabled
    cfg.e2eTargetSeconds = 0.0; // disabled
    cfg.windowSeconds = 10.0;
    cfg.attainmentTarget = 0.95;
    cfg.burnRateAlertThreshold = 2.0;
    cfg.minWindowSamples = 10;
    return cfg;
}

TEST(Slo, AttainmentCountsViolationsAndFailures)
{
    SloTracker slo(tightTtft());
    for (int i = 0; i < 8; ++i)
        slo.observe(SloMetric::Ttft, sim::fromSeconds(0.1 * i), 0.5);
    slo.observe(SloMetric::Ttft, sim::fromSeconds(0.9), 3.0);
    slo.observeFailure(SloMetric::Ttft, sim::fromSeconds(1.0));
    EXPECT_EQ(slo.observations(SloMetric::Ttft), 10);
    EXPECT_EQ(slo.violations(SloMetric::Ttft), 2);
    EXPECT_NEAR(slo.attainment(SloMetric::Ttft), 0.8, 1e-12);
    // 2/10 violations against a 5% budget: burn rate 4x.
    EXPECT_NEAR(
        slo.windowBurnRate(SloMetric::Ttft, sim::fromSeconds(1.0)),
        4.0, 1e-12);
}

TEST(Slo, DisabledMetricRecordsNothing)
{
    SloTracker slo(tightTtft());
    slo.observe(SloMetric::Tbt, 0, 100.0);
    slo.observeFailure(SloMetric::E2e, 0);
    EXPECT_EQ(slo.observations(SloMetric::Tbt), 0);
    EXPECT_EQ(slo.observations(SloMetric::E2e), 0);
    EXPECT_EQ(slo.alertsFired(), 0);
}

TEST(Slo, AlertFiresOncePerWindowAndEmitsTraceInstant)
{
    SloTracker slo(tightTtft());
    telemetry::TraceSink trace;
    slo.attachTrace(&trace);
    const std::size_t baseline = trace.eventCount();

    // Window 1: 10 samples, 3 violations -> burn 6x, one alert even
    // though more violations keep arriving.
    for (int i = 0; i < 7; ++i)
        slo.observe(SloMetric::Ttft, sim::fromSeconds(0.1 * i), 0.2);
    for (int i = 0; i < 5; ++i)
        slo.observe(SloMetric::Ttft, sim::fromSeconds(1.0 + 0.1 * i),
                    5.0);
    EXPECT_EQ(slo.alertsFired(SloMetric::Ttft), 1);
    EXPECT_GT(trace.eventCount(), baseline);
    EXPECT_NE(trace.toJson().find("slo_alert_ttft"), std::string::npos);

    // Window 2 (t in [10, 20)): clean samples -> no new alert.
    for (int i = 0; i < 20; ++i)
        slo.observe(SloMetric::Ttft, sim::fromSeconds(10.5 + 0.1 * i),
                    0.2);
    EXPECT_EQ(slo.alertsFired(SloMetric::Ttft), 1);

    // Window 3 (t in [20, 30)): violations again -> second alert.
    for (int i = 0; i < 10; ++i)
        slo.observe(SloMetric::Ttft, sim::fromSeconds(20.5 + 0.1 * i),
                    5.0);
    EXPECT_EQ(slo.alertsFired(SloMetric::Ttft), 2);
}

TEST(Slo, WindowRotationJumpsEmptyWindows)
{
    SloTracker slo(tightTtft());
    for (int i = 0; i < 10; ++i)
        slo.observe(SloMetric::Ttft, sim::fromSeconds(0.1 * i), 5.0);
    EXPECT_GT(
        slo.windowBurnRate(SloMetric::Ttft, sim::fromSeconds(1.0)),
        0.0);
    // Long quiet gap; the next observation lands in a fresh window
    // whose burn rate starts from zero despite lifetime violations.
    slo.observe(SloMetric::Ttft, sim::fromSeconds(500.0), 0.2);
    EXPECT_DOUBLE_EQ(
        slo.windowBurnRate(SloMetric::Ttft, sim::fromSeconds(500.0)),
        0.0);
    EXPECT_EQ(slo.violations(SloMetric::Ttft), 10);
}

TEST(Slo, MinWindowSamplesDebouncesAlerts)
{
    auto cfg = tightTtft();
    cfg.minWindowSamples = 50;
    SloTracker slo(cfg);
    // 100% violations but under the sample floor: no alert.
    for (int i = 0; i < 49; ++i)
        slo.observe(SloMetric::Ttft, sim::fromSeconds(0.01 * i), 5.0);
    EXPECT_EQ(slo.alertsFired(), 0);
    slo.observe(SloMetric::Ttft, sim::fromSeconds(0.5), 5.0);
    EXPECT_EQ(slo.alertsFired(), 1);
}

TEST(Slo, ExportMetricsEmitsFamiliesOnlyForEnabledMetrics)
{
    SloTracker slo(tightTtft());
    for (int i = 0; i < 12; ++i)
        slo.observe(SloMetric::Ttft, sim::fromSeconds(0.1 * i),
                    i % 2 == 0 ? 0.5 : 2.0);
    telemetry::MetricsRegistry registry;
    slo.exportMetrics(registry, sim::fromSeconds(1.2));
    const std::string prom = registry.renderPrometheus();
    EXPECT_NE(prom.find("agentsim_slo_p95_seconds{metric=\"ttft\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("agentsim_slo_attainment{metric=\"ttft\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("agentsim_slo_violations_total{metric=\"ttft\"}"),
              std::string::npos);
    // Disabled metrics export nothing.
    EXPECT_EQ(prom.find("metric=\"tbt\""), std::string::npos);
    EXPECT_EQ(prom.find("metric=\"e2e\""), std::string::npos);
}

TEST(Slo, ResetPreservesTargets)
{
    SloTracker slo(tightTtft());
    for (int i = 0; i < 15; ++i)
        slo.observe(SloMetric::Ttft, sim::fromSeconds(0.1 * i), 5.0);
    EXPECT_GT(slo.alertsFired(), 0);
    slo.reset();
    EXPECT_EQ(slo.observations(SloMetric::Ttft), 0);
    EXPECT_EQ(slo.alertsFired(), 0);
    // Still tracking TTFT after reset (target survived).
    slo.observe(SloMetric::Ttft, 0, 0.5);
    EXPECT_EQ(slo.observations(SloMetric::Ttft), 1);
}

TEST(Telemetry, WellKnownTraceNamesSurviveClear)
{
    telemetry::TraceSink sink;
    sink.instant(telemetry::TracePid::kEngine, 1, "cold", "engine", 0);
    for (int round = 0; round < 2; ++round) {
        sink.complete(telemetry::TracePid::kEngine, 1,
                      telemetry::TraceName::Step, "engine", 0, 5);
        sink.counter(telemetry::TracePid::kEngine,
                     telemetry::TraceName::KvBlocks, 5,
                     {telemetry::TraceArg::integer("used", 3)});
        // A string for a well-known name is the same name.
        sink.complete(telemetry::TracePid::kRequests, 7, "decode",
                      "request", 0, 5);
        const std::string json = sink.toJson();
        EXPECT_NE(json.find("{\"name\":\"step\",\"cat\":\"engine\""),
                  std::string::npos);
        EXPECT_NE(json.find("{\"name\":\"kv_blocks\",\"ph\":\"C\""),
                  std::string::npos);
        EXPECT_NE(json.find("{\"name\":\"decode\",\"cat\":\"request\""),
                  std::string::npos);
        sink.clear();
    }
}

/** Every record the sink holds, in log order (no metadata). */
std::vector<const telemetry::TraceRecord *>
dataRecords(const telemetry::TraceSink &sink)
{
    std::vector<const telemetry::TraceRecord *> records;
    sink.forEachDataInWindow(sink.eventCount(), 0,
                             std::numeric_limits<sim::Tick>::max(),
                             [&](const telemetry::TraceRecord &r) {
                                 records.push_back(&r);
                             });
    return records;
}

TEST(Telemetry, CompactRecordKeepsEveryArgKind)
{
    using telemetry::TraceArg;
    using telemetry::TracePid;
    static_assert(sizeof(telemetry::TraceRecord) == 64);
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    char huge[400];
    std::snprintf(huge, sizeof(huge), "%.6f", 1e300);

    telemetry::TraceSink sink;
    sink.processName(TracePid::kEngine, "engine");
    sink.threadName(TracePid::kEngine, 9, "lane");
    sink.complete(TracePid::kEngine, 9, "none", "c", 1, 3);
    sink.complete(TracePid::kEngine, 9, "ints", "c", 1, 3,
                  {TraceArg::integer("min", kMin)});
    sink.complete(TracePid::kEngine, 9, "reals", "c", 1, 3,
                  {TraceArg::real("neg0", -0.0), TraceArg::real("big", 1e300)});
    sink.asyncBegin(TracePid::kSpans, 0xab, "mixed", "s", 4,
                    {TraceArg::integer("max", kMax),
                     TraceArg::boolean("yes", true),
                     TraceArg::boolean("no", false)});
    sink.asyncEnd(TracePid::kSpans, 0xab, "mixed", "s", 5);
    sink.counter(TracePid::kEngine, "four", 6,
                 {TraceArg::integer("a", -1), TraceArg::real("b", 0.5),
                  TraceArg::boolean("c", true),
                  TraceArg::text("d", "q\"b\\s\n\x01")});
    sink.counter(TracePid::kEngine, "empty", 7, {});
    sink.instant(TracePid::kSlo, 2, "alert", "slo", 8);
    // The same key with another kind is another shape.
    sink.counter(TracePid::kEngine, "kind", 9, {TraceArg::integer("v", 1)});
    sink.counter(TracePid::kEngine, "kind", 9, {TraceArg::real("v", 1.0)});

    const std::string expected =
        std::string("{\"traceEvents\":[\n") +
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"engine\"}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":9,"
        "\"args\":{\"name\":\"lane\"}},\n"
        "{\"name\":\"none\",\"cat\":\"c\",\"ph\":\"X\",\"ts\":1,\"dur\":2,"
        "\"pid\":1,\"tid\":9},\n"
        "{\"name\":\"ints\",\"cat\":\"c\",\"ph\":\"X\",\"ts\":1,\"dur\":2,"
        "\"pid\":1,\"tid\":9,\"args\":{\"min\":-9223372036854775808}},\n"
        "{\"name\":\"reals\",\"cat\":\"c\",\"ph\":\"X\",\"ts\":1,\"dur\":2,"
        "\"pid\":1,\"tid\":9,\"args\":{\"neg0\":-0.000000,\"big\":" +
        huge +
        "}},\n"
        "{\"name\":\"mixed\",\"cat\":\"s\",\"ph\":\"b\",\"id\":\"0xab\","
        "\"ts\":4,\"pid\":6,\"tid\":171,\"args\":{"
        "\"max\":9223372036854775807,\"yes\":true,\"no\":false}},\n"
        "{\"name\":\"mixed\",\"cat\":\"s\",\"ph\":\"e\",\"id\":\"0xab\","
        "\"ts\":5,\"pid\":6,\"tid\":171},\n"
        "{\"name\":\"four\",\"ph\":\"C\",\"ts\":6,\"pid\":1,\"args\":{"
        "\"a\":-1,\"b\":0.500000,\"c\":true,"
        "\"d\":\"q\\\"b\\\\s\\n\\u0001\"}},\n"
        "{\"name\":\"empty\",\"ph\":\"C\",\"ts\":7,\"pid\":1,\"args\":{}},\n"
        "{\"name\":\"alert\",\"cat\":\"slo\",\"ph\":\"i\",\"ts\":8,"
        "\"pid\":4,\"tid\":2,\"s\":\"t\"},\n"
        "{\"name\":\"kind\",\"ph\":\"C\",\"ts\":9,\"pid\":1,"
        "\"args\":{\"v\":1}},\n"
        "{\"name\":\"kind\",\"ph\":\"C\",\"ts\":9,\"pid\":1,"
        "\"args\":{\"v\":1.000000}}"
        "\n],\"displayTimeUnit\":\"ms\"}\n";
    EXPECT_EQ(sink.toJson(), expected);

    const auto records = dataRecords(sink);
    ASSERT_EQ(records.size(), 10u);
    EXPECT_NE(records[8]->shape, records[9]->shape);
    EXPECT_EQ(sink.pid(*records[3]), TracePid::kSpans);
}

TEST(Telemetry, ShapeIdsSurviveClear)
{
    using telemetry::TraceArg;
    using telemetry::TracePid;
    auto emit = [](telemetry::TraceSink &sink, bool reversed) {
        auto cold = [&] {
            sink.counter(TracePid::kSlo, "burn", 1,
                         {TraceArg::real("x", 2.0)});
        };
        if (!reversed)
            cold();
        sink.complete(TracePid::kEngine, 1, telemetry::TraceName::Step,
                      "engine", 0, 5,
                      {TraceArg::integer("prefill_tokens", 1),
                       TraceArg::integer("decode_tokens", 2),
                       TraceArg::integer("running", 3),
                       TraceArg::integer("waiting", 4)});
        sink.instant(TracePid::kRequests, 7, "preempt", "request", 3);
        if (reversed)
            cold();
    };
    // A cleared sink is a new sink: the same events give the same
    // shape ids and the same bytes, whatever came before the clear().
    telemetry::TraceSink fresh;
    emit(fresh, true);
    telemetry::TraceSink reused;
    reused.asyncBegin(TracePid::kSpans, 1, "other", "span", 0,
                      {TraceArg::boolean("b", true)});
    emit(reused, false);
    reused.clear();
    emit(reused, true);
    EXPECT_EQ(reused.toJson(), fresh.toJson());
    const auto a = dataRecords(fresh);
    const auto b = dataRecords(reused);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i]->shape, b[i]->shape) << "record " << i;
}

TEST(Telemetry, TraceRecordsStayInPlace)
{
    constexpr std::size_t kRecords = 5 * telemetry::TraceSink::kIndexBlock + 7;
    telemetry::TraceSink sink;
    auto fill = [&] {
        for (std::size_t i = 0; i < kRecords; ++i) {
            sink.instant(telemetry::TracePid::kEngine, i, "tick", "test",
                         static_cast<sim::Tick>(i));
        }
    };
    sink.instant(telemetry::TracePid::kEngine, 0, "first", "test", 0);
    const telemetry::TraceRecord *first = dataRecords(sink).front();
    fill();
    const auto grown = dataRecords(sink);
    ASSERT_EQ(grown.size(), kRecords + 1);
    EXPECT_EQ(grown.front(), first);
    EXPECT_EQ(grown.front()->name, first->name);

    // clear() keeps the chunks: a refill lands in the same memory.
    const std::set<const telemetry::TraceRecord *> before(grown.begin(),
                                                          grown.end());
    sink.clear();
    sink.instant(telemetry::TracePid::kEngine, 0, "first", "test", 0);
    fill();
    const auto refilled = dataRecords(sink);
    ASSERT_EQ(refilled.size(), kRecords + 1);
    for (const telemetry::TraceRecord *r : refilled)
        ASSERT_EQ(before.count(r), 1u) << "a record outside the old chunks";
}

TEST(Telemetry, ThreadNameBuildsANameOnlyForANewLane)
{
    telemetry::TraceSink sink;
    int built = 0;
    auto name = [&built] {
        ++built;
        return std::string("req 7");
    };
    sink.threadName(telemetry::TracePid::kRequests, 7, name);
    sink.threadName(telemetry::TracePid::kRequests, 7, name);
    sink.threadName(telemetry::TracePid::kRequests, 7, "req 7 again");
    EXPECT_EQ(built, 1);
    EXPECT_EQ(sink.eventCount(), 1u);
    // The same tid on another track is another lane.
    sink.threadName(telemetry::TracePid::kAgents, 7, name);
    EXPECT_EQ(built, 2);
    sink.clear();
    sink.threadName(telemetry::TracePid::kRequests, 7, name);
    EXPECT_EQ(built, 3);
}

TEST(Slo, PercentileAnswersAnyFraction)
{
    SloTracker slo(tightTtft());
    EXPECT_EQ(slo.percentile(SloMetric::Ttft, 0.5), 0.0);
    for (int i = 1; i <= 1000; ++i)
        slo.observe(SloMetric::Ttft, 0, 0.001 * i);
    // Within the histogram's 1% of the exact order statistics.
    for (const double q : {0.1, 0.5, 0.75, 0.95, 0.99})
        EXPECT_NEAR(slo.percentile(SloMetric::Ttft, q), q, 0.011 * q) << q;
}

TEST(Slo, PercentileRejectsPercentScale)
{
    SloTracker slo(tightTtft());
    slo.observe(SloMetric::Ttft, 0, 0.5);
    EXPECT_DEATH(slo.percentile(SloMetric::Ttft, 95.0), "fraction");
    EXPECT_DEATH(slo.percentile(SloMetric::Ttft, 0.0), "fraction");
    EXPECT_DEATH(slo.percentile(SloMetric::Ttft, 1.0), "fraction");
}

namespace
{

/** The "detail" of each incident manifest @p recorder wrote. */
std::vector<std::string>
incidentDetails(const telemetry::FlightRecorder &recorder)
{
    std::vector<std::string> out;
    for (const std::string &dir : recorder.incidentPaths()) {
        std::ifstream in(dir + "/manifest.json");
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        const std::string key = "\"detail\": \"";
        const std::size_t at = text.find(key);
        const std::size_t from = at + key.size();
        out.push_back(at == std::string::npos
                          ? "<no detail>"
                          : text.substr(from, text.find('"', from) - from));
    }
    return out;
}

/** A tracker with its own trace sink and an undebounced recorder. */
struct ObservedSlo
{
    telemetry::TraceSink trace;
    telemetry::FlightRecorder recorder;
    SloTracker slo;

    ObservedSlo(const SloConfig &cfg, const std::string &dir)
        : recorder({.incidentDir = dir, .debounceSeconds = 0.0}), slo(cfg)
    {
        slo.attachTrace(&trace);
        slo.attachRecorder(&recorder);
    }
};

std::string
sloTestDir(const std::string &name)
{
    const auto dir =
        std::filesystem::path(::testing::TempDir()) / "agentsim" / name;
    std::filesystem::remove_all(dir);
    return dir.string();
}

} // namespace

TEST(Slo, WeightedObserveEqualsSingleObserves)
{
    const sim::LogLevel saved = sim::logLevel();
    sim::setLogLevel(sim::LogLevel::Error); // one warning per alert
    const SloMetric metrics[] = {SloMetric::Ttft, SloMetric::Tbt,
                                 SloMetric::E2e};
    std::int64_t alerts = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        sim::Rng rng(seed, "slo-weighted");
        SloConfig cfg;
        cfg.ttftTargetSeconds = 1.0;
        cfg.tbtTargetSeconds = 0.1;
        cfg.e2eTargetSeconds = rng.bernoulli(0.2) ? 0.0 : 20.0;
        cfg.attainmentTarget = rng.uniform(0.5, 0.99);
        cfg.windowSeconds = rng.uniform(1.0, 8.0);
        cfg.burnRateAlertThreshold = rng.uniform(0.3, 6.0);
        cfg.minWindowSamples = rng.uniformInt(0, 40);
        const std::string base = "slo_weighted_" + std::to_string(seed);
        ObservedSlo weighted(cfg, sloTestDir(base + "_w"));
        ObservedSlo single(cfg, sloTestDir(base + "_s"));

        // The test's own window count per metric, to aim batches
        // across minWindowSamples.
        const sim::Tick window = sim::fromSeconds(cfg.windowSeconds);
        std::array<sim::Tick, 3> last_window{-1, -1, -1};
        std::array<std::int64_t, 3> in_window{};
        sim::Tick now = 0;
        for (int batch = 0; batch < 120; ++batch) {
            now += sim::fromSeconds(rng.exponential(0.4));
            const auto mi = static_cast<std::size_t>(
                rng.bernoulli(0.6) ? 1 : rng.uniformInt(0, 2));
            const SloMetric m = metrics[mi];
            if (now / window != last_window[mi]) {
                last_window[mi] = now / window;
                in_window[mi] = 0;
            }
            if (rng.bernoulli(0.1)) {
                weighted.slo.observeFailure(m, now);
                single.slo.observeFailure(m, now);
                ++in_window[mi];
                continue;
            }
            const double target = mi == 0   ? cfg.ttftTargetSeconds
                                  : mi == 1 ? cfg.tbtTargetSeconds
                                            : cfg.e2eTargetSeconds;
            const double seconds =
                rng.bernoulli(0.1)   ? target // at target: not a violation
                : rng.bernoulli(0.5) ? target * rng.uniform(1.01, 9.0)
                                     : target * rng.uniform(0.01, 0.99);
            std::int64_t n = 0;
            switch (rng.uniformInt(0, 6)) {
              case 0:
                n = rng.uniformInt(0, 1);
                break;
              case 1:
              case 2: // straddle (or just reach) minWindowSamples
                n = std::max<std::int64_t>(
                    0, cfg.minWindowSamples - in_window[mi] +
                           rng.uniformInt(-2, 3));
                break;
              case 3: // fill the window part way to minWindowSamples
                n = rng.uniformInt(
                    0, std::max<std::int64_t>(
                           0, cfg.minWindowSamples - in_window[mi] - 1));
                break;
              case 4:
                n = rng.uniformInt(2, 5);
                break;
              default:
                n = rng.uniformInt(2, 60);
                break;
            }
            weighted.slo.observe(m, now, seconds, n);
            for (std::int64_t i = 0; i < n; ++i)
                single.slo.observe(m, now, seconds);
            in_window[mi] += n;

            ASSERT_EQ(weighted.slo.observations(m),
                      single.slo.observations(m));
            ASSERT_EQ(weighted.slo.violations(m), single.slo.violations(m));
            ASSERT_EQ(weighted.slo.attainment(m), single.slo.attainment(m));
            ASSERT_EQ(weighted.slo.windowBurnRate(m, now),
                      single.slo.windowBurnRate(m, now));
            ASSERT_EQ(weighted.slo.alertsFired(m),
                      single.slo.alertsFired(m))
                << "seed " << seed << " batch " << batch;
        }
        EXPECT_EQ(weighted.slo.alertsFired(), single.slo.alertsFired());
        alerts += single.slo.alertsFired();
        // Same alert instants (names, ticks, order), same triggers.
        EXPECT_EQ(weighted.trace.toJson(), single.trace.toJson());
        EXPECT_EQ(incidentDetails(weighted.recorder),
                  incidentDetails(single.recorder));
        for (const SloMetric m : metrics) {
            for (const double q : {0.5, 0.95, 0.99}) {
                EXPECT_EQ(weighted.slo.percentile(m, q),
                          single.slo.percentile(m, q));
            }
        }
        std::filesystem::remove_all(sloTestDir(base + "_w"));
        std::filesystem::remove_all(sloTestDir(base + "_s"));
    }
    sim::setLogLevel(saved);
    EXPECT_GT(alerts, 100); // the sequences do alert
}

TEST(Slo, CleanBatchAlertsWhereTheWindowFills)
{
    // 8 violations wait for the 10-sample floor; a clean batch then
    // fills the window at 8/10 (burn 16x) and alerts there.
    ObservedSlo o(tightTtft(), sloTestDir("slo_clean_fill"));
    o.slo.observe(SloMetric::Ttft, 0, 5.0, 8);
    EXPECT_EQ(o.slo.alertsFired(), 0);
    o.slo.observe(SloMetric::Ttft, 0, 0.5, 5);
    EXPECT_EQ(o.slo.alertsFired(), 1);
    EXPECT_EQ(incidentDetails(o.recorder),
              std::vector<std::string>{
                  "ttft burn 16.0x budget (8/10 over 1.000s)"});
    std::filesystem::remove_all(sloTestDir("slo_clean_fill"));
}

TEST(Slo, AlertCarriesTheCountsOfTheTrippingObservation)
{
    // 4 clean observations, then a violating batch of 30: with a 50%
    // budget and a 1.5x threshold the window alerts at the 12th
    // violation (11/15 burns 1.47x, 12/16 burns 1.5x).
    SloConfig cfg = tightTtft();
    cfg.attainmentTarget = 0.5;
    cfg.burnRateAlertThreshold = 1.5;
    cfg.minWindowSamples = 1;
    ObservedSlo o(cfg, sloTestDir("slo_alert_counts"));
    o.slo.observe(SloMetric::Ttft, 0, 0.5, 4);
    o.slo.observe(SloMetric::Ttft, 0, 5.0, 30);
    EXPECT_EQ(o.slo.alertsFired(), 1);
    EXPECT_EQ(o.slo.observations(SloMetric::Ttft), 34);
    EXPECT_EQ(o.slo.violations(SloMetric::Ttft), 30);
    EXPECT_EQ(incidentDetails(o.recorder),
              std::vector<std::string>{
                  "ttft burn 1.5x budget (12/16 over 1.000s)"});
    EXPECT_NE(o.trace.toJson().find("slo_alert_ttft burn=1.5x"),
              std::string::npos);
    std::filesystem::remove_all(sloTestDir("slo_alert_counts"));
}

namespace
{

sim::Task<serving::GenResult>
generateFromStream(serving::LlmEngine &engine, std::uint64_t stream,
                   std::int64_t out)
{
    serving::GenRequest req;
    req.prompt = kv::TokenChain(engine.config().blockSize);
    req.prompt.appendStream(stream, 0, 16);
    req.maxNewTokens = out;
    co_return co_await engine.generate(std::move(req));
}

/** Result of one engine step in which decoder A finishes over its E2E
 *  target and the step's TBT observations cross the burn threshold. */
struct StepAlerts
{
    std::string trace;
    std::vector<std::string> details;
};

/**
 * Requests A (2 output tokens) and B (40) prefill together, so the
 * second step decodes A then B and A finishes in it. The tracker's
 * windows are pre-filled so that E2E alerts at A's finish and TBT at
 * the step's @p tbt_tripper-th decoder (1 = A, 2 = B).
 */
StepAlerts
runStepWithBothAlerts(int tbt_tripper, const std::string &dir)
{
    constexpr std::int64_t kMinSamples = 6;
    SloConfig cfg;
    cfg.ttftTargetSeconds = 0.0; // disabled
    cfg.tbtTargetSeconds = 1e-6; // every decode step violates
    cfg.e2eTargetSeconds = 1e-6; // every finish violates
    cfg.windowSeconds = 100.0;
    cfg.minWindowSamples = kMinSamples;
    SloTracker slo(cfg);
    slo.observe(SloMetric::E2e, 0, 1.0, kMinSamples - 1);
    slo.observe(SloMetric::Tbt, 0, 1.0, kMinSamples - tbt_tripper);

    sim::Simulation sim;
    serving::LlmEngine engine(sim, core::enginePreset8b());
    telemetry::TraceSink trace;
    telemetry::FlightRecorder recorder(
        {.incidentDir = dir, .debounceSeconds = 0.0});
    engine.attachTrace(&trace);
    engine.attachSlo(&slo);
    slo.attachRecorder(&recorder);

    auto a = generateFromStream(engine, 1, 2);
    auto b = generateFromStream(engine, 2, 40);
    sim.run();
    EXPECT_TRUE(a.done() && b.done());
    EXPECT_EQ(slo.alertsFired(SloMetric::E2e), 1);
    EXPECT_EQ(slo.alertsFired(SloMetric::Tbt), 1);
    return {trace.toJson(), incidentDetails(recorder)};
}

} // namespace

TEST(Slo, StepAlertsKeepPerDecoderOrder)
{
    const sim::LogLevel saved = sim::logLevel();
    sim::setLogLevel(sim::LogLevel::Error);
    // TBT trips at A's decode, before A finishes: TBT first.
    const StepAlerts tbt_first =
        runStepWithBothAlerts(1, sloTestDir("slo_order_tbt_first"));
    // TBT trips at B's decode, after A's finish fired E2E.
    const StepAlerts e2e_first =
        runStepWithBothAlerts(2, sloTestDir("slo_order_e2e_first"));
    sim::setLogLevel(saved);

    auto order = [](const std::string &json) {
        const std::size_t tbt = json.find("\"slo_alert_tbt");
        const std::size_t e2e = json.find("\"slo_alert_e2e");
        EXPECT_NE(tbt, std::string::npos);
        EXPECT_NE(e2e, std::string::npos);
        return tbt < e2e ? "tbt,e2e" : "e2e,tbt";
    };
    EXPECT_STREQ(order(tbt_first.trace), "tbt,e2e");
    EXPECT_STREQ(order(e2e_first.trace), "e2e,tbt");

    ASSERT_EQ(tbt_first.details.size(), 2u);
    EXPECT_EQ(tbt_first.details[0].rfind("tbt burn", 0), 0u);
    EXPECT_EQ(tbt_first.details[1].rfind("e2e burn", 0), 0u);
    ASSERT_EQ(e2e_first.details.size(), 2u);
    EXPECT_EQ(e2e_first.details[0].rfind("e2e burn", 0), 0u);
    EXPECT_EQ(e2e_first.details[1].rfind("tbt burn", 0), 0u);
    // Both windows alert exactly at minWindowSamples.
    for (const auto &d : {tbt_first.details, e2e_first.details})
        for (const std::string &detail : d)
            EXPECT_NE(detail.find("(6/6 over"), std::string::npos) << detail;
    std::filesystem::remove_all(sloTestDir("slo_order_tbt_first"));
    std::filesystem::remove_all(sloTestDir("slo_order_e2e_first"));
}

// ---- Causal span trees + critical-path blame ------------------------

using telemetry::SessionTelemetry;
using telemetry::BlameCategory;
using telemetry::SpanCollector;
using telemetry::SpanKind;
using telemetry::SpanRef;

TEST(Spans, NestingAndLinksStayValid)
{
    SpanCollector spans;
    const sim::Tick t0 = sim::fromSeconds(1.0);
    const SpanRef root = spans.beginRequest(7, "test/wf", t0);
    ASSERT_TRUE(root.valid());
    EXPECT_EQ(spans.openTrees(), 1u);

    const SpanRef iter = spans.child(root, SpanKind::Iteration,
                                     "iter", t0);
    const SpanRef call = spans.child(iter, SpanKind::LlmCall, "llm",
                                     t0);
    const SpanRef decode = spans.child(call, SpanKind::Decode,
                                       "decode", t0);
    const SpanRef retry = spans.child(root, SpanKind::Attempt,
                                      "attempt", sim::fromSeconds(2.0));
    spans.link(retry, iter);
    spans.end(decode, sim::fromSeconds(1.5));
    spans.end(call, sim::fromSeconds(1.5));
    spans.end(iter, sim::fromSeconds(2.0));
    // `retry` left open: finishRequest must close it defensively.
    spans.finishRequest(root, sim::fromSeconds(3.0));
    EXPECT_EQ(spans.openTrees(), 0u);
    EXPECT_EQ(spans.requestsFinished(), 1);

    ASSERT_EQ(spans.exemplars().size(), 1u);
    const auto &tree = spans.exemplars().front().tree;
    EXPECT_EQ(tree.workflow, "test/wf");
    EXPECT_EQ(tree.requestKey, 7u);
    ASSERT_GE(tree.spans.size(), 5u);
    // Root first; every parent/link index precedes its span and no
    // span is left open or extends past its parent-of-record window.
    EXPECT_EQ(tree.spans.front().parent, telemetry::kNoSpan);
    for (std::uint32_t i = 0; i < tree.spans.size(); ++i) {
        const auto &s = tree.spans[i];
        EXPECT_FALSE(s.open()) << "span " << i;
        if (i == 0)
            continue;
        ASSERT_NE(s.parent, telemetry::kNoSpan);
        EXPECT_LT(s.parent, i);
        EXPECT_GE(s.start, tree.spans[s.parent].start);
        if (s.followsFrom != telemetry::kNoSpan) {
            EXPECT_LT(s.followsFrom, i);
        }
    }
    // A child of a finished tree is refused.
    EXPECT_FALSE(
        spans.child(root, SpanKind::Decode, "late", t0).valid());
}

TEST(Spans, FanOutBlamesLastFinishingSibling)
{
    SpanCollector spans;
    const SpanRef root = spans.beginRequest(1, "test/fanout", 0);
    const SpanRef fan = spans.child(root, SpanKind::Iteration,
                                    "sc.fanout", 0);
    // Two overlapping siblings; the last finisher owns the shared
    // window, the earlier one only its uncovered prefix.
    const SpanRef a = spans.child(fan, SpanKind::ToolCall, "a", 0);
    const SpanRef b = spans.child(fan, SpanKind::ToolCall, "b", 0);
    spans.end(a, sim::fromSeconds(6.0));
    spans.end(b, sim::fromSeconds(10.0));
    spans.end(fan, sim::fromSeconds(10.0));
    const auto blame =
        spans.finishRequest(root, sim::fromSeconds(10.0));
    EXPECT_NEAR(blame[BlameCategory::Tool], 10.0, 1e-9);
    EXPECT_NEAR(blame[BlameCategory::Idle], 0.0, 1e-9);
    EXPECT_NEAR(blame.total(), 10.0, 1e-9);
}

TEST(Spans, BlameConservationOnGappyTree)
{
    SpanCollector spans;
    const SpanRef root = spans.beginRequest(1, "test/gaps", 0);
    const SpanRef iter = spans.child(root, SpanKind::Iteration, "it",
                                     sim::fromSeconds(1.0));
    const SpanRef call = spans.child(iter, SpanKind::LlmCall, "llm",
                                     sim::fromSeconds(1.5));
    const SpanRef pre = spans.child(call, SpanKind::Prefill, "prefill",
                                    sim::fromSeconds(1.5));
    spans.end(pre, sim::fromSeconds(2.0));
    const SpanRef dec = spans.child(call, SpanKind::Decode, "decode",
                                    sim::fromSeconds(2.5));
    spans.end(dec, sim::fromSeconds(5.0));
    spans.end(call, sim::fromSeconds(5.0));
    const SpanRef tool = spans.child(iter, SpanKind::ToolCall, "tool",
                                     sim::fromSeconds(5.0));
    spans.end(tool, sim::fromSeconds(7.0));
    spans.end(iter, sim::fromSeconds(8.0));
    const auto blame =
        spans.finishRequest(root, sim::fromSeconds(9.0));
    // Every uncovered gap lands in Idle; the sum is exactly the
    // request latency (conservation).
    EXPECT_NEAR(blame[BlameCategory::Prefill], 0.5, 1e-9);
    EXPECT_NEAR(blame[BlameCategory::Decode], 2.5, 1e-9);
    EXPECT_NEAR(blame[BlameCategory::Tool], 2.0, 1e-9);
    EXPECT_NEAR(blame[BlameCategory::Idle], 4.0, 1e-9);
    EXPECT_NEAR(blame.total(), 9.0, 1e-9);
}

TEST(Spans, ProbeBlameConservesEndToEndLatency)
{
    core::ServeConfig cfg;
    cfg.closedLoop = true;
    cfg.agent = agents::AgentKind::ReAct;
    cfg.bench = workload::Benchmark::HotpotQA;
    cfg.engineConfig = core::enginePreset8b();
    cfg.numRequests = 3;
    cfg.seed = 11;
    telemetry::SpanCollector spans;
    cfg.spans = &spans;
    const auto r = core::runServing(cfg);
    ASSERT_EQ(r.requests.size(), 3u);
    for (const auto &req : r.requests) {
        EXPECT_GT(req.blame.total(), 0.0);
        EXPECT_NEAR(req.blame.total(), req.result.e2eSeconds,
                    1e-6 + 1e-6 * req.result.e2eSeconds);
        // A tool-using agent must attribute both decode and tool
        // time somewhere.
        EXPECT_GT(req.blame[BlameCategory::Decode], 0.0);
    }
    EXPECT_EQ(spans.requestsFinished(), 3);
    EXPECT_EQ(spans.openTrees(), 0u);
}

TEST(Spans, ExemplarZeroLengthSpanBeginsBeforeItEnds)
{
    // A request whose first engine call queues for zero time: the
    // zero-length queue span shares the root's start tick.
    SpanCollector spans;
    const SpanRef root = spans.beginRequest(1, "test/zero", 0);
    const SpanRef queue =
        spans.child(root, SpanKind::Queue, "queued", 0);
    spans.end(queue, 0);
    const SpanRef dec = spans.child(root, SpanKind::Decode, "decode", 0);
    spans.end(dec, sim::fromSeconds(1.0));
    spans.finishRequest(root, sim::fromSeconds(1.0));

    telemetry::TraceSink trace;
    core::emitSpanExemplars(spans, trace);
    const std::string json = trace.toJson();
    // Walk the async events in emission order: no end may precede
    // its begin, and every begin is closed.
    int depth = 0;
    int events = 0;
    for (std::size_t at = json.find("\"ph\":\""); at != std::string::npos;
         at = json.find("\"ph\":\"", at + 1)) {
        const char ph = json[at + 6];
        if (ph == 'b') {
            ++depth;
            ++events;
        } else if (ph == 'e') {
            ASSERT_GT(depth, 0) << "end before begin at offset " << at;
            --depth;
            ++events;
        }
    }
    EXPECT_EQ(events, 6);
    EXPECT_EQ(depth, 0);
}

TEST(Spans, TailRetainerEvictsWeakestUnderCap)
{
    SpanCollector::Config cfg;
    cfg.maxExemplars = 4;
    SpanCollector spans(cfg);
    for (int i = 1; i <= 10; ++i) {
        const SpanRef root = spans.beginRequest(
            static_cast<std::uint64_t>(i), "test/tail", 0);
        spans.finishRequest(root, sim::fromSeconds(i));
    }
    ASSERT_EQ(spans.exemplars().size(), 4u);
    EXPECT_EQ(spans.exemplarsEvicted(), 6);
    // The four slowest requests survive.
    double min_latency = 1e300;
    for (const auto &e : spans.exemplars())
        min_latency = std::min(min_latency, e.latencySeconds);
    EXPECT_NEAR(min_latency, 7.0, 1e-9);
}

TEST(Spans, SloViolationOutranksLatencyForRetention)
{
    SpanCollector::Config cfg;
    cfg.maxExemplars = 2;
    SpanCollector spans(cfg);
    auto run = [&](std::uint64_t key, double latency, bool violated) {
        const SpanRef root = spans.beginRequest(key, "test/slo", 0);
        spans.finishRequest(root, sim::fromSeconds(latency), violated);
    };
    run(1, 5.0, false);
    run(2, 1.0, true); // fast but SLO-violating: must be retained
    run(3, 4.0, false);
    ASSERT_EQ(spans.exemplars().size(), 2u);
    bool has_violated = false;
    for (const auto &e : spans.exemplars())
        has_violated = has_violated || e.sloViolated;
    EXPECT_TRUE(has_violated);
}

TEST(Spans, SessionResetClearsSpansAndTimeSeries)
{
    SessionTelemetry session;
    session.timeseries.record("demo", 0, 1.0);
    const SpanRef root = session.spans.beginRequest(1, "test/reset", 0);
    session.spans.finishRequest(root, sim::fromSeconds(1.0));
    ASSERT_FALSE(session.spans.empty());
    session.reset();
    EXPECT_EQ(session.timeseries.seriesCount(), 0u);
    EXPECT_TRUE(session.spans.empty());
    EXPECT_EQ(session.spans.requestsFinished(), 0);
    EXPECT_TRUE(session.spans.exemplars().empty());
}

TEST(Spans, TraceSinkCapsEventsAndCountsDrops)
{
    telemetry::TraceSink trace;
    trace.setEventCapacity(5);
    for (int i = 0; i < 10; ++i)
        trace.instant(telemetry::TracePid::kEngine, 0, "tick", "test",
                      sim::fromSeconds(i));
    EXPECT_EQ(trace.eventCount(), 5u);
    EXPECT_EQ(trace.droppedEvents(), 5u);
    // Metadata is exempt (process/thread names must always land).
    trace.processName(telemetry::TracePid::kSpans, "spans");
    EXPECT_TRUE(JsonValidator(trace.toJson()).valid());
    trace.clear();
    EXPECT_EQ(trace.droppedEvents(), 0u);
}

} // namespace
