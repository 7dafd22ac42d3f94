/**
 * @file
 * Tier-1 coverage of the telemetry subsystem: registry exposition,
 * engine iteration sampling, cross-layer Chrome trace validity and
 * the jsonEscape control-character fix.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string>

#include "core/probe.hh"
#include "core/serving_system.hh"
#include "core/trace_export.hh"
#include "sim/logging.hh"
#include "telemetry/registry.hh"
#include "telemetry/sampler.hh"
#include "telemetry/session.hh"
#include "telemetry/slo.hh"
#include "telemetry/span.hh"
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
        core::runServing(cfg);
        ran = true;
    }
    return session;
}

} // namespace

TEST(Telemetry, SamplerSeriesMonotoneAndComplete)
{
    const auto &session = reactSession();
    const auto &samples = session.engineSamples;
    ASSERT_GT(samples.size(), 10u);
    for (std::size_t i = 1; i < samples.size(); ++i) {
        EXPECT_GE(samples[i].tick, samples[i - 1].tick)
            << "sample " << i << " goes back in time";
        EXPECT_GT(samples[i].step, samples[i - 1].step);
    }
    for (const auto &s : samples) {
        EXPECT_GE(s.running, 0);
        EXPECT_GE(s.waiting, 0);
        EXPECT_GE(s.kvBlocksUsed, 0);
        EXPECT_GE(s.kvBlocksFree, 0);
        EXPECT_GE(s.prefixHitRate, 0.0);
        EXPECT_LE(s.prefixHitRate, 1.0);
        EXPECT_GT(s.stepSeconds, 0.0);
        // Every step does some work.
        EXPECT_GT(s.prefillTokens + s.decodeTokens, 0);
    }
    // CSV: header plus one row per sample.
    const std::string csv =
        telemetry::EngineSampler::renderCsv(samples);
    EXPECT_EQ(countOf(csv, "\n"),
              static_cast<int>(samples.size()) + 1);
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

TEST(Telemetry, SamplerRingWrapKeepsChronologicalOrder)
{
    telemetry::SamplerConfig cfg;
    cfg.stride = 1;
    cfg.capacity = 8;
    telemetry::EngineSampler sampler(cfg);
    for (int i = 1; i <= 20; ++i) {
        telemetry::IterationSample s;
        s.tick = i * 100;
        s.step = i;
        sampler.record(s);
    }
    const auto samples = sampler.samples();
    ASSERT_EQ(samples.size(), 8u);
    EXPECT_EQ(sampler.dropped(), 12u);
    EXPECT_EQ(samples.front().step, 13);
    EXPECT_EQ(samples.back().step, 20);
    for (std::size_t i = 1; i < samples.size(); ++i)
        EXPECT_GT(samples[i].tick, samples[i - 1].tick);
}

TEST(Telemetry, SamplerStrideAndDisable)
{
    telemetry::SamplerConfig strided;
    strided.stride = 3;
    telemetry::EngineSampler sampler(strided);
    for (int i = 1; i <= 10; ++i) {
        telemetry::IterationSample s;
        s.step = i;
        sampler.record(s);
    }
    const auto samples = sampler.samples();
    ASSERT_EQ(samples.size(), 4u); // steps 1, 4, 7, 10
    EXPECT_EQ(samples[1].step, 4);

    telemetry::SamplerConfig off;
    off.stride = 0;
    telemetry::EngineSampler disabled(off);
    telemetry::IterationSample s;
    disabled.record(s);
    EXPECT_FALSE(disabled.enabled());
    EXPECT_EQ(disabled.size(), 0u);
}

TEST(Telemetry, RegistryCsvSnapshots)
{
    telemetry::MetricsRegistry reg;
    auto &c = reg.counter("demo_total", "demo counter");
    auto &g = reg.gauge("demo_gauge", "demo gauge");
    auto &h = reg.histogram("demo_hist", "demo histogram", 0, 10, 5);

    c.add(1);
    g.set(0, 2.5);
    h.observe(3.0);
    reg.snapshot(sim::fromSeconds(1.0));
    c.add(2);
    h.observe(7.0);
    reg.snapshot(sim::fromSeconds(2.0));

    const std::string csv = reg.renderCsv();
    EXPECT_EQ(countOf(csv, "\n"), 3); // header + 2 rows
    EXPECT_NE(csv.find("time_s,demo_total,demo_gauge,demo_hist_count,"
                       "demo_hist_sum"),
              std::string::npos);
    EXPECT_NE(csv.find("\n2.000000000,3,2.5,2,10"), std::string::npos);

    // Re-registering with the same name returns the same metric.
    EXPECT_EQ(&reg.counter("demo_total", ""), &c);
    EXPECT_EQ(reg.families(), 3u);
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
    ASSERT_TRUE(mgr.allocatePrompt(1, prompt).has_value());
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
    EXPECT_NE(prom.find("agentsim_slo_ttft_p95_seconds"),
              std::string::npos);
    EXPECT_NE(prom.find("agentsim_slo_ttft_attainment"),
              std::string::npos);
    EXPECT_NE(prom.find("agentsim_slo_ttft_violations_total"),
              std::string::npos);
    // Disabled metrics export nothing.
    EXPECT_EQ(prom.find("agentsim_slo_tbt"), std::string::npos);
    EXPECT_EQ(prom.find("agentsim_slo_e2e"), std::string::npos);
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
    core::ProbeConfig cfg;
    cfg.agent = agents::AgentKind::ReAct;
    cfg.bench = workload::Benchmark::HotpotQA;
    cfg.engineConfig = core::enginePreset8b();
    cfg.numTasks = 3;
    cfg.seed = 11;
    telemetry::SpanCollector spans;
    cfg.spans = &spans;
    const auto r = core::runProbe(cfg);
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

TEST(Spans, SessionResetClearsSpansAndEngineSamples)
{
    SessionTelemetry session;
    session.engineSamples.push_back({});
    const SpanRef root = session.spans.beginRequest(1, "test/reset", 0);
    session.spans.finishRequest(root, sim::fromSeconds(1.0));
    ASSERT_FALSE(session.spans.empty());
    session.reset();
    EXPECT_TRUE(session.engineSamples.empty());
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
