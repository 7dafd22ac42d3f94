/**
 * @file
 * Metrics registry: named counters, gauges and histograms with
 * Prometheus text exposition. The time-series store
 * (telemetry/timeseries.hh) samples every scalar the registry exposes.
 *
 * The registry is the pull side of the telemetry subsystem: subsystems
 * register (or look up) metrics by name and update them; exporters
 * render the whole registry at once. Gauges reuse the time-weighted
 * machinery from stats/ so a gauge reports not just its last value but
 * its virtual-time average and peak.
 */

#ifndef AGENTSIM_TELEMETRY_REGISTRY_HH
#define AGENTSIM_TELEMETRY_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"
#include "stats/gauge.hh"
#include "stats/histogram.hh"

namespace agentsim::telemetry
{

/** Metric families the registry can hold. */
enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
};

/** Common metric identity. */
class Metric
{
  public:
    Metric(MetricKind kind, std::string name, std::string help)
        : kind_(kind), name_(std::move(name)), help_(std::move(help))
    {
    }
    virtual ~Metric() = default;

    MetricKind kind() const { return kind_; }
    const std::string &name() const { return name_; }
    const std::string &help() const { return help_; }

  private:
    MetricKind kind_;
    std::string name_;
    std::string help_;
};

/** Monotone counter (doubles cover both token and FLOP counts). */
class Counter : public Metric
{
  public:
    Counter(std::string name, std::string help)
        : Metric(MetricKind::Counter, std::move(name), std::move(help))
    {
    }

    /** Increment by @p delta (>= 0). */
    void add(double delta = 1.0) { value_ += delta; }

    /**
     * Overwrite with an externally accumulated total (end-of-run
     * export from an EngineStats-style aggregate).
     */
    void set(double total) { value_ = total; }

    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Point-in-time gauge with a time-weighted history. */
class Gauge : public Metric
{
  public:
    Gauge(std::string name, std::string help)
        : Metric(MetricKind::Gauge, std::move(name), std::move(help))
    {
    }

    /** Record that the gauge becomes @p value at sim time @p now. */
    void set(sim::Tick now, double value)
    {
        series_.set(now, value);
    }

    double value() const { return series_.current(); }

    /** Time-weighted history (average / max queries). */
    const stats::TimeWeightedGauge &series() const { return series_; }

  private:
    stats::TimeWeightedGauge series_;
};

/** Fixed-bucket histogram (Prometheus cumulative-bucket exposition). */
class HistogramMetric : public Metric
{
  public:
    HistogramMetric(std::string name, std::string help, double lo,
                    double hi, std::size_t bins)
        : Metric(MetricKind::Histogram, std::move(name),
                 std::move(help)),
          hist_(lo, hi, bins)
    {
    }

    void observe(double x)
    {
        hist_.add(x);
        sum_ += x;
    }

    std::size_t count() const { return hist_.count(); }
    double sum() const { return sum_; }
    const stats::Histogram &histogram() const { return hist_; }

  private:
    stats::Histogram hist_;
    double sum_ = 0.0;
};

/**
 * The registry. Metrics are created on first use and keep registration
 * order in every export. Single-threaded, like the simulator.
 */
class MetricsRegistry
{
  public:
    /** Find-or-create a counter. Panics on a kind mismatch. */
    Counter &counter(const std::string &name, const std::string &help);

    /** Find-or-create a gauge. */
    Gauge &gauge(const std::string &name, const std::string &help);

    /**
     * Find-or-create a histogram over [lo, hi) with @p bins equal
     * buckets. Range arguments are ignored if the name exists.
     */
    HistogramMetric &histogram(const std::string &name,
                               const std::string &help, double lo,
                               double hi, std::size_t bins);

    /** Number of registered metric families. */
    std::size_t families() const { return metrics_.size(); }

    /**
     * Visit every scalar the registry exposes (counters and gauges by
     * value; histograms as <name>_count and <name>_sum), in
     * registration order. This is the hook the time-series store uses
     * to sample the whole registry at a fixed cadence.
     */
    void forEachScalar(
        const std::function<void(const std::string &, double)> &fn)
        const;

    /**
     * Prometheus text exposition of current values: # HELP / # TYPE
     * per family; histograms as cumulative le-buckets plus _sum and
     * _count.
     */
    std::string renderPrometheus() const;

    /** Drop all metrics. */
    void clear();

  private:
    std::vector<std::unique_ptr<Metric>> metrics_;
    std::unordered_map<std::string, std::size_t> index_;

    Metric *find(const std::string &name, MetricKind kind);
};

/**
 * Write @p text to @p path (truncating). @return true only if every
 * byte was written and the file closed cleanly (a failed flush on
 * close is a failed write).
 */
bool writeTextFile(const std::string &path, const std::string &text);

/**
 * Write a telemetry/report artifact with uniform outcome reporting:
 * on success prints "telemetry: wrote <what> to <path>" to stdout; on
 * failure prints an error (with errno detail) to stderr. Binaries
 * writing artifacts route through this so an unwritable path is
 * always loud — and they exit non-zero when it returns false.
 */
bool writeArtifact(const std::string &path, const std::string &text,
                   const std::string &what);

} // namespace agentsim::telemetry

#endif // AGENTSIM_TELEMETRY_REGISTRY_HH
