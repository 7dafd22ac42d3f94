/**
 * @file
 * Metrics registry: counter, gauge and histogram families, each with
 * one series per label set, and their Prometheus text exposition. The
 * time-series store (telemetry/timeseries.hh) samples every scalar the
 * registry exposes.
 *
 * The registry is the pull side of the telemetry subsystem: subsystems
 * register (or look up) metrics by name and update them; exporters
 * render the whole registry at once.
 */

#ifndef AGENTSIM_TELEMETRY_REGISTRY_HH
#define AGENTSIM_TELEMETRY_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

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

/**
 * Label pairs of one series, rendered in the order given: the series
 * of a family are told apart by these (node, cause, tier, ...).
 */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** One series of a family; the family holds its name, help and
 *  kind. */
class Metric
{
  public:
    virtual ~Metric() = default;
};

/** Monotone counter (doubles cover both token and FLOP counts). */
class Counter : public Metric
{
  public:
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

/** Point-in-time gauge: its current value only (the time-series
 *  store samples its history). */
class Gauge : public Metric
{
  public:
    void set(double value) { value_ = value; }

    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Fixed-bucket histogram (Prometheus cumulative-bucket exposition). */
class HistogramMetric : public Metric
{
  public:
    HistogramMetric(double lo, double hi, std::size_t bins)
        : hist_(lo, hi, bins)
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
 * The registry: metric families (name, help, kind), each holding one
 * series per label set. Families and their series are created on
 * first use and keep registration order in every export.
 * Single-threaded, like the simulator.
 */
class MetricsRegistry
{
  public:
    /**
     * Find-or-create the counter series @p labels of family @p name.
     * Panics on a kind mismatch; @p help is kept from the first call.
     */
    Counter &counter(const std::string &name, const std::string &help,
                     const Labels &labels = {});

    /** Find-or-create a gauge series. */
    Gauge &gauge(const std::string &name, const std::string &help,
                 const Labels &labels = {});

    /**
     * Find-or-create a histogram series over [lo, hi) with @p bins
     * equal buckets. Range arguments are ignored if the series exists.
     */
    HistogramMetric &histogram(const std::string &name,
                               const std::string &help, double lo,
                               double hi, std::size_t bins,
                               const Labels &labels = {});

    /** Number of registered metric families. */
    std::size_t families() const { return families_.size(); }

    /**
     * Visit every scalar the registry exposes (counters and gauges by
     * value; histograms as <name>_sum and <name>_count), in
     * registration order. A labelled series is keyed by its
     * Prometheus series name, `name{k="v",...}`. This is the hook the
     * time-series store uses to sample the whole registry at a fixed
     * cadence.
     */
    using ScalarFn = std::function<void(const std::string &, double)>;
    void forEachScalar(const ScalarFn &fn) const;

    /**
     * Prometheus text exposition of current values: # HELP / # TYPE
     * once per family, then one line per series (`name{k="v"} value`);
     * histograms as cumulative le-buckets plus _sum and _count.
     */
    std::string renderPrometheus() const;

    /** Drop all metrics. */
    void clear();

  private:
    struct Series
    {
        /** Rendered label pairs, `k="v",...`; empty when unlabelled. */
        std::string labels;
        std::unique_ptr<Metric> metric;
    };
    struct Family
    {
        std::string name;
        std::string help;
        MetricKind kind;
        std::vector<Series> series;
    };
    std::vector<Family> families_;
    std::unordered_map<std::string, std::size_t> index_;

    /** Each scalar of one series, keyed by its series name. */
    static void forEachSample(const Family &f, const Series &s,
                              const ScalarFn &fn);

    /** The series of @p labels in family @p name, created from
     *  @p args on first use. */
    template <class M, class... Args>
    M &series(MetricKind kind, const std::string &name,
              const std::string &help, const Labels &labels,
              Args... args);
};

/**
 * Write @p text to @p path. An existing regular file is rewritten in
 * place: opened without truncation, overwritten, then cut to the new
 * length, which costs less than freeing and reallocating its blocks.
 * @return true only if every byte was written, the length set and the
 * file closed cleanly.
 */
bool writeTextFile(const std::string &path, std::string_view text);

/**
 * Write a telemetry/report artifact with uniform outcome reporting:
 * on success prints "telemetry: wrote <what> to <path>" to stdout; on
 * failure prints an error (with errno detail) to stderr. Binaries
 * writing artifacts route through this so an unwritable path is
 * always loud — and they exit non-zero when it returns false.
 */
bool writeArtifact(const std::string &path, std::string_view text,
                   const std::string &what);

} // namespace agentsim::telemetry

#endif // AGENTSIM_TELEMETRY_REGISTRY_HH
