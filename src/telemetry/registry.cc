#include "telemetry/registry.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "sim/logging.hh"
#include "sim/strfmt.hh"

namespace agentsim::telemetry
{

Metric *
MetricsRegistry::find(const std::string &name, MetricKind kind)
{
    auto it = index_.find(name);
    if (it == index_.end())
        return nullptr;
    Metric *m = metrics_[it->second].get();
    AGENTSIM_ASSERT(m->kind() == kind,
                    "metric %s re-registered with a different kind",
                    name.c_str());
    return m;
}

Counter &
MetricsRegistry::counter(const std::string &name,
                         const std::string &help)
{
    if (Metric *m = find(name, MetricKind::Counter))
        return static_cast<Counter &>(*m);
    index_[name] = metrics_.size();
    metrics_.push_back(std::make_unique<Counter>(name, help));
    return static_cast<Counter &>(*metrics_.back());
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &help)
{
    if (Metric *m = find(name, MetricKind::Gauge))
        return static_cast<Gauge &>(*m);
    index_[name] = metrics_.size();
    metrics_.push_back(std::make_unique<Gauge>(name, help));
    return static_cast<Gauge &>(*metrics_.back());
}

HistogramMetric &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help, double lo, double hi,
                           std::size_t bins)
{
    if (Metric *m = find(name, MetricKind::Histogram))
        return static_cast<HistogramMetric &>(*m);
    index_[name] = metrics_.size();
    metrics_.push_back(
        std::make_unique<HistogramMetric>(name, help, lo, hi, bins));
    return static_cast<HistogramMetric &>(*metrics_.back());
}

void
MetricsRegistry::forEachScalar(
    const std::function<void(const std::string &, double)> &fn) const
{
    for (const auto &m : metrics_) {
        switch (m->kind()) {
          case MetricKind::Counter:
            fn(m->name(), static_cast<const Counter &>(*m).value());
            break;
          case MetricKind::Gauge:
            fn(m->name(), static_cast<const Gauge &>(*m).value());
            break;
          case MetricKind::Histogram: {
              const auto &h = static_cast<const HistogramMetric &>(*m);
              fn(m->name() + "_count",
                 static_cast<double>(h.count()));
              fn(m->name() + "_sum", h.sum());
              break;
          }
        }
    }
}

std::string
MetricsRegistry::renderPrometheus() const
{
    std::string out;
    for (const auto &m : metrics_) {
        out += sim::strfmt("# HELP %s %s\n", m->name().c_str(),
                           m->help().c_str());
        switch (m->kind()) {
          case MetricKind::Counter:
            out += sim::strfmt("# TYPE %s counter\n",
                               m->name().c_str());
            out += sim::strfmt(
                "%s %.17g\n", m->name().c_str(),
                static_cast<const Counter &>(*m).value());
            break;
          case MetricKind::Gauge:
            out += sim::strfmt("# TYPE %s gauge\n", m->name().c_str());
            out += sim::strfmt("%s %.17g\n", m->name().c_str(),
                               static_cast<const Gauge &>(*m).value());
            break;
          case MetricKind::Histogram: {
              const auto &hm = static_cast<const HistogramMetric &>(*m);
              const stats::Histogram &h = hm.histogram();
              out += sim::strfmt("# TYPE %s histogram\n",
                                 m->name().c_str());
              std::size_t cumulative = h.underflow();
              for (std::size_t i = 0; i < h.bins(); ++i) {
                  cumulative += h.binCount(i);
                  out += sim::strfmt(
                      "%s_bucket{le=\"%.17g\"} %zu\n",
                      m->name().c_str(), h.binHigh(i), cumulative);
              }
              out += sim::strfmt("%s_bucket{le=\"+Inf\"} %zu\n",
                                 m->name().c_str(), h.count());
              out += sim::strfmt("%s_sum %.17g\n", m->name().c_str(),
                                 hm.sum());
              out += sim::strfmt("%s_count %zu\n", m->name().c_str(),
                                 h.count());
              break;
          }
        }
    }
    return out;
}

void
MetricsRegistry::clear()
{
    metrics_.clear();
    index_.clear();
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const bool written =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    const bool closed = std::fclose(f) == 0;
    return written && closed;
}

bool
writeArtifact(const std::string &path, const std::string &text,
              const std::string &what)
{
    errno = 0;
    if (writeTextFile(path, text)) {
        std::printf("telemetry: wrote %s to %s\n", what.c_str(),
                    path.c_str());
        return true;
    }
    std::fprintf(stderr, "error: failed to write %s to %s%s%s\n",
                 what.c_str(), path.c_str(),
                 errno != 0 ? ": " : "",
                 errno != 0 ? std::strerror(errno) : "");
    return false;
}

} // namespace agentsim::telemetry
