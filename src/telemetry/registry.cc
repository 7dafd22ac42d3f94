#include "telemetry/registry.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "sim/logging.hh"
#include "sim/strfmt.hh"

namespace agentsim::telemetry
{

namespace
{

/** Label pairs as Prometheus renders them: `k="v",...`, with `\`,
 *  `"` and newline in a value escaped. */
std::string
renderLabels(const Labels &labels)
{
    std::string out;
    for (const auto &[key, value] : labels) {
        if (!out.empty())
            out += ',';
        out += key;
        out += "=\"";
        for (const char c : value) {
            if (c == '\\')
                out += "\\\\";
            else if (c == '"')
                out += "\\\"";
            else if (c == '\n')
                out += "\\n";
            else
                out += c;
        }
        out += '"';
    }
    return out;
}

/** `name{labels}`, or just `name` for an unlabelled series. */
std::string
seriesName(const std::string &name, const std::string &labels)
{
    return labels.empty() ? name : name + "{" + labels + "}";
}

} // namespace

template <class M, class... Args>
M &
MetricsRegistry::series(MetricKind kind, const std::string &name,
                        const std::string &help, const Labels &labels,
                        Args... args)
{
    auto it = index_.find(name);
    if (it == index_.end()) {
        it = index_.emplace(name, families_.size()).first;
        families_.push_back(Family{name, help, kind, {}});
    }
    Family &family = families_[it->second];
    AGENTSIM_ASSERT(family.kind == kind,
                    "metric %s re-registered with a different kind",
                    name.c_str());
    std::string key = renderLabels(labels);
    for (Series &s : family.series) {
        if (s.labels == key)
            return static_cast<M &>(*s.metric);
    }
    family.series.push_back(
        Series{std::move(key), std::make_unique<M>(args...)});
    return static_cast<M &>(*family.series.back().metric);
}

Counter &
MetricsRegistry::counter(const std::string &name,
                         const std::string &help, const Labels &labels)
{
    return series<Counter>(MetricKind::Counter, name, help, labels);
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &help,
                       const Labels &labels)
{
    return series<Gauge>(MetricKind::Gauge, name, help, labels);
}

HistogramMetric &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help, double lo, double hi,
                           std::size_t bins, const Labels &labels)
{
    return series<HistogramMetric>(MetricKind::Histogram, name, help,
                                   labels, lo, hi, bins);
}

void
MetricsRegistry::forEachSample(const Family &f, const Series &s,
                               const ScalarFn &fn)
{
    switch (f.kind) {
      case MetricKind::Counter:
        fn(seriesName(f.name, s.labels),
           static_cast<const Counter &>(*s.metric).value());
        break;
      case MetricKind::Gauge:
        fn(seriesName(f.name, s.labels),
           static_cast<const Gauge &>(*s.metric).value());
        break;
      case MetricKind::Histogram: {
          const auto &h = static_cast<const HistogramMetric &>(*s.metric);
          fn(seriesName(f.name + "_sum", s.labels), h.sum());
          fn(seriesName(f.name + "_count", s.labels),
             static_cast<double>(h.count()));
          break;
      }
    }
}

void
MetricsRegistry::forEachScalar(const ScalarFn &fn) const
{
    for (const Family &f : families_) {
        for (const Series &s : f.series)
            forEachSample(f, s, fn);
    }
}

std::string
MetricsRegistry::renderPrometheus() const
{
    static constexpr const char *kTypeNames[] = {"counter", "gauge",
                                                 "histogram"};
    std::string out;
    auto line = [&](const std::string &series, double value) {
        out += sim::strfmt("%s %.17g\n", series.c_str(), value);
    };
    for (const Family &f : families_) {
        const char *name = f.name.c_str();
        out += sim::strfmt("# HELP %s %s\n", name, f.help.c_str());
        out += sim::strfmt("# TYPE %s %s\n", name,
                           kTypeNames[static_cast<int>(f.kind)]);
        for (const Series &s : f.series) {
            if (f.kind == MetricKind::Histogram) {
                // Cumulative buckets; `le` follows the series labels.
                const stats::Histogram &h =
                    static_cast<const HistogramMetric &>(*s.metric)
                        .histogram();
                const std::string labels =
                    s.labels.empty() ? "" : s.labels + ",";
                std::size_t cumulative = h.underflow();
                for (std::size_t i = 0; i < h.bins(); ++i) {
                    cumulative += h.binCount(i);
                    out += sim::strfmt("%s_bucket{%sle=\"%.17g\"} %zu\n",
                                       name, labels.c_str(), h.binHigh(i),
                                       cumulative);
                }
                out += sim::strfmt("%s_bucket{%sle=\"+Inf\"} %zu\n", name,
                                   labels.c_str(), h.count());
            }
            forEachSample(f, s, line);
        }
    }
    return out;
}

void
MetricsRegistry::clear()
{
    families_.clear();
    index_.clear();
}

bool
writeTextFile(const std::string &path, std::string_view text)
{
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC,
                          0666);
    if (fd < 0)
        return false;
    bool ok = true;
    for (std::size_t done = 0; ok && done < text.size();) {
        const ssize_t n =
            ::write(fd, text.data() + done, text.size() - done);
        if (n > 0)
            done += static_cast<std::size_t>(n);
        else
            ok = n < 0 && errno == EINTR;
    }
    // Cut a longer old file to the new length; a device or pipe has
    // no length to set.
    struct stat st;
    if (ok && ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode))
        ok = ::ftruncate(fd, static_cast<off_t>(text.size())) == 0;
    const bool closed = ::close(fd) == 0;
    return ok && closed;
}

bool
writeArtifact(const std::string &path, std::string_view text,
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
