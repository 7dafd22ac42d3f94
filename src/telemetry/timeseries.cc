#include "telemetry/timeseries.hh"

#include <algorithm>
#include <limits>

#include "sim/logging.hh"
#include "sim/strfmt.hh"
#include "telemetry/registry.hh"

namespace agentsim::telemetry
{

void
TimeSeriesStore::setConfig(Config config)
{
    AGENTSIM_ASSERT(config.periodSeconds > 0.0,
                    "time-series cadence must be positive");
    AGENTSIM_ASSERT(config.capacity >= 2,
                    "time-series ring needs at least two points");
    config_ = config;
}

void
TimeSeriesStore::Ring::push(const TsPoint &p, std::size_t capacity)
{
    if (points.size() < capacity) {
        points.push_back(p);
        return;
    }
    points[head] = p;
    head = (head + 1) % capacity;
    full = true;
}

TimeSeriesStore::Ring &
TimeSeriesStore::ringFor(const std::string &name)
{
    auto it = index_.find(name);
    if (it != index_.end())
        return series_[it->second];
    index_.emplace(name, series_.size());
    series_.push_back(Ring{name, {}, 0, false});
    return series_.back();
}

const TimeSeriesStore::Ring *
TimeSeriesStore::findRing(const std::string &name) const
{
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : &series_[it->second];
}

void
TimeSeriesStore::record(const std::string &name, sim::Tick now,
                        double value)
{
    ringFor(name).push({now, value}, config_.capacity);
}

void
TimeSeriesStore::sample(const MetricsRegistry &registry, sim::Tick now)
{
    registry.forEachScalar([&](const std::string &name, double value) {
        record(name, now, value);
    });
}

std::vector<TsPoint>
TimeSeriesStore::window(const std::string &name, sim::Tick from,
                        sim::Tick to) const
{
    std::vector<TsPoint> out;
    if (const Ring *ring = findRing(name); ring != nullptr)
        ring->forEachInWindow(
            from, to, [&](const TsPoint &p) { out.push_back(p); });
    return out;
}

TsWindowStats
TimeSeriesStore::windowStats(const std::string &name, sim::Tick from,
                             sim::Tick to) const
{
    TsWindowStats stats;
    const std::vector<TsPoint> pts = window(name, from, to);
    if (pts.empty())
        return stats;
    stats.samples = pts.size();
    stats.min = pts.front().value;
    stats.max = pts.front().value;
    double sum = 0.0;
    for (const TsPoint &p : pts) {
        stats.min = std::min(stats.min, p.value);
        stats.max = std::max(stats.max, p.value);
        sum += p.value;
    }
    stats.mean = sum / static_cast<double>(pts.size());
    stats.last = pts.back().value;
    return stats;
}

double
TimeSeriesStore::windowRate(const std::string &name, sim::Tick from,
                            sim::Tick to) const
{
    const std::vector<TsPoint> pts = window(name, from, to);
    if (pts.size() < 2)
        return 0.0;
    const double elapsed =
        sim::toSeconds(pts.back().tick - pts.front().tick);
    if (elapsed <= 0.0)
        return 0.0;
    return (pts.back().value - pts.front().value) / elapsed;
}

double
TimeSeriesStore::windowDerivative(const std::string &name,
                                  sim::Tick from, sim::Tick to) const
{
    const std::vector<TsPoint> pts = window(name, from, to);
    if (pts.size() < 2)
        return 0.0;
    const TsPoint &a = pts[pts.size() - 2];
    const TsPoint &b = pts.back();
    const double elapsed = sim::toSeconds(b.tick - a.tick);
    if (elapsed <= 0.0)
        return 0.0;
    return (b.value - a.value) / elapsed;
}

namespace
{

/** A series key as a CSV field: quoted (RFC 4180) only when it holds
 *  a comma or a quote, as a labelled `name{k="v",...}` key does. */
std::string
csvField(const std::string &key)
{
    if (key.find_first_of(",\"") == std::string::npos)
        return key;
    std::string out = "\"";
    for (const char c : key)
        out += c == '"' ? "\"\"" : std::string(1, c);
    return out + "\"";
}

} // namespace

std::string
TimeSeriesStore::renderCsvWindow(sim::Tick from, sim::Tick to) const
{
    std::string out;
    appendCsvWindow(out, from, to);
    return out;
}

void
TimeSeriesStore::appendCsvWindow(std::string &out, sim::Tick from,
                                 sim::Tick to) const
{
    out += "series,time_s,value\n";
    for (const Ring &ring : series_) {
        const std::string field = csvField(ring.name);
        ring.forEachInWindow(from, to, [&](const TsPoint &p) {
            // printf's "%.6f" and "%.17g".
            out += field;
            out += ',';
            sim::appendChars(out, sim::toSeconds(p.tick),
                             std::chars_format::fixed, 6);
            out += ',';
            sim::appendChars(out, p.value, std::chars_format::general,
                             17);
            out += '\n';
        });
    }
}

std::string
TimeSeriesStore::renderCsv() const
{
    return renderCsvWindow(0, std::numeric_limits<sim::Tick>::max());
}

std::size_t
TimeSeriesStore::pointsRetained() const
{
    std::size_t total = 0;
    for (const Ring &ring : series_)
        total += ring.points.size();
    return total;
}

void
TimeSeriesStore::clear()
{
    series_.clear();
    index_.clear();
}

} // namespace agentsim::telemetry
