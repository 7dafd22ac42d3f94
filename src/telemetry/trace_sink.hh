/**
 * @file
 * Cross-layer Chrome trace sink: one session-wide trace-event JSON
 * combining engine iterations, per-request lifecycle spans and agent
 * steps on the shared simulator clock.
 *
 * Tracks (Chrome "processes"):
 *   pid 1 — the serving engine: one "step" span per iteration plus
 *           counter series (KV blocks, batch occupancy);
 *   pid 2 — requests: one thread per request id, with its
 *           queued / prefill / decode phases as spans and preemption
 *           instants;
 *   pid 3 — agents: one thread per rollout, LLM and tool call spans.
 *
 * All timestamps are virtual-time microseconds (the sim tick), which
 * is exactly Chrome's trace-event "ts" unit — load the file in
 * chrome://tracing or Perfetto and the three layers line up.
 *
 * Events are kept as fixed-size typed records (interned name, static
 * category, up to four typed args) and rendered to JSON only on
 * export: toJson() and the flight recorder's incident bundles share
 * one renderer.
 */

#ifndef AGENTSIM_TELEMETRY_TRACE_SINK_HH
#define AGENTSIM_TELEMETRY_TRACE_SINK_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace agentsim::telemetry
{

class FlightRecorder;
class MetricsRegistry;

/**
 * Escape a string for inclusion in a JSON string literal. Handles the
 * short escapes (quote, backslash, \b \f \n \r \t) and renders every
 * other control character below 0x20 as \uXXXX, so arbitrary tool
 * observations stay valid JSON.
 */
std::string jsonEscape(std::string_view s);

/** Append jsonEscape(@p s) to @p out. */
void appendJsonEscaped(std::string &out, std::string_view s);

/** Well-known track (process) ids of the cross-layer trace. */
struct TracePid
{
    static constexpr int kEngine = 1;
    static constexpr int kRequests = 2;
    static constexpr int kAgents = 3;
    /** Online SLO monitor: burn-rate alert instants. */
    static constexpr int kSlo = 4;
    /** Operational resilience: circuit-breaker transitions (tid =
     *  node index) and brownout level changes (tid 0). */
    static constexpr int kResilience = 5;
    /** Tail exemplars: retained causal span trees rendered as async
     *  lanes (one id per request) with blame annotations. */
    static constexpr int kSpans = 6;
};

/**
 * Names the engine emits on every step and every request phase. A
 * sink interns them before anything else, at construction and on
 * clear(), so their ids never go stale and the hot sites skip the
 * hash lookup of intern().
 */
enum class TraceName : std::uint32_t
{
    Step,
    KvBlocks,
    Batch,
    Queued,
    Prefill,
    Decode,
};

/** The text of a well-known name ("step", "kv_blocks", ...). */
const char *traceNameText(TraceName name);

/**
 * One typed event argument. The key must be a string literal (it is
 * kept by pointer and rendered unescaped); a text value must outlive
 * the sink, such as a literal or a name table entry.
 */
struct TraceArg
{
    enum class Kind : std::uint8_t
    {
        Integer,
        Real,
        Boolean,
        Text,
    };

    const char *key = nullptr;
    Kind kind = Kind::Integer;
    union
    {
        std::int64_t intValue = 0;
        double realValue;
        bool boolValue;
        const char *textValue;
    };

    static TraceArg
    integer(const char *key, std::int64_t v)
    {
        return {.key = key, .kind = Kind::Integer, .intValue = v};
    }
    /** Rendered with six fixed decimals. */
    static TraceArg
    real(const char *key, double v)
    {
        return {.key = key, .kind = Kind::Real, .realValue = v};
    }
    static TraceArg
    boolean(const char *key, bool v)
    {
        return {.key = key, .kind = Kind::Boolean, .boolValue = v};
    }
    static TraceArg
    text(const char *key, const char *v)
    {
        return {.key = key, .kind = Kind::Text, .textValue = v};
    }
};

/** The args of one event, kept inline; unused slots have no key. */
using TraceArgs = std::array<TraceArg, 4>;

/** Chrome phase codes; both metadata kinds render as "M". */
enum class TracePhase : char
{
    Complete = 'X',
    Instant = 'i',
    Counter = 'C',
    AsyncBegin = 'b',
    AsyncEnd = 'e',
    ProcessName = 'P',
    ThreadName = 'T',
};

/** One retained trace event, rendered only on export. */
struct TraceRecord
{
    sim::Tick tick = 0;
    /** Duration of a Complete span (0 otherwise). */
    sim::Tick dur = 0;
    /** Lane: the tid, or an async span's id. */
    std::uint64_t tid = 0;
    /** Static category (nullptr for counters and metadata). */
    const char *cat = nullptr;
    int pid = 0;
    /** Interned name id; for metadata, the track's name. */
    std::uint32_t name = 0;
    TracePhase phase = TracePhase::Instant;
    TraceArgs args{};

    bool
    metadata() const
    {
        return phase == TracePhase::ProcessName ||
               phase == TracePhase::ThreadName;
    }
    sim::Tick end() const { return tick + dur; }
};

/**
 * Append-only trace-event log. Single-threaded.
 *
 * Retention is bounded: once eventCount() reaches the capacity, new
 * data events are dropped (and counted) instead of growing the sink
 * without limit across million-event sims. Track/lane metadata is
 * always admitted so the trace stays well-formed.
 */
class TraceSink
{
  public:
    /** Default data-event capacity (~300 MB of records). */
    static constexpr std::size_t kDefaultEventCapacity = 2'000'000;

    TraceSink() { internWellKnown(); }
    /** Detaches the recorder, which holds a pointer to this sink. */
    ~TraceSink() { attachRecorder(nullptr); }
    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Name a track (emitted once per pid). */
    void processName(int pid, std::string_view name);

    /** Name a lane within a track (emitted once per (pid, tid)). */
    void threadName(int pid, std::uint64_t tid, std::string_view name);

    /** As above, calling @p make_name only for a lane not yet named,
     *  so a formatted name costs nothing on a repeat. */
    template <typename F>
        requires std::is_invocable_r_v<std::string, F &>
    void
    threadName(int pid, std::uint64_t tid, F &&make_name)
    {
        if (named_.insert({pid, static_cast<std::int64_t>(tid)}).second)
            addMetadata(TracePhase::ThreadName, pid, tid, make_name());
    }

    /** Add a complete ("X") span with optional typed @p args. */
    void complete(int pid, std::uint64_t tid, std::string_view name,
                  const char *cat, sim::Tick start, sim::Tick end,
                  const TraceArgs &args = {});
    void complete(int pid, std::uint64_t tid, TraceName name,
                  const char *cat, sim::Tick start, sim::Tick end,
                  const TraceArgs &args = {});

    /** Add an instant ("i") event. */
    void instant(int pid, std::uint64_t tid, std::string_view name,
                 const char *cat, sim::Tick at);

    /** Add a counter ("C") sample; @p args hold the series values. */
    void counter(int pid, std::string_view name, sim::Tick at,
                 const TraceArgs &args);
    void counter(int pid, TraceName name, sim::Tick at,
                 const TraceArgs &args);

    /**
     * Open a nestable async ("b") span on lane @p id. Async events
     * may overlap within one id, which Perfetto renders as stacked
     * slices — used for the tail-exemplar span-tree track where
     * sibling fan-out genuinely overlaps.
     */
    void asyncBegin(int pid, std::uint64_t id, std::string_view name,
                    const char *cat, sim::Tick at,
                    const TraceArgs &args = {});

    /** Close the innermost open async span of (pid, cat, id). */
    void asyncEnd(int pid, std::uint64_t id, std::string_view name,
                  const char *cat, sim::Tick at);

    /**
     * Cap retained data events (0 = unlimited; the default is
     * kDefaultEventCapacity). Events beyond the cap are dropped and
     * counted in droppedEvents().
     */
    void setEventCapacity(std::size_t capacity)
    {
        capacity_ = capacity;
    }
    std::size_t eventCapacity() const { return capacity_; }

    /** Data events dropped because the capacity was reached. */
    std::uint64_t droppedEvents() const { return dropped_; }

    /** Export the agentsim_trace_dropped_events gauge. */
    void exportMetrics(MetricsRegistry &registry) const;

    /**
     * Give a flight recorder a view of this log (nullptr detaches).
     * The recorder reads its window from the log's newest records,
     * and keeps seeing events even after this sink's own capacity
     * saturates: dropped data events then go to an overflow tail,
     * bounded by the recorder's trace capacity and never rendered by
     * toJson(), so incident bundles stay fresh on runs long enough to
     * fill the main trace.
     */
    void attachRecorder(FlightRecorder *recorder);

    /** Events emitted so far (metadata included). */
    std::size_t eventCount() const { return events_.size(); }

    /** Data records an attached recorder can see (log + overflow). */
    std::size_t
    dataRetained() const
    {
        return events_.size() - metadata_.size() + overflow_.size();
    }

    /** Visit metadata records @p first up to (not including)
     *  @p last, in log order. */
    template <typename F>
    void
    forEachMetadata(std::size_t first, std::size_t last, F &&f) const
    {
        for (std::size_t i = first; i < metadata_.size() && i < last; ++i)
            f(events_[metadata_[i]]);
    }

    /** Records per block of the window index. */
    static constexpr std::size_t kIndexBlock = 1024;

    /**
     * Visit those of the newest @p n data records (the log's tail,
     * then the overflow tail) that intersect [@p from, @p to], oldest
     * first. The first of the newest @p n is found by binary search
     * over the metadata positions, and every block of kIndexBlock log
     * records whose largest end() is before @p from is skipped whole.
     */
    template <typename F>
    void
    forEachDataInWindow(std::size_t n, sim::Tick from, sim::Tick to,
                        F &&f) const
    {
        auto in_window = [&](const TraceRecord &r) {
            return r.end() >= from && r.tick <= to;
        };
        const std::size_t tail = std::min(n, overflow_.size());
        const std::size_t data = events_.size() - metadata_.size();
        const std::size_t want = std::min(n - tail, data);
        // The first wanted record is data record k (0-based). Metadata
        // record i has metadata_[i] - i data records before it, so it
        // lies before data record k exactly when that count is at
        // most k; data record k sits at k plus the number of those.
        const std::size_t k = data - want;
        std::size_t lo = 0;
        std::size_t hi = metadata_.size();
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (metadata_[mid] - mid <= k)
                lo = mid + 1;
            else
                hi = mid;
        }
        for (std::size_t i = k + lo; i < events_.size();) {
            const std::size_t block = i / kIndexBlock;
            const std::size_t stop =
                std::min(events_.size(), (block + 1) * kIndexBlock);
            if (blockMaxEnd_[block] >= from) {
                for (; i < stop; ++i) {
                    const TraceRecord &r = events_[i];
                    if (!r.metadata() && in_window(r))
                        f(r);
                }
            }
            i = stop;
        }
        for (std::size_t i = overflow_.size() - tail; i < overflow_.size();
             ++i) {
            if (in_window(overflow_[i]))
                f(overflow_[i]);
        }
    }

    /** Append @p record's JSON object to @p out. */
    void render(const TraceRecord &record, std::string &out) const;

    /** Render the complete trace JSON document. */
    std::string toJson() const;

    /** Write the trace JSON to @p path. @return success. */
    bool writeJson(const std::string &path) const;

    void clear();

  private:
    std::vector<TraceRecord> events_;
    /** Window index: the largest end() of each kIndexBlock records
     *  of events_. */
    std::vector<sim::Tick> blockMaxEnd_;
    /** Positions of the metadata records in events_. */
    std::vector<std::size_t> metadata_;
    /** Data events dropped at capacity, kept for the recorder. */
    std::deque<TraceRecord> overflow_;
    /** Interned names, JSON-escaped, indexed by TraceRecord::name. */
    std::vector<std::string> names_;
    struct NameHash : std::hash<std::string_view>
    {
        using is_transparent = void;
    };
    std::unordered_map<std::string, std::uint32_t, NameHash,
                       std::equal_to<>>
        nameIds_;
    using Lane = std::pair<int, std::int64_t>;
    struct LaneHash
    {
        std::size_t
        operator()(const Lane &lane) const noexcept
        {
            return std::hash<std::uint64_t>{}(
                static_cast<std::uint64_t>(lane.second) *
                    0x9e3779b97f4a7c15ULL ^
                static_cast<std::uint64_t>(lane.first));
        }
    };
    /** (pid, tid) lanes already named; pid alone uses tid = -1. */
    std::unordered_set<Lane, LaneHash> named_;
    std::size_t capacity_ = kDefaultEventCapacity;
    std::uint64_t dropped_ = 0;
    FlightRecorder *recorder_ = nullptr;

    std::uint32_t intern(std::string_view name);
    /** Intern every TraceName at its own id. */
    void internWellKnown();
    void addMetadata(TracePhase phase, int pid, std::uint64_t tid,
                     std::string_view name);
    /** Append to events_ and the window index. */
    void push(const TraceRecord &record);
    void add(const TraceRecord &record);
};

} // namespace agentsim::telemetry

#endif // AGENTSIM_TELEMETRY_TRACE_SINK_HH
