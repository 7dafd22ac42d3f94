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
 * Events are kept as 64-byte records: tick, duration, lane, the raw
 * bits of up to four arg values, an interned name id, the phase and
 * an interned shape id. A shape is the event's static part: category,
 * track, arg keys and arg kinds. The log is a list of fixed chunks
 * that never move, so it grows without copying and keeps its chunks
 * across clear(). Records are rendered to JSON only on export:
 * toJson() and the flight recorder's incident bundles share one
 * renderer.
 */

#ifndef AGENTSIM_TELEMETRY_TRACE_SINK_HH
#define AGENTSIM_TELEMETRY_TRACE_SINK_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
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
 * An interned event name. The enumerators are the names the engine
 * emits on every step and every request phase: a sink interns them
 * before anything else, at construction and on clear(), so their ids
 * never go stale and the hot sites skip the hash lookup of intern().
 * Any other id comes from TraceSink::intern() and holds until the
 * sink's next clear().
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

/** The number of well-known TraceName enumerators. */
inline constexpr std::size_t kWellKnownTraceNames = 6;

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

/**
 * One retained trace event, rendered only on export. What is the
 * same for every event of a call site (category, track, arg keys and
 * kinds) lives in the sink's shape table; the record keeps the rest.
 */
struct TraceRecord
{
    sim::Tick tick = 0;
    /** Duration of a Complete span (0 otherwise). */
    sim::Tick dur = 0;
    /** Lane: the tid, or an async span's id. */
    std::uint64_t tid = 0;
    /** Raw bits of the arg values, in the shape's key order: an
     *  int64, a double, 0 or 1, or a text pointer. */
    std::array<std::uint64_t, 4> args{};
    /** Interned name id; for metadata, the track's name. */
    std::uint32_t name = 0;
    /** Interned shape id. */
    std::uint16_t shape = 0;
    TracePhase phase = TracePhase::Instant;

    bool
    metadata() const
    {
        return phase == TracePhase::ProcessName ||
               phase == TracePhase::ThreadName;
    }
    sim::Tick end() const { return tick + dur; }
};

static_assert(sizeof(TraceRecord) == 64);

/**
 * What every event of one call site shares, interned once per sink:
 * category (null for counters and metadata), track, and the keys and
 * kinds of the args. Keys and categories are string literals, so
 * shapes are compared and hashed by pointer.
 */
struct TraceShape
{
    const char *cat = nullptr;
    /** Arg keys; unused slots are null. */
    std::array<const char *, 4> keys{};
    int pid = 0;
    std::array<TraceArg::Kind, 4> kinds{};

    /** Bytewise: the fields leave no padding. */
    bool
    operator==(const TraceShape &o) const
    {
        return std::memcmp(this, &o, sizeof(TraceShape)) == 0;
    }
};

static_assert(std::has_unique_object_representations_v<TraceShape>);

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
    /** Default data-event capacity (~128 MB of records). */
    static constexpr std::size_t kDefaultEventCapacity = 2'000'000;

    TraceSink() { internWellKnown(); }
    /** Detaches the recorder, which holds a pointer to this sink. */
    ~TraceSink() { attachRecorder(nullptr); }
    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /**
     * The id of @p name, interning it on first use. A site that emits
     * one name many times interns it once and passes the id.
     */
    TraceName intern(std::string_view name);

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
    void
    complete(int pid, std::uint64_t tid, std::string_view name,
             const char *cat, sim::Tick start, sim::Tick end,
             const TraceArgs &args = {})
    {
        complete(pid, tid, intern(name), cat, start, end, args);
    }
    void complete(int pid, std::uint64_t tid, TraceName name,
                  const char *cat, sim::Tick start, sim::Tick end,
                  const TraceArgs &args = {});

    /** Add an instant ("i") event. */
    void instant(int pid, std::uint64_t tid, std::string_view name,
                 const char *cat, sim::Tick at);

    /** Add a counter ("C") sample; @p args hold the series values. */
    void
    counter(int pid, std::string_view name, sim::Tick at,
            const TraceArgs &args)
    {
        counter(pid, intern(name), at, args);
    }
    void counter(int pid, TraceName name, sim::Tick at,
                 const TraceArgs &args);

    /**
     * Open a nestable async ("b") span on lane @p id. Async events
     * may overlap within one id, which Perfetto renders as stacked
     * slices — used for the tail-exemplar span-tree track where
     * sibling fan-out genuinely overlaps.
     */
    void
    asyncBegin(int pid, std::uint64_t id, std::string_view name,
               const char *cat, sim::Tick at, const TraceArgs &args = {})
    {
        asyncBegin(pid, id, intern(name), cat, at, args);
    }
    void asyncBegin(int pid, std::uint64_t id, TraceName name,
                    const char *cat, sim::Tick at,
                    const TraceArgs &args = {});

    /** Close the innermost open async span of (pid, cat, id). */
    void
    asyncEnd(int pid, std::uint64_t id, std::string_view name,
             const char *cat, sim::Tick at)
    {
        asyncEnd(pid, id, intern(name), cat, at);
    }
    void asyncEnd(int pid, std::uint64_t id, TraceName name,
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
    std::size_t eventCount() const { return size_; }

    /** Data records an attached recorder can see (log + overflow). */
    std::size_t
    dataRetained() const
    {
        return size_ - metadata_.size() + overflow_.size();
    }

    /** The track (Chrome pid) of @p record. */
    int pid(const TraceRecord &record) const
    {
        return shapes_[record.shape].pid;
    }

    /** Visit metadata records @p first up to (not including)
     *  @p last, in log order. */
    template <typename F>
    void
    forEachMetadata(std::size_t first, std::size_t last, F &&f) const
    {
        for (std::size_t i = first; i < metadata_.size() && i < last; ++i)
            f(at(metadata_[i]));
    }

    /** Records per log chunk, and per block of the window index. */
    static constexpr std::size_t kIndexBlock = 1024;

    /**
     * Visit those of the newest @p n data records (the log's tail,
     * then the overflow tail) that intersect [@p from, @p to], oldest
     * first. The first of the newest @p n is found by binary search
     * over the metadata positions, and every chunk whose largest
     * end() is before @p from is skipped whole.
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
        const std::size_t data = size_ - metadata_.size();
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
        for (std::size_t i = k + lo; i < size_;) {
            const Chunk &chunk = chunks_[i / kIndexBlock];
            const std::size_t base = i - i % kIndexBlock;
            const std::size_t stop = std::min(size_, base + kIndexBlock);
            if (chunk.maxEnd >= from) {
                for (; i < stop; ++i) {
                    const TraceRecord &r = chunk.records[i - base];
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

    /** Empty the log, keeping its chunks for the next records, and
     *  return the name and shape tables to their constructed state. */
    void clear();

  private:
    /** kIndexBlock records and the largest end() among those used. */
    struct Chunk
    {
        std::unique_ptr<TraceRecord[]> records;
        sim::Tick maxEnd = 0;
    };
    struct ShapeHash
    {
        std::size_t operator()(const TraceShape &shape) const noexcept;
    };

    /** The log; chunks past size_ are spares kept from before a
     *  clear(). */
    std::vector<Chunk> chunks_;
    std::size_t size_ = 0;
    /** Positions of the metadata records in the log. */
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
    /** Interned shapes, indexed by TraceRecord::shape. */
    std::vector<TraceShape> shapes_;
    std::unordered_map<TraceShape, std::uint16_t, ShapeHash> shapeIds_;
    static constexpr std::uint16_t kNoShape = 0xffff;
    struct ShapeSlot
    {
        TraceShape shape;
        std::uint16_t id = kNoShape;
    };
    /** Shapes checked before shapeIds_: slot i of the first
     *  kWellKnownTraceNames holds the shape well-known name i last
     *  carried, and 64 more are direct-mapped by hash. A slot hits
     *  only if its shape compares equal. */
    std::array<ShapeSlot, kWellKnownTraceNames + 64> shapeCache_{};
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

    const TraceRecord &
    at(std::size_t i) const
    {
        return chunks_[i / kIndexBlock].records[i % kIndexBlock];
    }
    /** Intern every TraceName at its own id, then the shape of each
     *  one's records. */
    void internWellKnown();
    /** The id of @p shape, carried by a record named @p name. */
    std::uint16_t internShape(const TraceShape &shape, TraceName name);
    /** A record of @p phase on (@p pid, @p cat) with @p args. */
    TraceRecord make(TracePhase phase, int pid, const char *cat,
                     TraceName name, std::uint64_t tid, sim::Tick tick,
                     const TraceArgs &args = {});
    void addMetadata(TracePhase phase, int pid, std::uint64_t tid,
                     std::string_view name);
    /** Append to the log and its window index. */
    void push(const TraceRecord &record);
    void add(const TraceRecord &record);
};

} // namespace agentsim::telemetry

#endif // AGENTSIM_TELEMETRY_TRACE_SINK_HH
