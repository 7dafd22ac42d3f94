#include "telemetry/trace_sink.hh"

#include <array>
#include <bit>
#include <charconv>
#include <cstring>

#include "sim/logging.hh"
#include "sim/strfmt.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/registry.hh"

namespace agentsim::telemetry
{

namespace
{

using sim::appendChars;

/** TraceName texts, in enumerator order. */
constexpr std::array<const char *, kWellKnownTraceNames> kWellKnownNames = {
    "step", "kv_blocks", "batch", "queued", "prefill", "decode"};

/** The shape of each well-known name's records: the step span, the
 *  kv_blocks and batch counters, and the request phase spans. All
 *  their args are integers, the default kind. Shapes compare keys by
 *  pointer, so these match the engine's sites only where the linker
 *  merges equal literals (not in sanitizer builds); otherwise the
 *  engine's first record interns its own shape, which renders the
 *  same bytes. */
const std::array<TraceShape, kWellKnownTraceNames> kWellKnownShapes = {{
    {.cat = "engine",
     .keys = {"prefill_tokens", "decode_tokens", "running", "waiting"},
     .pid = TracePid::kEngine},
    {.keys = {"used", "free"}, .pid = TracePid::kEngine},
    {.keys = {"running", "waiting"}, .pid = TracePid::kEngine},
    {.cat = "request", .pid = TracePid::kRequests},
    {.cat = "request", .pid = TracePid::kRequests},
    {.cat = "request", .pid = TracePid::kRequests},
}};

/** The raw bits of @p arg's value. */
std::uint64_t
argBits(const TraceArg &arg)
{
    switch (arg.kind) {
      case TraceArg::Kind::Integer:
        return static_cast<std::uint64_t>(arg.intValue);
      case TraceArg::Kind::Real:
        return std::bit_cast<std::uint64_t>(arg.realValue);
      case TraceArg::Kind::Boolean:
        return arg.boolValue ? 1 : 0;
      case TraceArg::Kind::Text:
        return reinterpret_cast<std::uintptr_t>(arg.textValue);
    }
    return 0;
}

/**
 * A stack buffer with the append surface of std::string that the
 * renderer uses. A write that does not fit fails the buffer; the
 * caller then renders the record again straight into its string.
 */
class StackBuffer
{
  public:
    StackBuffer &
    operator+=(char c)
    {
        if (p_ == end_)
            fail();
        else
            *p_++ = c;
        return *this;
    }

    StackBuffer &
    operator+=(std::string_view s)
    {
        if (s.size() > static_cast<std::size_t>(end_ - p_)) {
            fail();
        } else {
            std::memcpy(p_, s.data(), s.size());
            p_ += s.size();
        }
        return *this;
    }

    template <typename T, typename... Fmt>
    void
    chars(T v, Fmt... fmt)
    {
        const auto [ptr, ec] = std::to_chars(p_, end_, v, fmt...);
        if (ec != std::errc{})
            fail();
        else
            p_ = ptr;
    }

    bool ok() const { return ok_; }
    std::string_view view() const
    {
        return {buf_, static_cast<std::size_t>(p_ - buf_)};
    }

  private:
    char buf_[1024];
    char *p_ = buf_;
    char *end_ = buf_ + sizeof(buf_);
    bool ok_ = true;

    void
    fail()
    {
        ok_ = false;
        end_ = p_;
    }
};

template <typename T, typename... Fmt>
void
appendChars(StackBuffer &out, T v, Fmt... fmt)
{
    out.chars(v, fmt...);
}

template <typename Out>
void
appendEscaped(Out &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default: {
              const auto u = static_cast<unsigned char>(c);
              if (u < 0x20) {
                  const char esc[] = {'\\', 'u', '0', '0', kHex[u >> 4],
                                      kHex[u & 0xf]};
                  out += std::string_view(esc, sizeof(esc));
              } else {
                  out += c;
              }
          }
        }
    }
}

template <typename Out>
void
appendArgs(Out &out, const TraceShape &shape, const TraceRecord &r)
{
    out += ",\"args\":{";
    for (std::size_t i = 0; i < shape.keys.size(); ++i) {
        if (shape.keys[i] == nullptr)
            break;
        if (i != 0)
            out += ',';
        out += '"';
        out += shape.keys[i];
        out += "\":";
        const std::uint64_t bits = r.args[i];
        switch (shape.kinds[i]) {
          case TraceArg::Kind::Integer:
            appendChars(out, static_cast<std::int64_t>(bits));
            break;
          case TraceArg::Kind::Real:
            appendChars(out, std::bit_cast<double>(bits),
                        std::chars_format::fixed, 6);
            break;
          case TraceArg::Kind::Boolean:
            out += bits != 0 ? "true" : "false";
            break;
          case TraceArg::Kind::Text:
            out += '"';
            appendEscaped(out, reinterpret_cast<const char *>(bits));
            out += '"';
            break;
        }
    }
    out += '}';
}

/** Append @p r's JSON object, its name already escaped, to @p out. */
template <typename Out>
void
renderRecord(const TraceRecord &r, std::string_view name,
             const TraceShape &shape, Out &out)
{
    if (r.metadata()) {
        const bool thread = r.phase == TracePhase::ThreadName;
        out += thread ? "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
                      : "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
        appendChars(out, shape.pid);
        if (thread) {
            out += ",\"tid\":";
            appendChars(out, r.tid);
        }
        out += ",\"args\":{\"name\":\"";
        out += name;
        out += "\"}}";
        return;
    }
    const bool async = r.phase == TracePhase::AsyncBegin ||
                       r.phase == TracePhase::AsyncEnd;
    out += "{\"name\":\"";
    out += name;
    out += '"';
    if (shape.cat != nullptr) {
        out += ",\"cat\":\"";
        out += shape.cat;
        out += '"';
    }
    out += ",\"ph\":\"";
    out += static_cast<char>(r.phase);
    out += '"';
    if (async) {
        out += ",\"id\":\"0x";
        appendChars(out, r.tid, 16);
        out += '"';
    }
    out += ",\"ts\":";
    appendChars(out, r.tick);
    if (r.phase == TracePhase::Complete) {
        out += ",\"dur\":";
        appendChars(out, r.dur);
    }
    out += ",\"pid\":";
    appendChars(out, shape.pid);
    if (r.phase != TracePhase::Counter) {
        out += ",\"tid\":";
        appendChars(out, r.tid);
    }
    if (r.phase == TracePhase::Instant)
        out += ",\"s\":\"t\"";
    if (shape.keys[0] != nullptr || r.phase == TracePhase::Counter)
        appendArgs(out, shape, r);
    out += '}';
}

} // namespace

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    appendEscaped(out, s);
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

const char *
traceNameText(TraceName name)
{
    return kWellKnownNames[static_cast<std::size_t>(name)];
}

std::size_t
TraceSink::ShapeHash::operator()(const TraceShape &shape) const noexcept
{
    // Independent products, so the multiplies overlap.
    auto bits = [](const char *p) {
        return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p));
    };
    std::uint32_t kinds;
    std::memcpy(&kinds, shape.kinds.data(), sizeof(kinds));
    return bits(shape.cat) * 0x9e3779b97f4a7c15ULL ^
           bits(shape.keys[0]) * 0xc2b2ae3d27d4eb4fULL ^
           bits(shape.keys[1]) * 0x165667b19e3779f9ULL ^
           bits(shape.keys[2]) * 0x27d4eb2f165667c5ULL ^
           bits(shape.keys[3]) * 0x94d049bb133111ebULL ^
           (static_cast<std::uint64_t>(kinds) << 32 |
            static_cast<std::uint32_t>(shape.pid)) *
               0xff51afd7ed558ccdULL;
}

void
TraceSink::internWellKnown()
{
    // Called on empty tables, so each name's id is its index.
    for (const char *name : kWellKnownNames)
        intern(name);
    for (std::uint32_t i = 0; i < kWellKnownTraceNames; ++i)
        internShape(kWellKnownShapes[i], TraceName{i});
}

TraceName
TraceSink::intern(std::string_view name)
{
    const auto it = nameIds_.find(name);
    if (it != nameIds_.end())
        return TraceName{it->second};
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(jsonEscape(name));
    nameIds_.emplace(std::string(name), id);
    return TraceName{id};
}

std::uint16_t
TraceSink::internShape(const TraceShape &shape, TraceName name)
{
    // A well-known name's hot site finds its shape without hashing;
    // any other record's slot is the hash's top six bits.
    const auto n = static_cast<std::size_t>(name);
    ShapeSlot &slot =
        shapeCache_[n < kWellKnownTraceNames
                        ? n
                        : kWellKnownTraceNames + (ShapeHash{}(shape) >> 58)];
    if (slot.id != kNoShape && slot.shape == shape)
        return slot.id;
    auto it = shapeIds_.find(shape);
    if (it == shapeIds_.end()) {
        AGENTSIM_ASSERT(shapes_.size() < kNoShape,
                        "more than 65535 trace event shapes");
        it = shapeIds_
                 .emplace(shape, static_cast<std::uint16_t>(shapes_.size()))
                 .first;
        shapes_.push_back(shape);
    }
    slot = {shape, it->second};
    return it->second;
}

TraceRecord
TraceSink::make(TracePhase phase, int pid, const char *cat,
                TraceName name, std::uint64_t tid, sim::Tick tick,
                const TraceArgs &args)
{
    TraceRecord r{.tick = tick,
                  .tid = tid,
                  .name = static_cast<std::uint32_t>(name),
                  .phase = phase};
    TraceShape shape{.cat = cat, .pid = pid};
    for (std::size_t i = 0; i < args.size() && args[i].key != nullptr;
         ++i) {
        shape.keys[i] = args[i].key;
        shape.kinds[i] = args[i].kind;
        r.args[i] = argBits(args[i]);
    }
    r.shape = internShape(shape, name);
    return r;
}

void
TraceSink::addMetadata(TracePhase phase, int pid, std::uint64_t tid,
                       std::string_view name)
{
    metadata_.push_back(size_);
    push(make(phase, pid, nullptr, intern(name), tid, 0));
}

void
TraceSink::processName(int pid, std::string_view name)
{
    if (named_.insert({pid, -1}).second)
        addMetadata(TracePhase::ProcessName, pid, 0, name);
}

void
TraceSink::threadName(int pid, std::uint64_t tid, std::string_view name)
{
    if (named_.insert({pid, static_cast<std::int64_t>(tid)}).second)
        addMetadata(TracePhase::ThreadName, pid, tid, name);
}

void
TraceSink::attachRecorder(FlightRecorder *recorder)
{
    if (recorder_ != recorder) {
        overflow_.clear();
        if (recorder_ != nullptr) {
            recorder_->trace_ = nullptr;
            recorder_->forgetMetadata();
        }
        if (recorder != nullptr && recorder->trace_ != nullptr)
            recorder->trace_->attachRecorder(nullptr);
    }
    recorder_ = recorder;
    if (recorder_ != nullptr)
        recorder_->trace_ = this;
}

void
TraceSink::push(const TraceRecord &record)
{
    const std::size_t block = size_ / kIndexBlock;
    const std::size_t slot = size_ % kIndexBlock;
    if (block == chunks_.size()) {
        chunks_.push_back(
            {.records = std::make_unique<TraceRecord[]>(kIndexBlock)});
    }
    Chunk &chunk = chunks_[block];
    chunk.maxEnd =
        slot == 0 ? record.end() : std::max(chunk.maxEnd, record.end());
    chunk.records[slot] = record;
    ++size_;
}

void
TraceSink::add(const TraceRecord &record)
{
    if (capacity_ == 0 || size_ < capacity_) {
        push(record);
        return;
    }
    ++dropped_;
    // Past capacity the attached recorder still sees every event.
    if (recorder_ == nullptr)
        return;
    if (overflow_.size() >= recorder_->config().traceEventCapacity)
        overflow_.pop_front();
    overflow_.push_back(record);
}

void
TraceSink::complete(int pid, std::uint64_t tid, TraceName name,
                    const char *cat, sim::Tick start, sim::Tick end,
                    const TraceArgs &args)
{
    TraceRecord r = make(TracePhase::Complete, pid, cat, name, tid, start,
                         args);
    r.dur = end - start;
    add(r);
}

void
TraceSink::instant(int pid, std::uint64_t tid, std::string_view name,
                   const char *cat, sim::Tick at)
{
    add(make(TracePhase::Instant, pid, cat, intern(name), tid, at));
}

void
TraceSink::counter(int pid, TraceName name, sim::Tick at,
                   const TraceArgs &args)
{
    add(make(TracePhase::Counter, pid, nullptr, name, 0, at, args));
}

void
TraceSink::asyncBegin(int pid, std::uint64_t id, TraceName name,
                      const char *cat, sim::Tick at,
                      const TraceArgs &args)
{
    add(make(TracePhase::AsyncBegin, pid, cat, name, id, at, args));
}

void
TraceSink::asyncEnd(int pid, std::uint64_t id, TraceName name,
                    const char *cat, sim::Tick at)
{
    add(make(TracePhase::AsyncEnd, pid, cat, name, id, at));
}

void
TraceSink::render(const TraceRecord &r, std::string &out) const
{
    // One append per record; a record too long for the stack buffer
    // (a long name or text argument) renders straight into @p out.
    const std::string &name = names_[r.name];
    const TraceShape &shape = shapes_[r.shape];
    StackBuffer buf;
    renderRecord(r, name, shape, buf);
    if (buf.ok())
        out += buf.view();
    else
        renderRecord(r, name, shape, out);
}

std::string
TraceSink::toJson() const
{
    std::string out = "{\"traceEvents\":[";
    out.reserve(size_ * 160);
    for (std::size_t i = 0; i < size_; ++i) {
        out += i == 0 ? "\n" : ",\n";
        render(at(i), out);
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

bool
TraceSink::writeJson(const std::string &path) const
{
    return writeTextFile(path, toJson());
}

void
TraceSink::exportMetrics(MetricsRegistry &registry) const
{
    registry
        .gauge("agentsim_trace_dropped_events",
               "Trace events dropped by the sink's capacity cap")
        .set(static_cast<double>(dropped_));
}

void
TraceSink::clear()
{
    size_ = 0;
    metadata_.clear();
    overflow_.clear();
    names_.clear();
    nameIds_.clear();
    shapes_.clear();
    shapeIds_.clear();
    shapeCache_.fill({});
    internWellKnown();
    named_.clear();
    dropped_ = 0;
    if (recorder_ != nullptr)
        recorder_->forgetMetadata();
}

} // namespace agentsim::telemetry
