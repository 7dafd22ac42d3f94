#include "telemetry/trace_sink.hh"

#include <array>
#include <charconv>
#include <cstring>

#include "sim/strfmt.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/registry.hh"

namespace agentsim::telemetry
{

namespace
{

using sim::appendChars;

/** TraceName texts, in enumerator order. */
constexpr std::array<const char *, 6> kWellKnownNames = {
    "step", "kv_blocks", "batch", "queued", "prefill", "decode"};

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
appendArgs(Out &out, const TraceArgs &args)
{
    out += ",\"args\":{";
    for (const TraceArg &arg : args) {
        if (arg.key == nullptr)
            break;
        if (&arg != args.data())
            out += ',';
        out += '"';
        out += arg.key;
        out += "\":";
        switch (arg.kind) {
          case TraceArg::Kind::Integer:
            appendChars(out, arg.intValue);
            break;
          case TraceArg::Kind::Real:
            appendChars(out, arg.realValue, std::chars_format::fixed, 6);
            break;
          case TraceArg::Kind::Boolean:
            out += arg.boolValue ? "true" : "false";
            break;
          case TraceArg::Kind::Text:
            out += '"';
            appendEscaped(out, arg.textValue);
            out += '"';
            break;
        }
    }
    out += '}';
}

/** Append @p r's JSON object, its name already escaped, to @p out. */
template <typename Out>
void
renderRecord(const TraceRecord &r, std::string_view name, Out &out)
{
    if (r.metadata()) {
        const bool thread = r.phase == TracePhase::ThreadName;
        out += thread ? "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
                      : "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
        appendChars(out, r.pid);
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
    if (r.cat != nullptr) {
        out += ",\"cat\":\"";
        out += r.cat;
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
    appendChars(out, r.pid);
    if (r.phase != TracePhase::Counter) {
        out += ",\"tid\":";
        appendChars(out, r.tid);
    }
    if (r.phase == TracePhase::Instant)
        out += ",\"s\":\"t\"";
    if (r.args[0].key != nullptr || r.phase == TracePhase::Counter)
        appendArgs(out, r.args);
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

void
TraceSink::internWellKnown()
{
    // Called on an empty name table, so each name's id is its index.
    for (const char *name : kWellKnownNames)
        intern(name);
}

std::uint32_t
TraceSink::intern(std::string_view name)
{
    const auto it = nameIds_.find(name);
    if (it != nameIds_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(jsonEscape(name));
    nameIds_.emplace(std::string(name), id);
    return id;
}

void
TraceSink::addMetadata(TracePhase phase, int pid, std::uint64_t tid,
                       std::string_view name)
{
    metadata_.push_back(events_.size());
    push({.tid = tid, .pid = pid, .name = intern(name), .phase = phase});
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
    if (events_.size() % kIndexBlock == 0)
        blockMaxEnd_.push_back(record.end());
    else
        blockMaxEnd_.back() = std::max(blockMaxEnd_.back(), record.end());
    events_.push_back(record);
}

void
TraceSink::add(const TraceRecord &record)
{
    if (capacity_ == 0 || events_.size() < capacity_) {
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
TraceSink::complete(int pid, std::uint64_t tid, std::string_view name,
                    const char *cat, sim::Tick start, sim::Tick end,
                    const TraceArgs &args)
{
    add({.tick = start, .dur = end - start, .tid = tid, .cat = cat,
         .pid = pid, .name = intern(name),
         .phase = TracePhase::Complete, .args = args});
}

void
TraceSink::complete(int pid, std::uint64_t tid, TraceName name,
                    const char *cat, sim::Tick start, sim::Tick end,
                    const TraceArgs &args)
{
    add({.tick = start, .dur = end - start, .tid = tid, .cat = cat,
         .pid = pid, .name = static_cast<std::uint32_t>(name),
         .phase = TracePhase::Complete, .args = args});
}

void
TraceSink::instant(int pid, std::uint64_t tid, std::string_view name,
                   const char *cat, sim::Tick at)
{
    add({.tick = at, .tid = tid, .cat = cat, .pid = pid,
         .name = intern(name), .phase = TracePhase::Instant});
}

void
TraceSink::counter(int pid, std::string_view name, sim::Tick at,
                   const TraceArgs &args)
{
    add({.tick = at, .pid = pid, .name = intern(name),
         .phase = TracePhase::Counter, .args = args});
}

void
TraceSink::counter(int pid, TraceName name, sim::Tick at,
                   const TraceArgs &args)
{
    add({.tick = at, .pid = pid, .name = static_cast<std::uint32_t>(name),
         .phase = TracePhase::Counter, .args = args});
}

void
TraceSink::asyncBegin(int pid, std::uint64_t id, std::string_view name,
                      const char *cat, sim::Tick at,
                      const TraceArgs &args)
{
    add({.tick = at, .tid = id, .cat = cat, .pid = pid,
         .name = intern(name), .phase = TracePhase::AsyncBegin,
         .args = args});
}

void
TraceSink::asyncEnd(int pid, std::uint64_t id, std::string_view name,
                    const char *cat, sim::Tick at)
{
    add({.tick = at, .tid = id, .cat = cat, .pid = pid,
         .name = intern(name), .phase = TracePhase::AsyncEnd});
}

void
TraceSink::render(const TraceRecord &r, std::string &out) const
{
    // One append per record; a record too long for the stack buffer
    // (a long name or text argument) renders straight into @p out.
    StackBuffer buf;
    renderRecord(r, names_[r.name], buf);
    if (buf.ok())
        out += buf.view();
    else
        renderRecord(r, names_[r.name], out);
}

std::string
TraceSink::toJson() const
{
    std::string out = "{\"traceEvents\":[";
    out.reserve(events_.size() * 160);
    for (std::size_t i = 0; i < events_.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        render(events_[i], out);
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
    events_.clear();
    blockMaxEnd_.clear();
    metadata_.clear();
    overflow_.clear();
    names_.clear();
    nameIds_.clear();
    internWellKnown();
    named_.clear();
    dropped_ = 0;
    if (recorder_ != nullptr)
        recorder_->forgetMetadata();
}

} // namespace agentsim::telemetry
