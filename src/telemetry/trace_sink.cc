#include "telemetry/trace_sink.hh"

#include <charconv>

#include "sim/strfmt.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/registry.hh"

namespace agentsim::telemetry
{

namespace
{

void
appendEscaped(std::string &out, std::string_view s)
{
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
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += sim::strfmt("\\u%04x",
                                   static_cast<unsigned>(
                                       static_cast<unsigned char>(c)));
            } else {
                out += c;
            }
        }
    }
}

/** std::to_chars into @p out; @p fmt as to_chars takes it (a base,
 *  or chars_format::fixed and 6 for printf's "%.6f" digits). */
template <typename T, typename... Fmt>
void
appendChars(std::string &out, T v, Fmt... fmt)
{
    char buf[352];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v, fmt...).ptr);
}

void
appendArgs(std::string &out, const TraceArgs &args)
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

} // namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
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
    events_.push_back(
        {.tid = tid, .pid = pid, .name = intern(name), .phase = phase});
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
        if (recorder_ != nullptr)
            recorder_->trace_ = nullptr;
        if (recorder != nullptr && recorder->trace_ != nullptr)
            recorder->trace_->attachRecorder(nullptr);
    }
    recorder_ = recorder;
    if (recorder_ != nullptr)
        recorder_->trace_ = this;
}

void
TraceSink::add(const TraceRecord &record)
{
    if (capacity_ == 0 || events_.size() < capacity_) {
        events_.push_back(record);
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
    const std::string &name = names_[r.name];
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
TraceSink::clear()
{
    events_.clear();
    metadata_.clear();
    overflow_.clear();
    names_.clear();
    nameIds_.clear();
    named_.clear();
    dropped_ = 0;
}

} // namespace agentsim::telemetry
