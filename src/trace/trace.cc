#include "trace/trace.hh"

#include "sim/logging.hh"

namespace ts
{

namespace trace
{

namespace
{

/** Escape a string for inclusion in a JSON string literal. */
std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x", c);
                out += hex;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

Tracer::Tracer(TracerConfig cfg) : cfg_(std::move(cfg))
{
    if (!cfg_.enabled)
        return;
    out_.open(cfg_.path, std::ios::out | std::ios::trunc);
    if (!out_)
        fatal("trace: cannot open '", cfg_.path, "' for writing");
    enabled_ = true;
    buf_.reserve(1u << 16);
    header();
}

Tracer::~Tracer()
{
    // A tracer abandoned before finish() (its run threw) still closes
    // its document.  A destructor must not throw, so a write error
    // here is only a warning.
    if (!closeDocument())
        warn("trace: cannot write '", cfg_.path, "'");
}

void
Tracer::header()
{
    buf_ += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    // Process metadata: one simulated accelerator = one "process".
    buf_ += "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
            "\"args\":{\"name\":\"" +
            jsonEscape(cfg_.processName) + "\"}}";
    ++events_;
}

TrackId
Tracer::track(const std::string& name)
{
    auto it = tracks_.find(name);
    if (it != tracks_.end())
        return it->second;
    const TrackId tid = nextTrack_++;
    tracks_.emplace(name, tid);
    if (enabled_ && !finished_) {
        buf_ += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" +
                std::to_string(tid) +
                ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
                jsonEscape(name) + "\"}}";
        buf_ += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" +
                std::to_string(tid) +
                ",\"name\":\"thread_sort_index\",\"args\":"
                "{\"sort_index\":" +
                std::to_string(tid) + "}}";
        events_ += 2;
        maybeFlush();
    }
    return tid;
}

void
Tracer::emitPrefix(char ph, Tick ts, TrackId tid)
{
    buf_ += ",\n{\"ph\":\"";
    buf_ += ph;
    buf_ += "\",\"ts\":" + std::to_string(ts) +
            ",\"pid\":1,\"tid\":" + std::to_string(tid);
}

void
Tracer::begin(TrackId tid, const char* name, std::string args)
{
    if (!enabled_ || finished_)
        return;
    emitPrefix('B', now_, tid);
    buf_ += ",\"name\":\"";
    buf_ += name;
    buf_ += '"';
    if (!args.empty())
        buf_ += ",\"args\":{" + args + "}";
    buf_ += '}';
    ++events_;
    maybeFlush();
}

void
Tracer::end(TrackId tid)
{
    if (!enabled_ || finished_)
        return;
    emitPrefix('E', now_, tid);
    buf_ += '}';
    ++events_;
    maybeFlush();
}

void
Tracer::complete(TrackId tid, Tick start, Tick dur, const char* name,
                 std::string args)
{
    if (!enabled_ || finished_)
        return;
    emitPrefix('X', start, tid);
    buf_ += ",\"dur\":" + std::to_string(dur) + ",\"name\":\"";
    buf_ += name;
    buf_ += '"';
    if (!args.empty())
        buf_ += ",\"args\":{" + args + "}";
    buf_ += '}';
    ++events_;
    maybeFlush();
}

void
Tracer::instant(TrackId tid, const char* name, std::string args)
{
    if (!enabled_ || finished_)
        return;
    emitPrefix('i', now_, tid);
    buf_ += ",\"s\":\"t\",\"name\":\"";
    buf_ += name;
    buf_ += '"';
    if (!args.empty())
        buf_ += ",\"args\":{" + args + "}";
    buf_ += '}';
    ++events_;
    maybeFlush();
}

void
Tracer::counter(const char* name, const char* series, double value)
{
    if (!enabled_ || finished_)
        return;
    emitPrefix('C', now_, 0);
    buf_ += ",\"name\":\"";
    buf_ += name;
    buf_ += "\",\"args\":{\"";
    buf_ += series;
    buf_ += "\":";
    // Counters are almost always integral; print them tersely.
    if (value == static_cast<double>(static_cast<std::int64_t>(value)))
        buf_ += std::to_string(static_cast<std::int64_t>(value));
    else
        buf_ += std::to_string(value);
    buf_ += "}}";
    ++events_;
    maybeFlush();
}

void
Tracer::maybeFlush()
{
    if (buf_.size() >= (1u << 16)) {
        out_ << buf_;
        buf_.clear();
    }
}

bool
Tracer::closeDocument()
{
    if (!enabled_ || finished_)
        return true;
    finished_ = true;
    buf_ += "\n]}\n";
    out_ << buf_;
    buf_.clear();
    out_.close();
    return !out_.fail();
}

void
Tracer::finish()
{
    if (!closeDocument())
        fatal("trace: cannot write '", cfg_.path, "'");
}

} // namespace trace

} // namespace ts
