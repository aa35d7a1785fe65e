#include "obs/export.hh"

#include <cstdio>
#include <fstream>
#include <set>

namespace nowcluster {

namespace {

void
appendEvent(std::string &out, bool &first, const char *json)
{
    if (!first)
        out += ",\n";
    first = false;
    out += json;
}

/** ts/dur in microseconds with ns precision (ticks are ns). */
std::string
us(Tick t)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(t) / 1e3);
    return buf;
}

} // namespace

std::string
perfettoJson(const SpanTracer &tracer)
{
    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    char buf[512];

    // Metadata: name each (pid, tid) so the timeline reads
    // "node N / cpu|nic-tx|nic-rx". Tracks are emitted for every
    // node that has at least one span.
    std::set<NodeId> nodes;
    for (const Span &s : tracer.spans())
        nodes.insert(s.node);
    for (NodeId n : nodes) {
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                      "\"name\":\"process_name\","
                      "\"args\":{\"name\":\"node %d\"}}",
                      n, n);
        appendEvent(out, first, buf);
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                      "\"name\":\"process_sort_index\","
                      "\"args\":{\"sort_index\":%d}}",
                      n, n);
        appendEvent(out, first, buf);
        for (int k = 0; k < kNumTrackKinds; ++k) {
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                          "\"name\":\"thread_name\","
                          "\"args\":{\"name\":\"%s\"}}",
                          n, k,
                          trackKindName(static_cast<TrackKind>(k)));
            appendEvent(out, first, buf);
        }
    }

    for (const Span &s : tracer.spans()) {
        int tid = static_cast<int>(s.track);
        // Clamp degenerate records: SpanTracer::span() keeps a
        // Retransmit record whatever its end, so one can carry
        // end < begin, and a negative "dur" makes a trace_event viewer
        // reject the whole document. Clamped spans render as instant
        // events.
        const Tick end = s.end < s.begin ? s.begin : s.end;
        if (end == s.begin) {
            // Zero-duration record (retransmit) -> instant event.
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,"
                          "\"ts\":%s,\"s\":\"t\",\"name\":\"%s\","
                          "\"cat\":\"%s\"}",
                          s.node, tid, us(s.begin).c_str(),
                          spanCatName(s.cat), spanCatName(s.cat));
            appendEvent(out, first, buf);
            continue;
        }
        if (s.msg) {
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                          "\"ts\":%s,\"dur\":%s,\"name\":\"%s\","
                          "\"cat\":\"%s\",\"args\":{\"msg\":%llu}}",
                          s.node, tid, us(s.begin).c_str(),
                          us(end - s.begin).c_str(),
                          spanCatName(s.cat), spanCatName(s.cat),
                          static_cast<unsigned long long>(s.msg));
        } else {
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                          "\"ts\":%s,\"dur\":%s,\"name\":\"%s\","
                          "\"cat\":\"%s%s\"}",
                          s.node, tid, us(s.begin).c_str(),
                          us(end - s.begin).c_str(),
                          spanCatName(s.cat), spanCatName(s.cat),
                          s.container ? ",container" : "");
        }
        appendEvent(out, first, buf);
    }

    // Flow arrows: message injection on the source tx track to
    // presence-bit time on the destination rx track.
    for (const ObsMessage &m : tracer.messages()) {
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"s\",\"pid\":%d,\"tid\":%d,"
                      "\"ts\":%s,\"id\":%llu,\"name\":\"msg\","
                      "\"cat\":\"flow\"}",
                      m.src, static_cast<int>(TrackKind::NicTx),
                      us(m.inject).c_str(),
                      static_cast<unsigned long long>(m.id));
        appendEvent(out, first, buf);
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"f\",\"pid\":%d,\"tid\":%d,"
                      "\"ts\":%s,\"id\":%llu,\"name\":\"msg\","
                      "\"cat\":\"flow\",\"bp\":\"e\"}",
                      m.dst, static_cast<int>(TrackKind::NicRx),
                      us(m.ready).c_str(),
                      static_cast<unsigned long long>(m.id));
        appendEvent(out, first, buf);
    }

    out += "\n],\"displayTimeUnit\":\"ns\"}\n";
    return out;
}

bool
writePerfettoJson(const SpanTracer &tracer, const std::string &path)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    const std::string doc = perfettoJson(tracer);
    f.write(doc.data(), static_cast<std::streamsize>(doc.size()));
    return f.good();
}

} // namespace nowcluster
