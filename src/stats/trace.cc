#include "stats/trace.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "obs/tracer.hh"

namespace nowcluster {

const char *
packetKindName(PacketKind kind)
{
    switch (kind) {
      case PacketKind::Request:
        return "request";
      case PacketKind::Reply:
        return "reply";
      case PacketKind::OneWay:
        return "oneway";
      case PacketKind::BulkFrag:
        return "bulk";
    }
    return "?";
}

double
MessageTrace::meanFlightUs() const
{
    if (records_.empty())
        return 0.0;
    double sum = 0;
    for (const TraceRecord &r : records_)
        sum += toUsec(r.readyAt - r.issuedAt);
    return sum / static_cast<double>(records_.size());
}

double
MessageTrace::burstFraction(Tick threshold) const
{
    // Group issue times by source, then count consecutive gaps below
    // the threshold.
    std::map<NodeId, std::vector<Tick>> by_src;
    for (const TraceRecord &r : records_)
        by_src[r.src].push_back(r.issuedAt);
    std::uint64_t close = 0, total = 0;
    for (auto &[src, times] : by_src) {
        std::sort(times.begin(), times.end());
        for (std::size_t i = 1; i < times.size(); ++i) {
            ++total;
            if (times[i] - times[i - 1] < threshold)
                ++close;
        }
    }
    return total ? static_cast<double>(close) /
                       static_cast<double>(total)
                 : 0.0;
}

bool
MessageTrace::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "issued_us,ready_us,src,dst,kind,bytes\n");
    for (const TraceRecord &r : records_) {
        std::fprintf(f, "%.3f,%.3f,%d,%d,%s,%u\n", toUsec(r.issuedAt),
                     toUsec(r.readyAt), r.src, r.dst,
                     packetKindName(r.kind), r.bytes);
    }
    std::fclose(f);
    return true;
}

MessageTrace
messageTraceFromObs(const SpanTracer &tracer)
{
    // End of each message's tx-queue stall: the host hands the
    // descriptor over only once the NIC has room for it.
    std::unordered_map<std::uint64_t, Tick> stall_end;
    for (const Span &s : tracer.spans()) {
        if (s.msg == 0 || s.track != TrackKind::Cpu ||
            s.cat != SpanCat::GapStall)
            continue;
        Tick &end = stall_end[s.msg];
        end = std::max(end, s.end);
    }

    std::vector<TraceRecord> records;
    records.reserve(tracer.messages().size());
    for (const ObsMessage &m : tracer.messages()) {
        if (m.retx)
            continue;
        Tick issued = m.issued;
        if (auto it = stall_end.find(m.id); it != stall_end.end())
            issued = std::max(issued, it->second);
        const auto kind = static_cast<PacketKind>(m.kind);
        records.push_back({issued, m.ready, m.src, m.dst, kind,
                           kind == PacketKind::BulkFrag ? m.bytes : 0});
    }
    return MessageTrace(std::move(records));
}

} // namespace nowcluster
