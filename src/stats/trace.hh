/**
 * @file
 * Per-message traces for burstiness analysis (the property behind the
 * paper's gap models) and CSV export. A MessageTrace is derived from a
 * span tracer's message records after the run (messageTraceFromObs),
 * so it works on every engine, sharded included.
 */

#ifndef NOWCLUSTER_STATS_TRACE_HH_
#define NOWCLUSTER_STATS_TRACE_HH_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "net/packet.hh"

namespace nowcluster {

class SpanTracer;

/** One traced message. */
struct TraceRecord
{
    Tick issuedAt;  ///< Host finished handing it to the NIC.
    Tick readyAt;   ///< Presence bit set at the receiver.
    NodeId src;
    NodeId dst;
    PacketKind kind;
    std::uint32_t bytes; ///< Payload bytes (fragment size for bulk).
};

/** An in-memory message trace with CSV export. */
class MessageTrace
{
  public:
    explicit MessageTrace(std::vector<TraceRecord> records = {})
        : records_(std::move(records))
    {
    }

    const std::vector<TraceRecord> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }

    /** Mean in-flight time (issue to presence bit), microseconds. */
    double meanFlightUs() const;

    /**
     * Fraction of consecutive same-source messages issued closer
     * together than `threshold` -- a burstiness measure (Section 5.2).
     */
    double burstFraction(Tick threshold) const;

    /** Write `issued_us,ready_us,src,dst,kind,bytes` rows. */
    bool writeCsv(const std::string &path) const;

  private:
    std::vector<TraceRecord> records_;
};

/**
 * The message trace of a span-traced run: one record per application
 * message, in the tracer's message order. Retransmitted copies are
 * skipped. A message is issued once the host is free again, i.e. at
 * the end of its tx-queue stall (its Cpu-track GapStall span) when it
 * had one; only bulk fragments carry a byte count.
 */
MessageTrace messageTraceFromObs(const SpanTracer &tracer);

/** Human-readable packet kind (also used in the CSV). */
const char *packetKindName(PacketKind kind);

} // namespace nowcluster

#endif // NOWCLUSTER_STATS_TRACE_HH_
