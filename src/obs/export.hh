/**
 * @file
 * Trace exporter: Chrome/Perfetto trace_event JSON for the `chrome://
 * tracing` / ui.perfetto.dev timeline view (`nowlab trace --out`).
 *
 * Perfetto mapping: pid = node id (named "node N"), tid = track kind
 * (named "cpu" / "nic-tx" / "nic-rx"), complete events ("ph":"X") with
 * microsecond ts/dur from nanosecond ticks, flow events ("s"/"f")
 * linking a message's o_send span to its o_recv span, and instant
 * events ("i") for retransmissions.
 */

#ifndef NOWCLUSTER_OBS_EXPORT_HH_
#define NOWCLUSTER_OBS_EXPORT_HH_

#include <string>

#include "obs/tracer.hh"

namespace nowcluster {

/** Render the Perfetto trace_event JSON document. */
std::string perfettoJson(const SpanTracer &tracer);

/** Write perfettoJson() to a file. */
bool writePerfettoJson(const SpanTracer &tracer, const std::string &path);

} // namespace nowcluster

#endif // NOWCLUSTER_OBS_EXPORT_HH_
