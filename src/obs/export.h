#ifndef D3T_OBS_EXPORT_H_
#define D3T_OBS_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/table.h"
#include "obs/recorder.h"
#include "obs/registry.h"

namespace d3t::obs {

/// The recorder's retained events in canonical order: sorted by the
/// full record key (at_us, kind, actor, arg, arg2, code). Recording
/// ORDER within one logical instant legitimately varies with the event
/// kernel's batching toggles (a drained span interleaves differently
/// with same-window events), but the canonical multiset does not — so
/// every exporter sorts first, and the determinism suite pins the
/// sorted dump byte-identically across reruns and kernel toggles.
std::vector<TraceEvent> CanonicalTrace(const Recorder& recorder);
std::vector<TraceEvent> CanonicalTrace(std::vector<TraceEvent> events);

/// Deterministic text dump, one canonical event per line — the
/// byte-identity pin target.
std::string DumpTrace(const Recorder& recorder);
std::string DumpTrace(const std::vector<TraceEvent>& events);

/// One process's share of a merged multi-process trace.
struct TraceStream {
  uint32_t pid = 0;
  std::string label;
  std::vector<TraceEvent> events;
};

/// Chrome-trace ("Trace Event Format") JSON — loads directly into
/// chrome://tracing and Perfetto. Events become instants on the
/// (pid, actor-as-tid) track; timestamps are logical microseconds.
std::string ChromeTraceJson(const Recorder& recorder, uint32_t pid = 0,
                            const std::string& label = "d3t");
std::string ChromeTraceJson(const std::vector<TraceStream>& streams);

Status WriteFile(const std::string& path, const std::string& contents);

/// Writes ChromeTraceJson(recorder) to `path`.
Status WriteChromeTrace(const Recorder& recorder, const std::string& path,
                        uint32_t pid = 0, const std::string& label = "d3t");

/// One row of the shared per-node summary table.
struct NodeSummaryRow {
  std::string label;
  const Snapshot* snapshot = nullptr;
  std::vector<std::string> extra;  // appended after the shared columns
};

/// The per-node summary both live_node and distributed_world print:
/// label, engine messages + loss, feed bytes/stalls/faults/decode
/// errors/reconnects out of each node's snapshot ("engine.*" and
/// "feed.*"/"data.*" metrics), plus caller-supplied extra columns.
TablePrinter NodeSummaryTable(const std::vector<NodeSummaryRow>& rows,
                              const std::vector<std::string>& extra_headers);

}  // namespace d3t::obs

#endif  // D3T_OBS_EXPORT_H_
