#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <tuple>

namespace d3t::obs {

namespace {

bool CanonicalLess(const TraceEvent& a, const TraceEvent& b) {
  return std::tie(a.at_us, a.kind, a.actor, a.arg, a.arg2, a.code) <
         std::tie(b.at_us, b.kind, b.actor, b.arg, b.arg2, b.code);
}

std::vector<TraceEvent> CollectEvents(const Recorder& recorder) {
  std::vector<TraceEvent> events;
  events.reserve(recorder.size());
  for (size_t i = 0; i < recorder.size(); ++i) {
    events.push_back(recorder.at(i));
  }
  return events;
}

void AppendChromeEvents(std::string& out, uint32_t pid,
                        const std::vector<TraceEvent>& events, bool& first) {
  char line[256];
  for (const TraceEvent& event : events) {
    std::snprintf(
        line, sizeof(line),
        "%s\n  {\"name\": \"%s\", \"ph\": \"i\", \"s\": \"t\", "
        "\"pid\": %" PRIu32 ", \"tid\": %" PRIu32 ", \"ts\": %" PRId64
        ", \"args\": {\"arg\": %" PRIu64 ", \"arg2\": %" PRIu64
        ", \"code\": %u}}",
        first ? "" : ",",
        TraceEventKindName(static_cast<TraceEventKind>(event.kind)), pid,
        event.actor, event.at_us, event.arg, event.arg2,
        static_cast<unsigned>(event.code));
    out += line;
    first = false;
  }
}

void AppendProcessName(std::string& out, uint32_t pid,
                       const std::string& label, bool& first) {
  char line[192];
  std::snprintf(line, sizeof(line),
                "%s\n  {\"name\": \"process_name\", \"ph\": \"M\", "
                "\"pid\": %" PRIu32
                ", \"args\": {\"name\": \"%s\"}}",
                first ? "" : ",", pid, label.c_str());
  out += line;
  first = false;
}

}  // namespace

std::vector<TraceEvent> CanonicalTrace(std::vector<TraceEvent> events) {
  std::sort(events.begin(), events.end(), CanonicalLess);
  return events;
}

std::vector<TraceEvent> CanonicalTrace(const Recorder& recorder) {
  return CanonicalTrace(CollectEvents(recorder));
}

std::string DumpTrace(const std::vector<TraceEvent>& events) {
  const std::vector<TraceEvent> canonical = CanonicalTrace(events);
  std::string out;
  out.reserve(canonical.size() * 48);
  char line[160];
  for (const TraceEvent& event : canonical) {
    std::snprintf(line, sizeof(line),
                  "%" PRId64 " %s actor=%" PRIu32 " arg=%" PRIu64
                  " arg2=%" PRIu64 " code=%u\n",
                  event.at_us,
                  TraceEventKindName(static_cast<TraceEventKind>(event.kind)),
                  event.actor, event.arg, event.arg2,
                  static_cast<unsigned>(event.code));
    out += line;
  }
  return out;
}

std::string DumpTrace(const Recorder& recorder) {
  return DumpTrace(CollectEvents(recorder));
}

std::string ChromeTraceJson(const std::vector<TraceStream>& streams) {
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const TraceStream& stream : streams) {
    AppendProcessName(out, stream.pid, stream.label, first);
  }
  for (const TraceStream& stream : streams) {
    AppendChromeEvents(out, stream.pid, CanonicalTrace(stream.events),
                       first);
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::string ChromeTraceJson(const Recorder& recorder, uint32_t pid,
                            const std::string& label) {
  TraceStream stream;
  stream.pid = pid;
  stream.label = label;
  stream.events = CollectEvents(recorder);
  return ChromeTraceJson({stream});
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.is_open()) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  file.write(contents.data(),
             static_cast<std::streamsize>(contents.size()));
  file.flush();
  if (!file.good()) return Status::IoError("short write to " + path);
  return Status::Ok();
}

Status WriteChromeTrace(const Recorder& recorder, const std::string& path,
                        uint32_t pid, const std::string& label) {
  return WriteFile(path, ChromeTraceJson(recorder, pid, label));
}

TablePrinter NodeSummaryTable(const std::vector<NodeSummaryRow>& rows,
                              const std::vector<std::string>& extra_headers) {
  std::vector<std::string> headers = {"node",      "msgs",      "loss%",
                                      "feedKB",    "stalls",    "faultsInj",
                                      "decodeErr", "reconn"};
  headers.insert(headers.end(), extra_headers.begin(), extra_headers.end());
  TablePrinter table(std::move(headers));
  for (const NodeSummaryRow& row : rows) {
    static const Snapshot kEmpty{};
    const Snapshot& snap = row.snapshot != nullptr ? *row.snapshot : kEmpty;
    std::vector<std::string> cells = {
        row.label,
        TablePrinter::Int(
            static_cast<int64_t>(SnapshotCounter(snap, "engine.messages"))),
        TablePrinter::Num(SnapshotGauge(snap, "engine.loss_percent"), 3),
        TablePrinter::Num(
            static_cast<double>(SnapshotCounter(snap, "feed.bytes_rx")) /
                1024.0,
            1),
        TablePrinter::Int(static_cast<int64_t>(
            SnapshotCounter(snap, "feed.backpressure_stalls"))),
        TablePrinter::Int(static_cast<int64_t>(
            SnapshotCounter(snap, "feed.faults_injected"))),
        TablePrinter::Int(static_cast<int64_t>(
            SnapshotCounter(snap, "feed.decode_errors") +
            SnapshotCounter(snap, "data.decode_errors"))),
        TablePrinter::Int(static_cast<int64_t>(
            SnapshotCounter(snap, "feed.reconnects"))),
    };
    cells.insert(cells.end(), row.extra.begin(), row.extra.end());
    table.AddRow(std::move(cells));
  }
  return table;
}

}  // namespace d3t::obs
