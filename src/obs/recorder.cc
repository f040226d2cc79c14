#include "obs/recorder.h"

namespace d3t::obs {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kNone:
      return "none";
    case TraceEventKind::kSourceTick:
      return "source-tick";
    case TraceEventKind::kDelivery:
      return "delivery";
    case TraceEventKind::kJobProcessed:
      return "job-processed";
    case TraceEventKind::kScenarioOp:
      return "scenario-op";
    case TraceEventKind::kRepair:
      return "repair";
    case TraceEventKind::kFrameTx:
      return "frame-tx";
    case TraceEventKind::kFrameRx:
      return "frame-rx";
    case TraceEventKind::kDecodeError:
      return "decode-error";
    case TraceEventKind::kFaultInjected:
      return "fault-injected";
    case TraceEventKind::kResubscribe:
      return "resubscribe";
    case TraceEventKind::kPullPoll:
      return "pull-poll";
  }
  return "unknown";
}

Recorder::Recorder(size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void Recorder::Clear() {
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
}

}  // namespace d3t::obs
