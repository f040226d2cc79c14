#ifndef D3T_BENCH_E2E_PIPELINE_H_
#define D3T_BENCH_E2E_PIPELINE_H_

// The stages the benchmark drives, each a public call into one module,
// wrapped in ledger spans. The untraced pass builds worlds and runs
// push policies through the public session API (SessionBuilder::Build,
// SimulationSession::Run); the traced pass composes the same pipeline
// from the module calls themselves, with the same RNG forks, so every
// stage gets its own span. Pull runs and serving have no session entry
// point, so both passes share those stages.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "core/engine.h"
#include "core/fidelity.h"
#include "core/interest.h"
#include "core/lela.h"
#include "core/pull.h"
#include "core/scenario.h"
#include "exp/config.h"
#include "exp/session.h"
#include "ledger.h"
#include "net/delay_model.h"
#include "net/socket_transport.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "serve/node.h"
#include "trace/trace.h"

namespace d3t::e2e {

/// One benchmark workload: the worlds it builds and the unit of work it
/// times. On each world a unit makes either the push runs (plus an
/// optional adaptive pull run) or, for serving, one socket feed followed
/// by Node::Serve.
struct Workload {
  std::string name;
  exp::NetworkConfig network;
  exp::WorkloadConfig workload;
  exp::OverlayConfig overlay;
  /// Worlds a unit runs over; world i of a run at seed s is generated
  /// from seed s * worlds + i. How much work a world makes varies by
  /// several percent from seed to seed; a unit over several worlds
  /// varies less.
  size_t worlds = 1;
  /// Push runs on each world, in order. For serving, runs[0] is the
  /// policy the node serves with.
  std::vector<exp::PolicyConfig> runs;
  bool pull = false;
  bool serve = false;
  /// > 0 attaches an exp::MakeChurnScenario script with this many
  /// fail/recover episodes to every push run.
  size_t churn_failures = 0;
  /// Outage length bounds, as fractions of the horizon.
  std::pair<double, double> churn_outage;
};

/// Routing threads: min(4, hardware threads).
size_t BuildThreads();

/// The module outputs a run reads, whether the public World or the
/// traced pass's own composition holds them.
struct WorldView {
  const net::OverlayDelayModel* delays = nullptr;
  double mean_pair_delay_us = 0.0;
  const std::vector<trace::Trace>* traces = nullptr;
  const core::ChangeTimelines* timelines = nullptr;
  const std::vector<core::InterestSet>* interests = nullptr;
  size_t items = 0;
  size_t repositories = 0;
};

/// The traced pass's world: SessionBuilder::Build's outputs, produced
/// stage by stage.
struct ComposedWorld {
  std::vector<net::OverlayDelayModel> delays;  // one: single source
  StreamingStats pair_delay_stats;
  double mean_pair_hops = 0.0;
  std::vector<trace::Trace> traces;
  core::ChangeTimelines timelines;
  std::vector<core::InterestSet> interests;
  /// Rows the routing stage computed, and the heap it left allocated
  /// (the delay model).
  size_t routed_rows = 0;
  double routing_heap_mib = 0.0;
};

/// The loopback TCP pair a feed crosses: the node listens as peer 0,
/// the publisher (peer 1) dials it.
struct FeedLink {
  net::SocketTransport node{2, 0};
  net::SocketTransport publisher{2, 1};
};

/// One world of a unit, and everything built for it before the unit.
struct Setup {
  uint64_t seed = 0;  // the world's seed
  std::optional<exp::SimulationSession> session;  // untraced pass
  std::unique_ptr<ComposedWorld> composed;        // traced pass
  WorldView view;
  core::Scenario scenario;
  /// Serving only: the node's overlay and its feed link.
  std::unique_ptr<core::Overlay> overlay;
  std::unique_ptr<FeedLink> feed;
};

/// What one served feed measured.
struct ServeResult {
  serve::NodeReport report;
  double feed_s = 0.0;
  double serve_s = 0.0;
  uint64_t rounds = 0;
  uint64_t socket_bytes = 0;
  uint64_t socket_stalls = 0;
  uint64_t socket_decode_errors = 0;
};

/// One operation of a unit: a push run, a pull run or a served feed.
struct Op {
  std::string label;
  Status status;
  bool is_pull = false;
  core::EngineMetrics engine;
  core::PullMetrics pull;
  double seconds = 0.0;
  /// Wall time of the calls that ran the engine's logical events: the
  /// whole push run, or Node::Serve. 0 for a pull run.
  double engine_seconds = 0.0;
  /// When the unit ran with a HostReference: `seconds` and
  /// `engine_seconds` scaled to a quiet host (HostReference::Scale).
  double scaled_seconds = 0.0;
  double scaled_engine_seconds = 0.0;
  /// Traced push runs only: Engine construction and Run() wall time,
  /// and the LeLA edge count of the run's overlay.
  double ctor_s = 0.0;
  double loop_s = 0.0;
  uint64_t lela_edges = 0;
  /// Heap the engine still held after Run(): its queues and pools at
  /// their high-water capacity.
  double engine_heap_mib = 0.0;
  std::optional<ServeResult> serve;
};

/// The operations of one unit, world by world.
struct Unit {
  std::vector<Op> ops;
  double seconds = 0.0;
  /// Logical engine events of the push runs and served feeds.
  uint64_t events = 0;
};

/// Builds every world of a unit of `w` at `seed`. `composed` selects the
/// traced composition over the public session API.
Result<std::vector<Setup>> BuildWorlds(const Workload& w, uint64_t seed,
                                       bool composed, Ledger& ledger);

/// Runs one unit of `w` over `worlds`. A failed operation keeps its
/// Status and the unit goes on. With a `reference`, the kernel is timed
/// before the first operation and after each one (outside
/// `Unit::seconds`), and every operation gets its scaled times.
Unit RunUnit(const Workload& w, std::vector<Setup>& worlds, Ledger& ledger,
             HostReference* reference = nullptr);

/// The RunSpec of push run `policy` of `w` on world `setup`.
exp::RunSpec SpecFor(const Workload& w, const exp::PolicyConfig& policy,
                     const Setup& setup);

/// Session::Run's push pipeline composed from module calls (LeLA,
/// Validate, Engine); optional recorder/registry attach to the engine.
Op ComposedRun(const WorldView& view, const exp::RunSpec& spec,
               Ledger& ledger, obs::Recorder* recorder = nullptr,
               obs::Registry* registry = nullptr);

/// LeLA overlay for `spec`, exactly as Session::Run builds it.
Result<core::Overlay> BuildRunOverlay(const WorldView& view,
                                      const exp::RunSpec& spec,
                                      Ledger& ledger,
                                      uint64_t* lela_edges = nullptr);

/// One adaptive PullEngine run over the world.
Op RunPull(const WorldView& view, Ledger& ledger);

/// Listen + connect a fresh loopback feed link.
Result<std::unique_ptr<FeedLink>> ConnectFeed(Ledger& ledger);

/// Publishes the world's feed over `link` to a fresh serve::Node, driven
/// by the benchmark's own loop (FeedPublisher::Pump, SocketTransport::
/// Pump, Node::PollFeed), then Node::Serve with every push framed over
/// an in-process data transport.
Result<ServeResult> ServeFeed(const WorldView& view, core::Overlay& overlay,
                              const exp::RunSpec& spec, FeedLink& link,
                              Ledger& ledger);

/// Name of the first field (declaration order) whose bytes differ, or
/// "" when the metrics are byte-identical.
std::string FirstDifference(const core::EngineMetrics& a,
                            const core::EngineMetrics& b);
std::string FirstDifference(const core::PullMetrics& a,
                            const core::PullMetrics& b);
/// Compares two operations' metrics; "" when identical.
std::string FirstDifference(const Op& a, const Op& b);

/// Every EngineMetrics field name, declaration order (for selftests).
const std::vector<std::string>& EngineFieldNames();
/// Flips the bytes of one EngineMetrics field (for selftests).
void PerturbField(core::EngineMetrics& m, const std::string& field);

}  // namespace d3t::e2e

#endif  // D3T_BENCH_E2E_PIPELINE_H_
