// Reproduces §6.3.5: scalability of the algorithms. The paper grows the
// system from 700 nodes (100 repositories) to 2100 nodes (300
// repositories) and observes that, with controlled cooperation, the loss
// in fidelity grows by less than 5%. Worlds are routed with the default
// memory-bounded streaming path (one Dijkstra row per member, searched
// on the topology's member core and scattered straight into the
// compressed member x member delay model — no physical n x n routing
// table is ever allocated), verified equivalent to Floyd-Warshall by
// tests.
//
// `--tenk` pushes to a 10,000-repository / 70,001-node world; the table
// reports substrate-build and engine-run wall time, logical events per
// second, and the process peak RSS so memory growth is visible.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "exp/scenario.h"
#include "exp/session.h"

namespace d3t {
namespace {

/// Peak resident set size of this process in MiB (ru_maxrss is KiB on
/// Linux).
double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(cli);
  cli.AddFlag("tenk", "false",
              "scale to a 10,000-repository (70,001-node) world");
  cli.AddFlag("churn", "false",
              "attach a generated failure-churn scenario to every point "
              "(repair volume and fidelity cost appear in the table)");
  cli = bench::ParseFlagsOrDie(argc, argv, std::move(cli));
  bench::FlagConfig base = bench::ConfigFromFlags(cli);
  base.workload.stringent_fraction = 0.5;

  bench::PrintBanner("Section 6.3.5", "scalability with repository count",
                     base);

  std::vector<size_t> repo_counts;
  if (cli.GetInt("repositories") > 0) {
    // Explicit override: a single point at the requested size (this is
    // what the CI bench-smoke job uses to keep the run tiny).
    repo_counts = {static_cast<size_t>(cli.GetInt("repositories"))};
  } else if (cli.GetBool("tenk")) {
    repo_counts = {1000, 10000};
  } else if (cli.GetBool("full")) {
    repo_counts = {100, 200, 300};
  } else {
    repo_counts = {20, 40, 60};
  }

  const bool with_churn = cli.GetBool("churn");
  TablePrinter table(
      with_churn
          ? std::vector<std::string>{"Repos", "Nodes", "EffDegree",
                                     "Diameter", "Loss%", "Messages",
                                     "Repairs", "Dropped", "BuildS",
                                     "RunS", "Events/s", "PeakRSS_MiB"}
          : std::vector<std::string>{"Repos", "Nodes", "EffDegree",
                                     "Diameter", "Loss%", "Messages",
                                     "BuildS", "RunS", "Events/s",
                                     "PeakRSS_MiB"});
  double first_loss = -1.0, last_loss = 0.0;
  for (size_t repos : repo_counts) {
    exp::NetworkConfig network = base.network;
    network.repositories = repos;
    network.routers = repos * 6;  // paper: 700 -> 2100 total nodes

    // Substrate build (topology -> streamed routing -> compressed delay
    // model, traces, interests, cached change timelines), timed apart
    // from the run. RunS/Events/s cover the whole Session::Run — LeLA
    // overlay construction, validation and pair-delay stats included,
    // not just the event kernel — i.e. the end-to-end per-run rate a
    // sweep would see.
    const exp::SessionBuilder builder = base.Builder().SetNetwork(network);
    const auto build_start = std::chrono::steady_clock::now();
    Result<exp::SimulationSession> session = builder.Build();
    if (!session.ok()) {
      std::fprintf(stderr, "world build failed: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    const double build_seconds = SecondsSince(build_start);

    exp::RunSpec spec = base.Spec();
    spec.overlay.controlled_cooperation = true;
    spec.overlay.coop_degree = repos;  // offer everything; Eq. (2) decides
    if (with_churn) {
      // Scale the churn with the world: ~5% of the repositories bounce
      // once each, outages of 5-15% of the horizon.
      exp::ChurnOptions churn;
      churn.repositories = repos;
      churn.failures = std::max<size_t>(2, repos / 20);
      churn.horizon =
          session->world().traces().front().ticks().back().time;
      churn.max_outage_fraction = 0.15;
      churn.seed = base.seed;
      Result<core::Scenario> scenario = exp::MakeChurnScenario(churn);
      if (!scenario.ok()) {
        std::fprintf(stderr, "churn generation failed: %s\n",
                     scenario.status().ToString().c_str());
        return 1;
      }
      spec.scenario = std::move(scenario).value();
    }
    const auto run_start = std::chrono::steady_clock::now();
    Result<exp::ExperimentResult> run = session->Run(spec);
    const double run_seconds = SecondsSince(run_start);
    if (!run.ok()) {
      std::fprintf(stderr, "scalability run failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    const exp::ExperimentResult& result = *run;

    if (first_loss < 0.0) first_loss = result.metrics.loss_percent;
    last_loss = result.metrics.loss_percent;
    const double events_per_sec =
        run_seconds > 0.0
            ? static_cast<double>(result.metrics.events) / run_seconds
            : 0.0;
    std::vector<std::string> row = {
        TablePrinter::Int(repos), TablePrinter::Int(repos * 7 + 1),
        TablePrinter::Int(result.effective_degree),
        TablePrinter::Int(result.shape.diameter),
        TablePrinter::Num(result.metrics.loss_percent, 2),
        TablePrinter::Int(result.metrics.messages)};
    if (with_churn) {
      row.push_back(TablePrinter::Int(result.metrics.repairs));
      row.push_back(TablePrinter::Int(result.metrics.dropped_jobs));
    }
    row.push_back(TablePrinter::Num(build_seconds, 2));
    row.push_back(TablePrinter::Num(run_seconds, 2));
    row.push_back(TablePrinter::Num(events_per_sec, 0));
    row.push_back(TablePrinter::Num(PeakRssMib(), 1));
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "\nloss growth from smallest to largest system: %.2f%%\n(paper: "
      "under 5%% when growing 100 -> 300 repositories with controlled "
      "cooperation.)\npeak RSS: %.1f MiB (no n x n routing matrix is "
      "allocated on this path)\n",
      last_loss - first_loss, PeakRssMib());
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
