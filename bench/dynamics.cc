// Dynamics workload: the same World run statically and under a
// generated churn scenario (repository failures + recoveries spread
// over the run), for each exact dissemination policy and each repair
// policy. Reports the fidelity cost of churn, the repair volume, and
// the dissemination overhead the failures induce — the workload class
// the paper's resilience discussion (§4) describes but its figures
// never measure.
//
//   $ ./build/bench/dynamics                  # CI scale
//   $ ./build/bench/dynamics --full           # paper base case
//   $ ./build/bench/dynamics --failures 12    # heavier churn

#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "exp/scenario.h"
#include "exp/session.h"

namespace d3t {
namespace {

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(cli);
  cli.AddFlag("failures", "6", "fail/recover episodes to script");
  cli.AddFlag("repair-delay-ms", "500",
              "silence-detection window before orphans re-attach");
  cli = bench::ParseFlagsOrDie(argc, argv, std::move(cli));
  const bench::FlagConfig base = bench::ConfigFromFlags(cli);

  bench::PrintBanner("Dynamics", "failure churn vs the static baseline",
                     base);

  const exp::SimulationSession session = bench::SessionOrDie(base.Builder());

  exp::ChurnOptions churn;
  churn.repositories = base.network.repositories;
  churn.failures = static_cast<size_t>(cli.GetInt("failures"));
  churn.horizon = session.world().traces().front().ticks().back().time;
  churn.seed = base.seed;
  Result<core::Scenario> scenario = exp::MakeChurnScenario(churn);
  if (!scenario.ok()) {
    std::fprintf(stderr, "churn generation failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  std::printf("churn: %zu scripted ops over a %.0f s horizon\n\n",
              scenario->size(),
              static_cast<double>(churn.horizon) / 1e6);

  TablePrinter table({"Policy", "Repair", "Loss%", "dLoss%", "Repairs",
                      "Dropped", "OrphTicks", "OutageLoss%", "Msgs"});
  for (const char* policy : {"distributed", "centralized"}) {
    exp::RunSpec spec = base.Spec();
    spec.policy.policy = policy;
    Result<exp::ExperimentResult> baseline = session.Run(spec);
    if (!baseline.ok()) {
      std::fprintf(stderr, "baseline failed: %s\n",
                   baseline.status().ToString().c_str());
      return 1;
    }
    table.AddRow({policy, "(static)",
                  TablePrinter::Num(baseline->metrics.loss_percent, 3),
                  "-", "0", "0", "0", "-",
                  TablePrinter::Int(baseline->metrics.messages)});
    for (const char* repair : {"fallback", "lela", "on-recovery"}) {
      exp::RunSpec churned = spec;
      churned.scenario = *scenario;
      churned.policy.repair_policy = repair;
      churned.policy.repair_delay_ms = cli.GetDouble("repair-delay-ms");
      Result<exp::ExperimentResult> run = session.Run(churned);
      if (!run.ok()) {
        std::fprintf(stderr, "churned run failed: %s\n",
                     run.status().ToString().c_str());
        return 1;
      }
      const core::EngineMetrics& m = run->metrics;
      table.AddRow(
          {policy, repair, TablePrinter::Num(m.loss_percent, 3),
           TablePrinter::Num(
               m.loss_percent - baseline->metrics.loss_percent, 3),
           TablePrinter::Int(m.repairs), TablePrinter::Int(m.dropped_jobs),
           TablePrinter::Int(m.orphaned_ticks),
           TablePrinter::Num(m.outage_loss_percent, 3),
           TablePrinter::Int(m.messages)});
    }
  }
  table.Print();
  std::printf(
      "\ndLoss%% is the fidelity cost of the churn; Repairs counts orphan\n"
      "re-attachments plus recovered members' re-joins. on-recovery skips\n"
      "mid-outage repair, so its orphans integrate staleness the longest.\n");
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
