// Reproduces Figure 8: the importance of filtering during update
// propagation. The paper emulates "disseminate every update" with a
// T=100% workload and compares against a T=0% workload whose loose
// tolerances filter most updates, across the degree-of-cooperation
// sweep.

#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"

namespace d3t {
namespace {

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(cli);
  cli = bench::ParseFlagsOrDie(argc, argv, std::move(cli));
  const bench::FlagConfig base = bench::ConfigFromFlags(cli);

  bench::PrintBanner("Figure 8", "importance of filtering updates", base);

  // T=100%: everything violates => flood; T=0%: loose tolerances.
  const std::vector<exp::SimulationSession> sessions =
      bench::SessionsPerT(base, {1.0, 0.0});
  const exp::SimulationSession& flood_session = sessions[0];
  const exp::SimulationSession& filtered_session = sessions[1];

  std::vector<size_t> degrees =
      cli.GetBool("full")
          ? std::vector<size_t>{1, 2, 3, 5, 8, 12, 20, 40, 70, 100}
          : std::vector<size_t>{1, 2, 4, 8, 16, base.network.repositories};

  TablePrinter table({"Degree", "AllUpdates: loss%", "AllUpdates: msgs",
                      "Filtered: loss%", "Filtered: msgs"});
  for (size_t degree : degrees) {
    exp::RunSpec flood = base.Spec();
    flood.overlay.coop_degree = degree;
    flood.policy.policy = "all-updates";
    exp::ExperimentResult flood_result =
        bench::ValueOrDie(flood_session.Run(flood), "flood run");

    exp::RunSpec filtered = base.Spec();
    filtered.overlay.coop_degree = degree;
    filtered.policy.policy = "distributed";
    exp::ExperimentResult filtered_result =
        bench::ValueOrDie(filtered_session.Run(filtered), "filtered run");

    table.AddRow({TablePrinter::Int(degree),
                  TablePrinter::Num(flood_result.metrics.loss_percent, 2),
                  TablePrinter::Int(flood_result.metrics.messages),
                  TablePrinter::Num(filtered_result.metrics.loss_percent, 2),
                  TablePrinter::Int(filtered_result.metrics.messages)});
  }
  table.Print();
  std::printf(
      "\n(paper: the all-updates system loses fidelity across the whole "
      "degree range\nwhile the filtered system stays flat near zero — "
      "intelligent filtering reduces\nboth network overhead and repository "
      "load.)\n");
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
