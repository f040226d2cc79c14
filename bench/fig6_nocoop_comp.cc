// Reproduces Figure 6: performance WITHOUT cooperation while the
// computational delay per dependent is swept from 0 to 25 ms. The
// paper's finding: loss of fidelity grows sharply with computational
// delay when the source serves everyone directly, especially for
// stringent coherency mixes.

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

  bench::PrintBanner("Figure 6",
                     "no cooperation, varying computational delays", base);

  const std::vector<double> t_values = {1.0, 0.9, 0.8, 0.7, 0.5, 0.2, 0.0};
  const std::vector<double> comp_ms = {0.0, 5.0, 10.0, 15.0, 20.0, 25.0};

  std::vector<std::string> headers = {"CompDelay(ms)"};
  for (double t : t_values) {
    headers.push_back("T=" +
                      TablePrinter::Int(static_cast<int64_t>(t * 100)));
  }
  TablePrinter table(headers);

  const std::vector<exp::SimulationSession> sessions =
      bench::SessionsPerT(base, t_values);
  exp::RunSpec spec = base.Spec();
  spec.overlay.coop_degree = base.network.repositories;  // no cooperation
  for (double comp : comp_ms) {
    std::vector<std::string> row = {TablePrinter::Num(comp, 1)};
    spec.policy.comp_delay_ms = comp;
    for (const exp::SimulationSession& session : sessions) {
      exp::ExperimentResult result =
          bench::ValueOrDie(session.Run(spec), "fig6 run");
      row.push_back(TablePrinter::Num(result.metrics.loss_percent, 2));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nrows: loss of fidelity (%%) with degree = #repositories.\n"
      "(paper: loss worsens steeply with computational delay when "
      "tolerances are stringent.)\n");
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
