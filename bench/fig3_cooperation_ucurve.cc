// Reproduces Figure 3 (and the §6.3.1 baseline study): loss of fidelity
// versus the degree of cooperation for T = 0..100% stringent tolerances.
// The expected shape is a U: a chain (degree 1) suffers communication
// delay, a star (degree = #repos) suffers computational queueing at the
// source, and the minimum falls between ~3 and ~20 dependents.

#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"

namespace d3t {
namespace {

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(cli);
  cli.AddFlag("policy", "distributed", "dissemination policy");
  cli = bench::ParseFlagsOrDie(argc, argv, std::move(cli));
  const bench::FlagConfig base = bench::ConfigFromFlags(cli);
  exp::RunSpec spec = base.Spec();
  spec.policy.policy = cli.GetString("policy");

  bench::PrintBanner("Figure 3", "loss of fidelity vs degree of cooperation",
                     base);

  const std::vector<double> t_values = {1.0, 0.9, 0.8, 0.7, 0.5, 0.2, 0.0};
  std::vector<size_t> degrees;
  if (cli.GetBool("full")) {
    degrees = {1, 2, 3, 5, 8, 12, 20, 40, 70, 100};
  } else {
    degrees = {1, 2, 4, 8, 16, base.network.repositories};
  }

  std::vector<std::string> headers = {"Degree"};
  for (double t : t_values) {
    headers.push_back("T=" + TablePrinter::Int(
                                 static_cast<int64_t>(t * 100)));
  }
  TablePrinter table(headers);

  // One world per T (the workload depends on T); topology and traces
  // share the same seed so only the tolerances vary.
  const std::vector<exp::SimulationSession> sessions =
      bench::SessionsPerT(base, t_values);

  for (size_t degree : degrees) {
    std::vector<std::string> row = {TablePrinter::Int(degree)};
    spec.overlay.coop_degree = degree;
    for (const exp::SimulationSession& session : sessions) {
      exp::ExperimentResult result =
          bench::ValueOrDie(session.Run(spec), "fig3 run");
      row.push_back(TablePrinter::Num(result.metrics.loss_percent, 2));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nrows: loss of fidelity (%%). Expected shape: U in each column for "
      "large T\n(paper: minimum between 3 and 20 dependents; flat near 0 "
      "for T=0).\n");

  // Report the paper's §6.3.1 structural observations for the extremes.
  exp::RunSpec chain = spec;
  chain.overlay.coop_degree = 1;
  exp::ExperimentResult chain_result =
      bench::ValueOrDie(sessions[0].Run(chain), "chain");
  exp::RunSpec star = spec;
  star.overlay.coop_degree = base.network.repositories;
  exp::ExperimentResult star_result =
      bench::ValueOrDie(sessions[0].Run(star), "star");
  std::printf(
      "\nshape at T=100: chain diameter %u (avg depth %.1f), star diameter "
      "%u (avg depth %.1f)\n(paper: diameter 101 for the chain, 2 for "
      "direct dissemination)\n",
      chain_result.shape.diameter, chain_result.shape.avg_depth,
      star_result.shape.diameter, star_result.shape.avg_depth);
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
