// Reproduces Figure 9: sensitivity of LeLA to the P% closeness window
// (candidate parents within P% of the best preference factor become
// parents). Curves P=1,5,10,25 sweep the degree; curves P=1W..25W repeat
// the sweep with controlled cooperation, where the paper finds the
// choice of P% no longer matters.

#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"

namespace d3t {
namespace {

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(cli);
  cli = bench::ParseFlagsOrDie(argc, argv, std::move(cli));
  bench::FlagConfig base = bench::ConfigFromFlags(cli);
  base.workload.stringent_fraction = 0.5;

  bench::PrintBanner("Figure 9", "effect of the P% parent window", base);

  const exp::SimulationSession session = bench::SessionOrDie(base.Builder());

  const std::vector<double> p_values = {0.01, 0.05, 0.10, 0.25};
  std::vector<size_t> degrees =
      cli.GetBool("full")
          ? std::vector<size_t>{1, 2, 3, 5, 8, 12, 20, 40, 70, 100}
          : std::vector<size_t>{1, 2, 4, 8, 16, base.network.repositories};

  std::vector<std::string> headers = {"Degree"};
  for (double p : p_values) {
    headers.push_back("P=" +
                      TablePrinter::Int(static_cast<int64_t>(p * 100)));
  }
  for (double p : p_values) {
    headers.push_back(
        "P=" + TablePrinter::Int(static_cast<int64_t>(p * 100)) + "W");
  }
  TablePrinter table(headers);

  for (size_t degree : degrees) {
    std::vector<std::string> row = {TablePrinter::Int(degree)};
    for (bool controlled : {false, true}) {
      for (double p : p_values) {
        exp::RunSpec spec = base.Spec();
        spec.overlay.coop_degree = degree;
        spec.overlay.p_window = p;
        spec.overlay.controlled_cooperation = controlled;
        exp::ExperimentResult result =
            bench::ValueOrDie(session.Run(spec), "fig9 run");
        row.push_back(TablePrinter::Num(result.metrics.loss_percent, 2));
      }
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\n(paper: without controlled cooperation P=1%% loses fidelity "
      "(too few parents\nshare the load) and very large P wastes push "
      "connections; with controlled\ncooperation — the W columns — the "
      "choice of P%% has little impact.)\n");
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
