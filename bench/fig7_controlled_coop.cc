// Reproduces Figure 7: performance WITH controlled cooperation — the
// degree of cooperation chosen by Eq. (2) from the measured
// communication and computational delays.
//   (a) sweeping the offered degree: the U-curve becomes an L-curve;
//   (b) sweeping communication delays: loss stays low (y-axis 0-5% in
//       the paper);
//   (c) sweeping computational delays: same.

#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"

namespace d3t {
namespace {

std::vector<std::string> THeaders(const std::string& first,
                                  const std::vector<double>& t_values) {
  std::vector<std::string> headers = {first};
  for (double t : t_values) {
    headers.push_back("T=" +
                      TablePrinter::Int(static_cast<int64_t>(t * 100)));
  }
  return headers;
}

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(cli);
  cli = bench::ParseFlagsOrDie(argc, argv, std::move(cli));
  const bench::FlagConfig base = bench::ConfigFromFlags(cli);

  bench::PrintBanner("Figure 7", "performance with controlled cooperation",
                     base);

  const std::vector<double> t_values = {1.0, 0.9, 0.8, 0.7, 0.5, 0.2, 0.0};
  const std::vector<exp::SimulationSession> sessions =
      bench::SessionsPerT(base, t_values);
  exp::RunSpec controlled = base.Spec();
  controlled.overlay.controlled_cooperation = true;

  // (a) Offered degree sweep: past the Eq. (2) value the curve is flat.
  std::printf("--- 7(a): base case, sweeping the OFFERED degree ---\n");
  std::vector<size_t> degrees =
      cli.GetBool("full")
          ? std::vector<size_t>{1, 2, 3, 5, 8, 12, 20, 40, 70, 100}
          : std::vector<size_t>{1, 2, 4, 8, 16, base.network.repositories};
  TablePrinter table_a(THeaders("Offered", t_values));
  size_t effective = 0;
  for (size_t degree : degrees) {
    std::vector<std::string> row = {TablePrinter::Int(degree)};
    exp::RunSpec spec = controlled;
    spec.overlay.coop_degree = degree;
    for (const exp::SimulationSession& session : sessions) {
      exp::ExperimentResult result =
          bench::ValueOrDie(session.Run(spec), "fig7a run");
      effective = result.effective_degree;
      row.push_back(TablePrinter::Num(result.metrics.loss_percent, 2));
    }
    table_a.AddRow(std::move(row));
  }
  table_a.Print();
  std::printf(
      "(Eq. (2) degree for this network: %zu — loss stabilizes once the "
      "offered\ndegree reaches it: the paper's L-shaped curve.)\n\n",
      effective);

  // (b) Communication delay sweep under controlled cooperation.
  std::printf("--- 7(b): controlled cooperation, varying comm delays ---\n");
  TablePrinter table_b(THeaders("CommDelay(ms)", t_values));
  for (double comm : {0.0, 25.0, 50.0, 75.0, 100.0, 125.0}) {
    std::vector<std::string> row = {TablePrinter::Num(comm, 0)};
    exp::RunSpec spec = controlled;
    spec.overlay.coop_degree = base.network.repositories;  // offer everything
    spec.policy.comm_delay_mean_ms = comm == 0.0 ? -1.0 : comm;
    for (const exp::SimulationSession& session : sessions) {
      exp::ExperimentResult result =
          bench::ValueOrDie(session.Run(spec), "fig7b run");
      row.push_back(TablePrinter::Num(result.metrics.loss_percent, 2));
    }
    table_b.AddRow(std::move(row));
  }
  table_b.Print();
  std::printf("\n");

  // (c) Computational delay sweep under controlled cooperation.
  std::printf("--- 7(c): controlled cooperation, varying comp delays ---\n");
  TablePrinter table_c(THeaders("CompDelay(ms)", t_values));
  for (double comp : {0.0, 5.0, 10.0, 15.0, 20.0, 25.0}) {
    std::vector<std::string> row = {TablePrinter::Num(comp, 1)};
    exp::RunSpec spec = controlled;
    spec.overlay.coop_degree = base.network.repositories;
    spec.policy.comp_delay_ms = comp;
    for (const exp::SimulationSession& session : sessions) {
      exp::ExperimentResult result =
          bench::ValueOrDie(session.Run(spec), "fig7c run");
      row.push_back(TablePrinter::Num(result.metrics.loss_percent, 2));
    }
    table_c.AddRow(std::move(row));
  }
  table_c.Print();
  std::printf(
      "\n(paper: with the degree adapted by Eq. (2), loss stays within a "
      "few percent\nacross both delay sweeps — compare against Figures 5 "
      "and 6.)\n");
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
