// Reproduces Table 1 of the paper: characteristics of the stock-price
// traces driving every experiment. The paper polled finance.yahoo.com;
// we synthesize traces calibrated to the same bands.

#include "bench/bench_util.h"
#include "common/table.h"
#include "trace/synthetic.h"

namespace d3t {
namespace {

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(cli);
  cli = bench::ParseFlagsOrDie(argc, argv, std::move(cli));
  const bench::FlagConfig config = bench::ConfigFromFlags(cli);
  const size_t ticks = cli.GetBool("full") ? 10000 : config.workload.ticks;
  const size_t count = cli.GetBool("full") ? 100 : 20;

  bench::PrintBanner("Table 1", "characteristics of the traces", config);

  Rng rng = Rng(config.seed).Fork(2);  // same stream SessionBuilder uses
  std::vector<trace::Trace> traces =
      trace::BuildTraceLibrary(count, ticks, rng);

  TablePrinter table({"Ticker", "Ticks", "Min", "Max", "Chg%", "Mean|d|",
                      "Interval(s)"});
  for (size_t i = 0; i < traces.size(); ++i) {
    if (i >= 6 && i < traces.size() - 2) continue;  // presets + a sample
    trace::TraceStats stats = traces[i].ComputeStats();
    table.AddRow({traces[i].name(), TablePrinter::Int(stats.tick_count),
                  TablePrinter::Num(stats.min_value),
                  TablePrinter::Num(stats.max_value),
                  TablePrinter::Num(100.0 * stats.change_fraction, 1),
                  TablePrinter::Num(stats.mean_abs_change, 3),
                  TablePrinter::Num(stats.mean_interval_us / 1e6, 2)});
  }
  table.Print();

  // Library-wide summary (the paper collected 100 traces).
  StreamingStats mins, maxs, changes;
  for (const trace::Trace& trace : traces) {
    trace::TraceStats stats = trace.ComputeStats();
    mins.Add(stats.min_value);
    maxs.Add(stats.max_value);
    changes.Add(stats.change_fraction);
  }
  std::printf(
      "\nlibrary: %zu traces, price range [$%.2f, $%.2f], "
      "mean change fraction %.2f, ~1 tick/second\n",
      traces.size(), mins.min(), maxs.max(), changes.mean());
  std::printf(
      "(paper: 100 traces, e.g. MSFT 60.09-60.85, SUNW 10.60-10.99, "
      "10000 values each, ~1/second)\n");
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
