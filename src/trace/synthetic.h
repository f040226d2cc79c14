#ifndef D3T_TRACE_SYNTHETIC_H_
#define D3T_TRACE_SYNTHETIC_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "trace/trace.h"

namespace d3t::trace {

/// Parameters of the synthetic stock-price walk. The walk is a bounded,
/// cent-quantized random walk with mild mean reversion toward the band
/// center: it starts at the band center, and with probability
/// `move_probability` a tick moves by one cent plus an exponentially
/// distributed number of extra cents; the move direction is biased
/// toward the band center so the price stays inside
/// [min_price, max_price] like the intraday traces of the paper's
/// Table 1. Ticks come about once a second, as the paper polled them.
struct SyntheticTraceOptions {
  std::string name = "TICK";
  size_t tick_count = 10000;       // paper: 10,000 polled values
  double min_price = 20.0;
  double max_price = 21.0;
  /// Probability that a tick's value differs from the previous tick.
  double move_probability = 0.35;
  /// Mean extra cents beyond the mandatory one-cent move.
  double mean_extra_cents = 1.5;
};

/// Generates one synthetic trace. Returns InvalidArgument for empty or
/// non-finite bands or zero ticks.
Result<Trace> GenerateSyntheticTrace(const SyntheticTraceOptions& options,
                                     Rng& rng);

/// Rounds a dollar value to whole cents (the tick quantum of the traces).
double RoundToCents(double value);

/// A named price band from the paper's Table 1.
struct TickerPreset {
  std::string name;
  double min_price;
  double max_price;
};

/// The six tickers listed in Table 1 of the paper with their observed
/// [min, max] bands (Jan/Feb 2002).
const std::vector<TickerPreset>& Table1Presets();

/// Builds a library of `count` traces: the Table 1 presets first, then
/// procedurally named tickers with random price levels (about $5-$100)
/// and intraday bands of roughly 1-4% of the price, matching the regime
/// of the paper's 100 collected traces.
std::vector<Trace> BuildTraceLibrary(size_t count, size_t ticks_per_trace,
                                     Rng& rng);

}  // namespace d3t::trace

#endif  // D3T_TRACE_SYNTHETIC_H_
