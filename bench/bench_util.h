#ifndef D3T_BENCH_BENCH_UTIL_H_
#define D3T_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.h"
#include "exp/session.h"

namespace d3t::bench {

/// Every figure bench supports two scales:
///  * CI scale (default): reduced repositories/items/ticks so the whole
///    bench suite completes in minutes on a laptop;
///  * --full: the paper's §6.1 base case (1 source + 100 repositories +
///    600 routers, 100 items, 10,000 ticks). Expect long runtimes.
inline void AddCommonFlags(CommandLine& cli) {
  cli.AddFlag("full", "false", "run at the paper's full scale");
  cli.AddFlag("seed", "42", "master RNG seed");
  cli.AddFlag("repositories", "0", "override repository count (0 = auto)");
  cli.AddFlag("items", "0", "override item count (0 = auto)");
  cli.AddFlag("ticks", "0", "override ticks per trace (0 = auto)");
  cli.AddFlag("help", "false", "print usage");
}

/// The world the common flags describe. `seed` builds the world and
/// also seeds every run against it (see Spec()).
struct FlagConfig {
  exp::NetworkConfig network;
  exp::WorkloadConfig workload;
  uint64_t seed = 42;

  /// A builder for this world; callers may override setters first.
  exp::SessionBuilder Builder() const {
    exp::SessionBuilder builder;
    builder.SetNetwork(network).SetWorkload(workload).SetSeed(seed);
    return builder;
  }
  /// A run with default overlay and policy knobs, seeded like the world.
  exp::RunSpec Spec() const {
    exp::RunSpec spec;
    spec.seed = seed;
    return spec;
  }
};

/// Builds the base world config from the parsed flags.
inline FlagConfig ConfigFromFlags(const CommandLine& cli) {
  FlagConfig config;
  exp::NetworkConfig& network = config.network;
  exp::WorkloadConfig& workload = config.workload;
  if (cli.GetBool("full")) {
    network.repositories = 100;
    network.routers = 600;
    workload.items = 100;
    workload.ticks = 10000;
  } else {
    network.repositories = 40;
    network.routers = 160;
    workload.items = 20;
    workload.ticks = 1200;
  }
  if (cli.GetInt("repositories") > 0) {
    network.repositories = static_cast<size_t>(cli.GetInt("repositories"));
    network.routers = network.repositories * 4;
  }
  if (cli.GetInt("items") > 0) {
    workload.items = static_cast<size_t>(cli.GetInt("items"));
  }
  if (cli.GetInt("ticks") > 0) {
    workload.ticks = static_cast<size_t>(cli.GetInt("ticks"));
  }
  config.seed = static_cast<uint64_t>(cli.GetInt("seed"));
  return config;
}

/// Parses flags; on --help or a parse error prints usage and exits.
inline CommandLine ParseFlagsOrDie(int argc, char** argv,
                                   CommandLine cli) {
  Status status = cli.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 cli.Help(argv[0]).c_str());
    std::exit(2);
  }
  if (cli.GetBool("help")) {
    std::fprintf(stdout, "%s", cli.Help(argv[0]).c_str());
    std::exit(0);
  }
  return cli;
}

/// Prints the standard bench banner tying the binary to its paper
/// artifact.
inline void PrintBanner(const std::string& artifact,
                        const std::string& what, const FlagConfig& config) {
  std::printf("== %s — %s ==\n", artifact.c_str(), what.c_str());
  std::printf(
      "config: %zu repositories, %zu routers, %zu items, %zu ticks, "
      "seed %llu\n\n",
      config.network.repositories, config.network.routers,
      config.workload.items, config.workload.ticks,
      static_cast<unsigned long long>(config.seed));
}

/// Builds the world `builder` describes, or dies with a message.
inline exp::SimulationSession SessionOrDie(const exp::SessionBuilder& builder) {
  Result<exp::SimulationSession> session = builder.Build();
  if (!session.ok()) {
    std::fprintf(stderr, "world build failed: %s\n",
                 session.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(session).value();
}

/// One world per stringent fraction in `t_values` (the paper's T): the
/// flags' world with only the tolerance mix changed.
inline std::vector<exp::SimulationSession> SessionsPerT(
    const FlagConfig& config, const std::vector<double>& t_values) {
  std::vector<exp::SimulationSession> sessions;
  for (double t : t_values) {
    exp::WorkloadConfig workload = config.workload;
    workload.stringent_fraction = t;
    sessions.push_back(SessionOrDie(config.Builder().SetWorkload(workload)));
  }
  return sessions;
}

/// Dies with a message if an experiment failed.
inline exp::ExperimentResult ValueOrDie(Result<exp::ExperimentResult> r,
                                        const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

}  // namespace d3t::bench

#endif  // D3T_BENCH_BENCH_UTIL_H_
