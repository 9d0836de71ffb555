// Differential fuzzing driver. Draws random (C, A, alpha, W) cases and
// random GCL program pairs, holds every one against the oracle stack
// (see src/fuzzing/oracles.hpp), and on a failure shrinks the case to a
// 1-minimal counterexample and writes a self-contained repro file.
//
//   cref_fuzz --iterations 500 --seed 1            # CI smoke
//   cref_fuzz --minutes 10                         # nightly soak
//   cref_fuzz --corpus tests/fuzzing/corpus        # replay seed corpus
//   cref_fuzz --replay fuzz-repros/case.repro      # replay one repro
//
// Exit code 0 iff every case passed every oracle.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzzing/fuzz_case.hpp"
#include "fuzzing/generators.hpp"
#include "fuzzing/oracles.hpp"
#include "fuzzing/shrink.hpp"
#include "util/cli.hpp"

namespace {

using namespace cref;
using namespace cref::fuzz;

struct Driver {
  OracleOptions opts;
  OracleStats stats;
  std::string repro_dir;
  std::size_t failures = 0;
  std::size_t max_failures = 5;

  // Runs the stack on one case; on failure, reports, shrinks, and
  // writes a repro. Returns true when all oracles passed.
  bool judge(const FuzzCase& fc, const std::string& origin) {
    const std::vector<OracleFailure> fails = run_oracles(fc, opts, &stats);
    if (fails.empty()) return true;
    ++failures;
    std::cout << "FAIL " << origin << " (strategy=" << fc.strategy
              << " seed=" << fc.seed << ")\n";
    for (const OracleFailure& f : fails)
      std::cout << "  [" << f.oracle << "] " << f.detail << "\n";

    const ShrinkResult sr = shrink_case(fc, opts);
    std::cout << "  shrunk to " << sr.minimized.c.num_states() << " C-states / "
              << sr.minimized.c.num_edges() << " C-edges ("
              << sr.accepted << " reductions out of " << sr.attempts
              << " attempts, oracle " << sr.oracle << ")\n";

    std::error_code ec;
    std::filesystem::create_directories(repro_dir, ec);
    std::ostringstream name;
    name << repro_dir << "/" << fc.strategy << "-" << fc.seed << ".repro";
    std::ofstream out(name.str());
    out << format_repro(sr.minimized);
    std::cout << "  repro written to " << name.str() << "\n";
    return false;
  }

  bool replay_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cref_fuzz: cannot open " << path << "\n";
      ++failures;
      return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    try {
      return judge(parse_repro(buf.str()), path);
    } catch (const std::exception& e) {
      std::cerr << "cref_fuzz: " << path << ": " << e.what() << "\n";
      ++failures;
      return false;
    }
  }
};

int usage() {
  std::cout <<
      "usage: cref_fuzz [options]\n"
      "  --iterations N     cases to draw (default 500; 0 = none)\n"
      "  --minutes M        keep drawing cases for M minutes (overrides a\n"
      "                     default --iterations; both given = whichever first)\n"
      "  --seed S           base seed (case i uses S + i; default 1)\n"
      "  --strategy NAME    restrict to one generator strategy (default: all,\n"
      "                     round-robin); one of identity subset shortcut noise\n"
      "                     quotient gcl\n"
      "  --max-states N     state-count cap for graph strategies (default 24)\n"
      "  --max-ref-states N brute-force reference cap (default 64)\n"
      "  --threads N        parallel-leg thread count (default 2)\n"
      "  --chunk N          parallel-leg chunk size (default 0 = auto)\n"
      "  --sim-walks N      random walks per case (default 4)\n"
      "  --corpus DIR       replay every *.repro under DIR first\n"
      "  --replay FILE      replay one repro file and exit\n"
      "  --repro-dir DIR    where shrunk repros go (default fuzz-repros)\n"
      "  --max-failures N   stop after N failing cases (default 5)\n"
      "  --inject BUG       self-test: perturb the engine's inputs\n"
      "                     (drop-last-c-edge | shift-c-init); the harness\n"
      "                     must then FAIL\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv, {"help"});
  if (cli.has("help")) return usage();

  Driver drv;
  drv.opts.parallel.num_threads = cli.get_size("threads", 2);
  drv.opts.parallel.chunk_size = cli.get_size("chunk", 0);
  drv.opts.max_reference_states =
      static_cast<StateId>(cli.get_size("max-ref-states", 64));
  drv.opts.sim_walks = cli.get_size("sim-walks", 4);
  drv.repro_dir = cli.get("repro-dir", "fuzz-repros");
  drv.max_failures = cli.get_size("max-failures", 5);

  const std::string inject = cli.get("inject", "none");
  if (inject == "drop-last-c-edge") {
    drv.opts.bug = InjectedBug::kDropLastCEdge;
  } else if (inject == "shift-c-init") {
    drv.opts.bug = InjectedBug::kShiftCInit;
  } else if (inject != "none") {
    std::cerr << "cref_fuzz: unknown --inject '" << inject << "'\n";
    return 2;
  }

  if (cli.has("replay")) {
    drv.replay_file(cli.get("replay"));
    return drv.failures ? 1 : 0;
  }

  const std::uint64_t base_seed = cli.get_size("seed", 1);
  const StateId max_states = static_cast<StateId>(cli.get_size("max-states", 24));
  const std::size_t minutes = cli.get_size("minutes", 0);
  const std::size_t iterations =
      cli.get_size("iterations", minutes > 0 ? std::size_t(-1) : 500);

  std::vector<std::string> strategies = strategy_names();
  if (cli.has("strategy")) {
    const std::string one = cli.get("strategy");
    if (std::find(strategies.begin(), strategies.end(), one) == strategies.end()) {
      std::cerr << "cref_fuzz: unknown --strategy '" << one << "'\n";
      return 2;
    }
    strategies = {one};
  }

  if (cli.has("corpus")) {
    const std::string dir = cli.get("corpus");
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec))
      if (entry.path().extension() == ".repro") files.push_back(entry.path().string());
    if (ec) {
      std::cerr << "cref_fuzz: cannot read corpus dir " << dir << "\n";
      return 2;
    }
    std::sort(files.begin(), files.end());
    for (const std::string& f : files) {
      if (drv.failures >= drv.max_failures) break;
      drv.replay_file(f);
    }
    std::cout << "corpus: " << files.size() << " repro(s) replayed from " << dir << "\n";
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(minutes);
  for (std::size_t i = 0; i < iterations && drv.failures < drv.max_failures; ++i) {
    if (minutes > 0 && std::chrono::steady_clock::now() >= deadline) break;
    const std::string& strategy = strategies[i % strategies.size()];
    const std::uint64_t seed = base_seed + i;
    try {
      drv.judge(draw_case(strategy, seed, max_states),
                "case #" + std::to_string(i));
    } catch (const std::exception& e) {
      ++drv.failures;
      std::cout << "FAIL case #" << i << " (strategy=" << strategy
                << " seed=" << seed << "): generator/oracle threw: " << e.what()
                << "\n";
    }
  }

  const OracleStats& st = drv.stats;
  std::cout << "cref_fuzz: " << st.cases << " case(s), " << drv.failures
            << " failure(s)  [base seed " << base_seed << "]\n"
            << "  reference:    " << st.reference_checked << " checked, "
            << st.reference_skipped << " skipped (too large)\n"
            << "  parallel:     " << st.parallel_compared << " compared\n"
            << "  certificates: " << st.certificates_validated << " validated, "
            << st.mutations_rejected << " mutations rejected\n"
            << "  simulation:   " << st.walks_checked << " walks\n"
            << "  gcl:          " << st.gcl_roundtrips << " roundtrips\n"
            << "  builds:       " << st.builds_compared << " parallel-vs-serial compared\n"
            << "  campaigns:    " << st.campaigns_compared << " sweeps compared\n"
            << "  absint:       " << st.absint_checked << " regions sound, "
            << st.closures_validated << " closure proofs confirmed\n"
            << "  prover:       " << st.prover_attempts << " goals tried, "
            << st.prover_proofs << " proved, " << st.prover_confirmed
            << " confirmed explicitly\n"
            << "  refine:       " << st.refine_attempts << " instances tried, "
            << st.refine_decided << " decided, " << st.refine_confirmed
            << " confirmed by the engine\n"
            << "  cache:        " << st.cache_jobs << " jobs cold, "
            << st.cache_hits_validated << " hits revalidated\n"
            << "  meta:         " << st.meta_implications << " implications\n";
  if (drv.failures)
    std::cout << "rerun a failing case with --strategy NAME --seed N "
                 "--iterations 1, or --replay the written repro\n";
  return drv.failures ? 1 : 0;
}
