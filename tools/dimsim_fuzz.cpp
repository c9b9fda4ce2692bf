// dimsim-fuzz: differential fuzzing of the accelerated system.
//
// Generates seeded structured programs (src/fuzz/generator.hpp), runs each
// on the plain pipeline and on MIPS+DIM+array across a configuration
// matrix, judges every point with accel::compare_runs (termination,
// output, registers, PC, HI/LO, memory image, retired-instruction count;
// a point where neither side halted is inconclusive), and delta-debugs
// any failing program down to a near-minimal reproducer. Campaigns fan
// seeds out over a worker pool; results — including --json output — are
// byte-identical for any --threads value.
//
// --cmp-dispatch switches the oracle, for campaigns and --replay alike:
// instead of accel-vs-baseline transparency, every seed is run with the
// superblock trace dispatch on and off (sim/trace_cache.hpp) and the two
// runs must be bit-identical — state, memory, cycles, stats, event
// streams — on the plain Machine and at every matrix point. SMC-patching
// programs (--smc) are only legal there. This mode is the merge gate for
// trace-engine changes.
//
// Usage:
//   dimsim-fuzz [--seeds N] [--seed-start K] [--threads N]
//               [--matrix full|quick] [--no-shrink] [--repro FILE]
//               [--replay FILE] [--inject-fault none|addiu-imm|subu-swap]
//               [--max-instructions N] [--json] [--self-test]
//               [--cmp-dispatch] [--code-stores] [--smc]
//               [--hammocks] [--nested-hammocks]
//               [--long-chains] [--lane-div]
//
// Exit codes: 0 = no divergence, 1 = divergence found (or self-test
// failed), 2 = usage error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "fuzz/campaign.hpp"

namespace {

constexpr const char* kUsage =
    "usage: dimsim-fuzz [--seeds N] [--seed-start K] [--threads N]\n"
    "                   [--matrix full|quick] [--no-shrink] [--repro FILE]\n"
    "                   [--replay FILE] [--inject-fault none|addiu-imm|subu-swap]\n"
    "                   [--max-instructions N] [--json] [--self-test]\n"
    "                   [--cmp-dispatch] [--code-stores] [--smc]\n"
    "                   [--hammocks] [--nested-hammocks]\n"
    "                   [--long-chains] [--lane-div]\n";

using dim::bt::FaultInjection;

bool parse_fault(const std::string& name, FaultInjection* out) {
  if (name == "none") *out = FaultInjection::kNone;
  else if (name == "addiu-imm") *out = FaultInjection::kAddiuImmOffByOne;
  else if (name == "subu-swap") *out = FaultInjection::kSubuSwapOperands;
  else return false;
  return true;
}

void print_failure(const dim::fuzz::CampaignFailure& f) {
  std::fprintf(stderr, "seed %llu diverged at %s: %s — %s\n",
               static_cast<unsigned long long>(f.seed),
               f.divergence.point_label.c_str(),
               dim::fuzz::divergence_field_name(f.divergence.field),
               f.divergence.detail.c_str());
  if (f.shrunk) {
    std::fprintf(stderr, "  shrunk %d -> %d instructions (%d candidates tried)\n",
                 f.program.instruction_count(), f.shrunk_program.instruction_count(),
                 f.shrink_stats.candidates_tried);
  }
  for (const dim::obs::Event& e : f.divergence.recent_events) {
    std::fprintf(stderr, "  event: %s\n", dim::obs::format_event(e).c_str());
  }
}

// Replays a reproducer (or any .s file) through the campaign's oracle.
int replay(const std::string& path, const std::vector<dim::fuzz::MatrixPoint>& matrix,
           const dim::fuzz::OracleOptions& options, dim::fuzz::Oracle oracle) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::stringstream source;
  source << in.rdbuf();
  const dim::fuzz::OracleResult r = oracle(source.str(), matrix, options);
  if (r.inconclusive) {
    std::fprintf(stderr, "inconclusive: %s\n", r.inconclusive_reason.c_str());
    return 2;
  }
  if (!r.divergence.found) {
    std::fprintf(stderr, "%s: no divergence at any matrix point\n", path.c_str());
    return 0;
  }
  std::fprintf(stderr, "%s diverged at %s: %s — %s\n", path.c_str(),
               r.divergence.point_label.c_str(),
               dim::fuzz::divergence_field_name(r.divergence.field),
               r.divergence.detail.c_str());
  for (const dim::obs::Event& e : r.divergence.recent_events) {
    std::fprintf(stderr, "  event: %s\n", dim::obs::format_event(e).c_str());
  }
  return 1;
}

// The acceptance gate, self-contained: the planted translator bug must be
// found and shrunk to <= 12 instructions within a small seed budget, and a
// clean campaign over the same seeds must report zero divergences.
int self_test(unsigned threads) {
  dim::fuzz::CampaignOptions options;
  options.seeds = 40;
  options.threads = threads;
  options.matrix = dim::fuzz::quick_matrix();
  options.oracle.fault = FaultInjection::kAddiuImmOffByOne;

  std::fprintf(stderr, "[1/3] planted-bug campaign (fault=addiu-imm, %d seeds)...\n",
               options.seeds);
  const dim::fuzz::CampaignResult buggy = dim::fuzz::run_campaign(options);
  if (buggy.divergent_seeds == 0 || buggy.failures.empty()) {
    std::fprintf(stderr, "FAIL: planted translator bug was not detected\n");
    return 1;
  }
  const dim::fuzz::CampaignFailure& f = buggy.failures.front();
  print_failure(f);
  if (!f.shrunk || f.shrunk_program.instruction_count() > 12) {
    std::fprintf(stderr, "FAIL: reproducer has %d instructions (want <= 12)\n",
                 f.shrunk_program.instruction_count());
    return 1;
  }

  std::fprintf(stderr, "[2/3] shrunk reproducer still triggers the bug...\n");
  const dim::fuzz::OracleResult again = dim::fuzz::check_program(
      f.shrunk_program.render(), dim::fuzz::quick_matrix(), options.oracle);
  if (!again.divergence.found) {
    std::fprintf(stderr, "FAIL: shrunk reproducer no longer diverges\n");
    return 1;
  }

  std::fprintf(stderr, "[3/3] clean campaign over the same seeds...\n");
  options.oracle.fault = FaultInjection::kNone;
  const dim::fuzz::CampaignResult clean = dim::fuzz::run_campaign(options);
  if (!clean.clean()) {
    std::fprintf(stderr, "FAIL: clean campaign reported %d divergent seeds\n",
                 clean.divergent_seeds);
    return 1;
  }
  std::fprintf(stderr,
               "self-test OK: bug found (seed %llu), shrunk to %d instructions, "
               "clean run transparent\n",
               static_cast<unsigned long long>(f.seed),
               f.shrunk_program.instruction_count());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  dim::fuzz::CampaignOptions options;
  options.seeds = 100;
  std::string repro_path;
  std::string replay_path;
  std::string matrix_name = "full";
  bool json = false;
  bool run_self_test = false;
  bool cmp_dispatch = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seeds" && i + 1 < argc) {
      options.seeds = std::atoi(argv[++i]);
    } else if (arg == "--seed-start" && i + 1 < argc) {
      options.seed_start = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--threads" && i + 1 < argc) {
      options.threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (arg == "--matrix" && i + 1 < argc) {
      matrix_name = argv[++i];
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--repro" && i + 1 < argc) {
      repro_path = argv[++i];
    } else if (arg == "--replay" && i + 1 < argc) {
      replay_path = argv[++i];
    } else if (arg == "--inject-fault" && i + 1 < argc) {
      if (!parse_fault(argv[++i], &options.oracle.fault)) {
        std::fprintf(stderr, "%s", kUsage);
        return 2;
      }
    } else if (arg == "--max-instructions" && i + 1 < argc) {
      options.oracle.max_instructions = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--self-test") {
      run_self_test = true;
    } else if (arg == "--cmp-dispatch") {
      cmp_dispatch = true;
    } else if (arg == "--code-stores") {
      options.gen.code_page_stores = true;
    } else if (arg == "--smc") {
      options.gen.smc_patch_stores = true;
    } else if (arg == "--hammocks") {
      options.gen.hammocks = true;
    } else if (arg == "--nested-hammocks") {
      options.gen.nested_hammocks = true;
    } else if (arg == "--long-chains") {
      options.gen.long_chains = true;
    } else if (arg == "--lane-div") {
      options.gen.lane_divergence = true;
    } else {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    }
  }

  if (run_self_test) return self_test(options.threads);

  if (matrix_name == "full") {
    options.matrix = dim::fuzz::full_matrix();
  } else if (matrix_name == "quick") {
    options.matrix = dim::fuzz::quick_matrix();
  } else {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  const dim::fuzz::Oracle oracle =
      cmp_dispatch ? dim::fuzz::check_dispatch_program : dim::fuzz::check_program;
  if (!replay_path.empty()) {
    return replay(replay_path, options.matrix, options.oracle, oracle);
  }
  if (options.seeds <= 0) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  if (options.gen.smc_patch_stores && !cmp_dispatch) {
    // Real SMC is not transparent through a stale rcache configuration —
    // it is only a valid differential against the other dispatch mode.
    std::fprintf(stderr, "--smc requires --cmp-dispatch\n");
    return 2;
  }

  const dim::fuzz::CampaignResult result = dim::fuzz::run_campaign(options, oracle);

  if (json) {
    dim::fuzz::write_campaign_json(std::cout, result);
  } else {
    std::fprintf(stderr,
                 "%d seeds x %zu matrix points: %d divergent, %d inconclusive\n",
                 result.seeds_run, options.matrix.size(), result.divergent_seeds,
                 result.inconclusive_seeds);
  }
  for (const dim::fuzz::CampaignFailure& f : result.failures) print_failure(f);

  if (!result.failures.empty() && !repro_path.empty()) {
    std::ofstream out(repro_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", repro_path.c_str());
      return 2;
    }
    dim::fuzz::write_repro_file(out, result.failures.front(), options.oracle, oracle);
    std::fprintf(stderr, "reproducer written to %s\n", repro_path.c_str());
  }
  return result.clean() ? 0 : 1;
}
