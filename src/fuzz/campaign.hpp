// Fuzz campaigns: N seeds x the configuration matrix, judged by one
// oracle.
//
// One driver serves both oracles: check_program (transparency, the
// default) and check_dispatch_program (fast vs slow dispatch,
// dimsim-fuzz --cmp-dispatch). A worker pool calls the oracle once per
// seed, each verdict landing in its seed's slot; failures are then handled
// serially in seed order — the oracle's report (first divergence with
// event context) and the delta-debugging shrinker, which minimizes against
// the diverging matrix point. Everything after the pool is a pure function
// of the ordered verdicts, so a campaign's outcome — including its JSON
// document — is byte-identical for any worker-thread count.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"

namespace dim::fuzz {

struct CampaignOptions {
  uint64_t seed_start = 0;
  int seeds = 100;
  unsigned threads = 0;             // 0 = hardware concurrency
  std::vector<MatrixPoint> matrix;  // empty = full_matrix()
  GenOptions gen;
  OracleOptions oracle;             // fault injection + run limits
  bool shrink = true;
  int max_shrinks = 1;              // failures minimized (in seed order)
  int max_reported_failures = 10;   // failures kept with full detail
};

struct CampaignFailure {
  uint64_t seed = 0;
  Divergence divergence;       // first divergence, with event context
  FuzzProgram program;         // as generated
  bool shrunk = false;
  FuzzProgram shrunk_program;  // == program when !shrunk
  ShrinkStats shrink_stats;
};

struct CampaignResult {
  uint64_t seed_start = 0;
  int seeds_run = 0;
  int divergent_seeds = 0;      // total count (not capped)
  int inconclusive_seeds = 0;   // assembly failure / both sides hit limit
  std::vector<CampaignFailure> failures;  // first max_reported_failures, by seed

  bool clean() const { return divergent_seeds == 0; }
};

// A per-seed oracle: check_program or check_dispatch_program.
using Oracle = OracleResult (*)(const std::string& source,
                                const std::vector<MatrixPoint>& matrix,
                                const OracleOptions& options);

// Runs the campaign with `oracle`. A dispatch failure at "machine" (the
// plain Machine comparison) shrinks against that comparison alone.
CampaignResult run_campaign(const CampaignOptions& options, Oracle oracle = check_program);

// One JSON document; deterministic for a fixed CampaignResult (and the
// result is thread-count-invariant, so so is the document).
void write_campaign_json(std::ostream& out, const CampaignResult& result);

// Self-contained reproducer: '#'-commented header (seed, matrix point,
// divergence, fault, recent events, replay line) followed by the shrunk
// program — the whole file assembles as-is and can be replayed with
// dimsim-fuzz --replay, plus --cmp-dispatch when `oracle` was the dispatch
// oracle.
void write_repro_file(std::ostream& out, const CampaignFailure& failure,
                      const OracleOptions& options, Oracle oracle = check_program);

const char* fault_injection_name(bt::FaultInjection fault);

}  // namespace dim::fuzz
