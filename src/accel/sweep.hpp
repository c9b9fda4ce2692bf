// Thread-pooled batch runner for design-space sweeps.
//
// The paper's results (Table 2, Fig. 5/6 and every ablation) are grids of
// (workload x array-shape x cache-size x speculation) points; each point is
// an independent AcceleratedSystem run. SweepEngine executes a grid across
// worker threads — one private system instance per point, no shared mutable
// state — and returns the results ordered by point index, so the aggregated
// output (including its JSON serialization) is byte-identical regardless of
// thread count or completion order. See docs/sweep-engine.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/stats.hpp"
#include "accel/system.hpp"
#include "asm/program.hpp"
#include "obs/profile.hpp"

namespace dim::accel {

// One grid point: a program plus the system configuration to run it under.
struct SweepPoint {
  std::string label;  // carried into the result and its JSON record
  // Not owned; must outlive SweepEngine::run. Programs are read-only during
  // the sweep (each system copies the image into its private memory).
  const asmblr::Program* program = nullptr;
  SystemConfig config;
  // Baseline for the speedup column: either a precomputed AccelStats (not
  // owned; e.g. shared across every point of one workload) or, when null
  // with run_baseline set, a plain-MIPS run executed inside the worker.
  const AccelStats* baseline = nullptr;
  bool run_baseline = false;
};

struct SweepResult {
  size_t index = 0;  // == position of the originating point in the grid
  std::string label;
  AccelStats accelerated;
  AccelStats baseline;
  bool has_baseline = false;
  // compare_runs(baseline, accelerated).transparent(): false only when
  // the verdict is divergent. Only meaningful with a baseline.
  bool transparent = true;
  // Per-configuration event summary of the accelerated run (only with
  // SweepOptions::collect_profiles; folded by a worker-private sink, so
  // it is identical for any thread count).
  obs::ProfileTable profile;
  bool has_profile = false;

  double speedup() const {
    return (!has_baseline || accelerated.cycles == 0)
               ? 0.0
               : static_cast<double>(baseline.cycles) /
                     static_cast<double>(accelerated.cycles);
  }
};

// Memoization hook for sweep cells. A store that recognizes a point (by
// whatever identity it derives from the point — snap::ResultStore keys on
// program hash + system fingerprint + a code version) fills the result
// without the worker simulating anything; freshly computed results are
// offered back. Implementations must be safe to call from multiple worker
// threads concurrently. A loaded result must be exactly what run would
// have produced — the engine does not re-verify.
class ResultCache {
 public:
  virtual ~ResultCache() = default;
  // True on hit: `out` is filled completely except `index` and `label`,
  // which the engine re-stamps from the live point (presentation fields,
  // not part of the cell identity).
  virtual bool load(const SweepPoint& point, bool collect_profiles,
                    SweepResult& out) = 0;
  virtual void store(const SweepPoint& point, bool collect_profiles,
                     const SweepResult& result) = 0;
};

struct SweepOptions {
  unsigned threads = 0;  // 0 = std::thread::hardware_concurrency()
  // Collect a per-point obs::ProfileTable (configuration-lifecycle event
  // summary) for every accelerated run. Each worker attaches its own
  // ProfilingSink — any event_sink set on a point's SystemConfig is
  // overridden while collecting, so no sink is ever shared across threads.
  bool collect_profiles = false;
  // Optional persistent cell memoization (not owned; must outlive run()).
  // Results are byte-identical with the cache enabled, disabled, or shared
  // across runs and thread counts — it only skips redundant simulation.
  ResultCache* result_cache = nullptr;
  // Cooperative cancellation (not owned; must outlive run()). Observed
  // between points: once set, no new point is started and run() throws
  // SweepCanceled after every in-flight point finished. Cancellation is
  // best-effort by design — a point already executing runs to completion.
  const std::atomic<bool>* cancel = nullptr;
};

// Thrown by SweepEngine::run when SweepOptions::cancel was observed set
// before the grid completed. Partial results are discarded.
class SweepCanceled : public std::runtime_error {
 public:
  SweepCanceled() : std::runtime_error("sweep canceled") {}
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions options = {});

  // Runs every point to completion. results[i] always corresponds to
  // points[i]; worker scheduling never shows through. Exceptions thrown by
  // a worker (e.g. a buggy workload asserting) are rethrown here after all
  // threads joined; when several points throw, the exception from the
  // LOWEST point index is the one rethrown, so the error a caller sees is
  // independent of worker scheduling. Throws SweepCanceled when
  // SweepOptions::cancel fired first (a real point error always wins over
  // cancellation).
  std::vector<SweepResult> run(const std::vector<SweepPoint>& points) const;

  unsigned threads() const { return threads_; }
  bool collect_profiles() const { return options_.collect_profiles; }

 private:
  SweepOptions options_;
  unsigned threads_;
};

// Serializes a sweep as one JSON document:
//   {"points": [ {"label": ..., "speedup": ..., "transparent": ...,
//                 "accelerated": {<stats_io schema>},
//                 "baseline": {<stats_io schema>}?}, ... ]}
// Per-point stats use accel::write_json_fields, so the record schema is
// identical to the single-run write_json output. Deterministic: depends
// only on the results vector.
void write_sweep_json(std::ostream& out, const std::vector<SweepResult>& results);

// Merges every per-point profile into one table. Profiles are summed, so
// the aggregate (and its obs::write_profile_json serialization) is
// byte-identical for any worker count.
obs::ProfileTable aggregate_profiles(const std::vector<SweepResult>& results);

}  // namespace dim::accel
