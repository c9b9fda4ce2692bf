// Shared pieces of the dimbench harness: clocks, layer spans, the run
// report (metrics, checks, digest, layer table) and workload preparation.
//
// Every layer is timed from outside: a Span wraps one call into a module's
// public functions and is charged to that module (work, asm, sim, accel,
// serve) or to `idle` for time the open-loop client spends waiting. Spans
// nest; a layer's self time excludes the spans opened inside it, so the
// self times of a run plus its unattributed remainder add up to its wall
// time exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "accel/stats.hpp"
#include "accel/system.hpp"
#include "asm/program.hpp"
#include "work/workload.hpp"

namespace pb {

namespace accel = dim::accel;
namespace asmblr = dim::asmblr;
namespace work = dim::work;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) { return seconds_between(a, Clock::now()); }

// Exclusive (self) time per layer. Single-threaded: only the harness's own
// thread opens spans.
class Tracer {
 public:
  void enter(const char* layer);
  void leave();
  const std::map<std::string, double>& self_seconds() const { return self_; }

 private:
  struct Frame {
    const char* layer;
    Clock::time_point start;
    double child = 0;
  };
  std::vector<Frame> stack_;
  std::map<std::string, double> self_;
};

// RAII span; a null tracer makes it free apart from the pointer test.
class Span {
 public:
  Span(Tracer* tracer, const char* layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->enter(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->leave();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

// FNV-1a 64 over every simulated statistic a workload produced.
class Digest {
 public:
  void add(const std::string& bytes);
  std::string hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;            // self-test size
  bool inject_failure = false;  // self-test: corrupt one expected output
  std::string scratch_dir;      // writable directory inside the checkout
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // One operation (cell, pass or request) and its verdict. A failure is
  // tallied under `error` by name.
  void op(bool ok, const std::string& error);

  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> errors;
  Digest digest;
  std::map<std::string, std::string> notes;  // free-form context lines
  // Traced runs: layer self times and the wall they reconcile against.
  std::map<std::string, double> layers;
  double traced_wall_s = 0;
};

// One MiBench-equivalent kernel, generated, assembled and (optionally) run
// on the standalone core for its reference statistics.
struct Kernel {
  work::Workload workload;
  int scale = 1;
  asmblr::Program program;
  accel::AccelStats baseline;
};

// Generates and assembles every kernel at `scale` (work, asm spans) and
// runs the baselines (sim span) when asked. Checks each baseline's output
// against the kernel's expected output.
std::vector<Kernel> prepare_kernels(int scale, bool baselines, const Options& opt,
                                    Tracer* tracer, Report& report);

// Kernel names in the paper's Table 2 order (tiny runs keep a prefix).
std::vector<std::string> kernel_names(const Options& opt);

double median(std::vector<double> v);
// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);

// Peak resident set of this process plus its largest reaped child, MiB.
double peak_rss_mb();

// Array configuration used by the long-run passes and the spot passes.
accel::SystemConfig rowsync_config();
accel::SystemConfig elastic_config();

// Simulated instructions and the host seconds they took.
struct PathRate {
  uint64_t instructions = 0;
  double seconds = 0;
  double minstr_s() const { return seconds > 0 ? instructions / seconds / 1e6 : 0; }
};

// Fastest time of each unit of work (a kernel on one path, a grid point).
// Units are timed several times, spread over the run; on a shared host,
// interference from other tenants only ever adds time, so the fastest
// repeat is the steadiest estimate of what the code costs.
class Fastest {
 public:
  void add(const std::string& unit, uint64_t instructions, double seconds);
  PathRate total() const;  // summed over units
  const std::map<std::string, PathRate>& per_unit() const { return best_; }
  std::vector<double> milliseconds() const;

 private:
  std::map<std::string, PathRate> best_;
};

// Emits accel.<kernel>.<suffix> for every registry kernel (0 for a kernel
// the run did not measure, e.g. in a tiny self-test run).
void emit_per_kernel(Report& report, const std::string& suffix,
                     const std::map<std::string, PathRate>& rates);

// Spot measurements of the three execution paths on a workload's kernels,
// for the paths its main work does not exercise. Each slice runs the next
// kernel (round robin) on one path; callers spread slices over the whole
// run and the rates use each kernel's fastest slice. Baseline and row-sync
// slices run the kernel to completion and are checked; elastic slices stop
// at a fixed instruction budget.
class SpotSampler {
 public:
  SpotSampler(const std::vector<Kernel>& kernels, uint64_t elastic_budget, Tracer* tracer,
              Report& report)
      : kernels_(kernels), elastic_budget_(elastic_budget), tracer_(tracer), report_(report) {}

  void baseline_slice();
  void rowsync_slice();
  void elastic_slice();

  Fastest baseline, rowsync, elastic;  // keyed by kernel

 private:
  const Kernel& next(size_t& cursor) { return kernels_[cursor++ % kernels_.size()]; }

  const std::vector<Kernel>& kernels_;
  uint64_t elastic_budget_;
  Tracer* tracer_;
  Report& report_;
  size_t base_cursor_ = 0, rowsync_cursor_ = 0, elastic_cursor_ = 0;
};

// Paper Table 2 value for a (kernel, shape index 0..2, spec, slots) cell, or
// a negative number when the cell is not in the table. Shape index 3 is the
// ideal-resources column (slots ignored).
double paper_speedup(const std::string& kernel, int shape_index, bool spec, size_t slots);

// Per-layer metrics replayed on a workload's own cells (layers.cpp).
struct LayerCell {
  const Kernel* kernel = nullptr;
  accel::SystemConfig config;
};
void measure_layers(const std::vector<LayerCell>& cells,
                    const std::vector<std::string>& request_lines, const Options& opt,
                    Report& report);

// The three workloads.
void run_table2_grid(const Options& opt, Report& report);
void run_long_runs(const Options& opt, Report& report);
void run_serve_open(const Options& opt, Report& report);

// Emits `<layer>.self_s` for every layer the workload spans plus
// `unattributed_s`, and keeps the table for the reconciliation check.
void emit_layer_table(const Tracer& tracer, double wall_s, Report& report);

}  // namespace pb
