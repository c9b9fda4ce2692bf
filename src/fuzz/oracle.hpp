// Differential transparency oracle.
//
// The paper's contract: a run with DIM + the reconfigurable array must be
// architecturally indistinguishable from the plain Minimips pipeline. The
// oracle enforces that for one program across a matrix of system
// configurations (array shape x rcache size/policy x speculation depth):
// for each point it diffs program output, every general register, HI/LO,
// the full memory image (byte-precise, via mem::Memory::first_difference),
// retired-instruction count, and termination, and reports the first
// divergence together with the tail of the configuration-lifecycle event
// stream (obs/) as debugging context.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/system.hpp"
#include "obs/event.hpp"

namespace dim::fuzz {

// One configuration-matrix point. The label names the point in reports
// ("shape2/lru64/spec3") and is stable across runs.
struct MatrixPoint {
  std::string label;
  accel::SystemConfig config;
};

// The full default matrix: 3 array shapes x {FIFO-4, LRU-64} rcache x
// {spec off, depth 1, depth 3} (18 base points), each again with
// predication + residency ("…/pred" latches closed loops, "…/pred-any"
// any configuration; alternating) and under the elastic personality
// ("…/elastic", FIFO capacity 1 or 4; alternating). 54 points.
std::vector<MatrixPoint> full_matrix();
// An 8-point subset for smoke tests and per-candidate shrink checks
// (4 base points, 2 "/pred", 1 "/pred-any", 1 "/elastic").
std::vector<MatrixPoint> quick_matrix();

enum class DivergenceField : uint8_t {
  kNone = 0,
  kTermination,   // one side halted, the other hit the instruction limit
  kOutput,        // syscall output bytes differ
  kRegister,      // a general register differs (detail names the first)
  kHiLo,
  kMemory,        // memory images differ (detail has the first address)
  kRetiredCount,  // committed instruction counts differ
  // Dispatch-comparison fields (check_dispatch_program): the fast path
  // must match the slow path beyond architecture — cycle accounting,
  // every stats counter, and the stamped event stream.
  kCycles,
  kStats,
  kEvents,
};

const char* divergence_field_name(DivergenceField field);

struct Divergence {
  bool found = false;
  std::string point_label;       // matrix point that diverged first
  DivergenceField field = DivergenceField::kNone;
  std::string detail;            // human-readable: what differed, both values
  std::vector<obs::Event> recent_events;  // tail of the accelerated run's stream
};

struct OracleOptions {
  uint64_t max_instructions = 4'000'000;  // per run; both sides share it
  size_t event_context = 12;              // events kept in the report
  bt::FaultInjection fault = bt::FaultInjection::kNone;
};

struct OracleResult {
  // True when no verdict is possible: the source failed to assemble or
  // both sides hit the instruction limit (equal-cutoff states are not
  // comparable). Inconclusive candidates count as "no divergence".
  bool inconclusive = false;
  std::string inconclusive_reason;
  Divergence divergence;  // divergence.found == false: transparent everywhere
};

// Runs `source` on the baseline machine once and on the accelerated system
// at every matrix point, stopping at the first diverging point.
OracleResult check_program(const std::string& source,
                           const std::vector<MatrixPoint>& matrix,
                           const OracleOptions& options = {});

// Differential gate for the superblock trace dispatch (sim/trace_cache.hpp):
// runs `source` with host_trace_dispatch on and off and requires the two
// runs to be BIT-IDENTICAL — first on the plain Machine (registers, HI/LO,
// output, memory bytes, retired count, cycles, memory-access count), then
// on the accelerated system at every matrix point (final state, memory,
// the full stats JSON, and the stamped obs event stream). Unlike
// check_program, hitting the instruction limit is not inconclusive: both
// sides must stop at the same instruction in the same state, so limited
// runs are compared like any other. The divergence's point_label is
// "machine" for the baseline comparison, the matrix label otherwise.
OracleResult check_dispatch_program(const std::string& source,
                                    const std::vector<MatrixPoint>& matrix,
                                    const OracleOptions& options = {});

}  // namespace dim::fuzz
