// Request/response schema of the serving protocol (docs/serving.md).
//
// One JSON object per line in, exactly one JSON object per line out, in
// per-session admission order. Every request carries an `id` (string or
// non-negative integer) that its response echoes; responses are `{"id":
// ..., "ok": true, ...}` or `{"id": ..., "ok": false, "error": "<code>",
// "detail": "..."}`. Response bodies for simulation requests reuse the
// accel::write_json_fields schema, newline-folded onto one line, so a
// serve client sees exactly the stats a sweep artifact would contain.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "accel/stats.hpp"
#include "accel/sweep.hpp"

namespace dim::serve {

enum class RequestKind {
  kPing,      // liveness probe
  kRun,       // one accelerated run (optionally budgeted)
  kSweep,     // a grid of points, batched into the shared SweepEngine
  kFuzz,      // a differential fuzz campaign
  kStats,     // server counters (admission, batches, store)
  kCancel,    // best-effort cancellation of a queued or budgeted request
  kShutdown,  // stop accepting, drain, exit
};

// Error codes of `"ok": false` responses (stable API, see docs/serving.md).
inline constexpr const char* kErrParse = "parse_error";
inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrUnknownWorkload = "unknown_workload";
inline constexpr const char* kErrZeroBudget = "zero_budget";
inline constexpr const char* kErrOverloaded = "overloaded";
inline constexpr const char* kErrDeadlineExpired = "deadline_expired";
inline constexpr const char* kErrCanceled = "canceled";
inline constexpr const char* kErrShuttingDown = "shutting_down";
inline constexpr const char* kErrInternal = "internal";

// Admission bound on one request line. Inline-source programs fit with
// room to spare; anything larger is hostile (or a framing bug) and is
// answered `parse_error` before the JSON parser ever touches it.
inline constexpr size_t kMaxRequestBytes = 256 * 1024;

// Protocol bound on the `priority` field.
inline constexpr int kMaxPriority = 9;

// The client-chosen request id, echoed verbatim into the response.
struct RequestId {
  bool is_string = false;
  std::string text;  // string value, or the integer's decimal digits
};

// One axis point of a run/sweep: named array shape + rcache slots +
// speculation, over a registry workload (name + scale) or inline source.
struct Request {
  RequestKind kind = RequestKind::kPing;
  RequestId id;

  // run / sweep program selection.
  std::string workload;  // registry name; empty when `source` is inline asm
  int scale = 1;
  std::string source;

  // run configuration.
  std::string shape = "config1";  // config1|config2|config3|ideal
  uint64_t slots = 64;
  bool speculation = true;
  bool want_baseline = true;
  uint64_t budget = 0;  // 0 = no per-request budget (machine default cap)

  // scheduling (run/sweep/fuzz). `priority` in [0, kMaxPriority], higher
  // pops first; `deadline_ms` is a relative admission deadline — if the
  // request is still queued when a dispatcher picks it up past the
  // deadline it is answered `deadline_expired` (0 = already expired,
  // useful for pinning that path deterministically).
  int priority = 0;
  bool has_deadline = false;
  uint64_t deadline_ms = 0;

  // sweep axes (cross product; empty axis = the run default above).
  std::vector<std::string> shapes;
  std::vector<uint64_t> slots_axis;
  std::vector<bool> spec_axis;

  // fuzz.
  int seeds = 10;
  uint64_t seed_start = 0;
  std::string matrix = "quick";  // quick|full

  // cancel.
  RequestId target;
};

struct ParseOutcome {
  bool ok = false;
  Request request;
  std::string error;   // error code when !ok
  std::string detail;  // human-readable cause
  // Best-effort id recovered from the malformed request so the error
  // response can still be correlated; empty text = no id found.
  RequestId id;
};

// Parses and validates one request line. Never throws: malformed JSON,
// unknown kinds, missing ids and out-of-range fields all come back as
// `ok == false` with the error code the response must carry. Enforces the
// protocol-level invariants the executor relies on: a present `budget`
// must be positive (a zero budget would simulate nothing and divide
// speedups by zero cycles) and sweep axes must be non-empty lists.
ParseOutcome parse_request(const std::string& line);

// --- response writers (each emits exactly one '\n'-terminated line) ------

void write_ok_prefix(std::ostream& out, const RequestId& id);  // no closing '}'
void write_error_response(std::ostream& out, const RequestId& id,
                          const std::string& error, const std::string& detail);
void write_pong_response(std::ostream& out, const RequestId& id);

// `stats` folded to a single line via the write_json_fields schema.
void write_stats_object(std::ostream& out, const accel::AccelStats& stats);

struct RunResponse {
  accel::AccelStats accelerated;
  bool has_baseline = false;
  accel::AccelStats baseline;
  bool transparent = true;
  bool halted = false;
  bool hit_budget = false;  // stopped by the per-request budget
  uint64_t budget = 0;
};
void write_run_response(std::ostream& out, const RequestId& id, const RunResponse& r);

// Per-request store-hit attribution is deliberately absent from run/sweep
// responses: whether a cell was resident depends on what other requests
// happened to share the batch, and response bytes must not vary with batch
// composition. Store temperature is observable via `stats` instead.
void write_sweep_response(std::ostream& out, const RequestId& id,
                          const std::vector<accel::SweepResult>& results);

struct FuzzResponse {
  int seeds_run = 0;
  int divergent = 0;
  int inconclusive = 0;
};
void write_fuzz_response(std::ostream& out, const RequestId& id, const FuzzResponse& r);

}  // namespace dim::serve
