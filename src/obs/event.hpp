// DIM event tracing: a structured stream of configuration-lifecycle events.
//
// Every interesting transition of a configuration — capture started /
// aborted / too short / finalized, reconfiguration-cache insert / evict /
// flush, array activation, misspeculation, speculation-extension begun /
// completed — is emitted as one Event, stamped with the run clock (retired
// instructions, processor cycles, array cycles) at the moment of emission.
// The stamp is taken AFTER the event's own accounting, so an activation
// event's `array_cycles` already includes that activation.
//
// Tracing is observation-only by contract: attaching or detaching a sink
// never changes simulated state, cycle counts, or instruction counts. With
// no sink attached every emission site is a single pointer test
// (EventStream::emit returns immediately), so the default run pays
// near-zero overhead.
//
// See docs/observability.md for the schema and the aggregation table built
// on top of this stream (obs/profile.hpp).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace dim::obs {

enum class EventKind : uint8_t {
  kCaptureStarted,      // DIM opened a capture at config_pc
  kCaptureAborted,      // in-flight capture dropped (stream discontinuity)
  kCaptureTooShort,     // capture closed below min_instructions (ops = size)
  kConfigFinalized,     // capture saved to the rcache (ops, depth = num_bbs)
  kRcacheInsert,        // cache write of a configuration (ops = words)
  kRcacheEvict,         // replacement victim removed (ops = words lost)
  kRcacheFlush,         // speculation flush removed the entry
  kArrayActivation,     // the array executed config_pc (full cycle breakdown)
  kMisspeculation,      // a speculated branch resolved against its prediction
  kExtensionBegun,      // speculation extension of a cached config started
  kExtensionCompleted,  // the extended configuration was re-inserted
  kHammockMerged,       // if-conversion merged a hammock (branch_pc = branch)
  kResidencyHit,        // re-dispatch of the array-resident configuration
  kResidencyDropped,    // residency invalidated (SMC overlap / replacement)
  kElasticRejected,     // elastic deadlock check failed at config-build time
};

const char* event_kind_name(EventKind kind);

struct Event {
  EventKind kind = EventKind::kCaptureStarted;
  uint32_t config_pc = 0;  // start PC of the configuration concerned

  // Run clock at emission (stamped by EventStream).
  uint64_t instructions = 0;  // committed instructions (processor + array)
  uint64_t proc_cycles = 0;
  uint64_t array_cycles = 0;

  // Kind-specific payload (zero when not applicable).
  uint32_t branch_pc = 0;  // kMisspeculation: the offending branch
  int32_t depth = 0;       // basic blocks (committed / covered)
  int32_t ops = 0;         // instructions / configuration words involved

  // kArrayActivation: the activation's cycle breakdown. The five
  // components sum to the activation's contribution to array_cycles.
  uint64_t exec_cycles = 0;
  uint64_t reconfig_stall_cycles = 0;
  uint64_t dcache_stall_cycles = 0;
  uint64_t finalize_cycles = 0;
  uint64_t misspec_penalty_cycles = 0;
};

// Receives the stamped stream. Implementations need not be thread-safe:
// one system emits from one thread (SweepEngine attaches a private sink
// per grid point).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void emit(const Event& event) = 0;
};

// The emitting system's run clock, read at every emission for the stamp.
class RunClock {
 public:
  virtual ~RunClock() = default;
  virtual uint64_t retired_instructions() const = 0;
  virtual uint64_t clock_proc_cycles() const = 0;
  virtual uint64_t clock_array_cycles() const = 0;
};

// Stamps events with the run clock and forwards them to the sink. The
// null-sink fast path is a single branch, so emission sites can stay
// unconditional in the hot path.
class EventStream {
 public:
  void attach(EventSink* sink, const RunClock* clock) {
    sink_ = sink;
    clock_ = clock;
  }
  bool enabled() const { return sink_ != nullptr; }

  void emit(Event event) {
    if (sink_ == nullptr) return;
    if (clock_ != nullptr) {
      event.instructions = clock_->retired_instructions();
      event.proc_cycles = clock_->clock_proc_cycles();
      event.array_cycles = clock_->clock_array_cycles();
    }
    sink_->emit(event);
  }

 private:
  EventSink* sink_ = nullptr;
  const RunClock* clock_ = nullptr;
};

// Stores the raw stream (tools, tests, --events export).
class RecordingSink : public EventSink {
 public:
  void emit(const Event& event) override { events_.push_back(event); }
  const std::vector<Event>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

// One JSON object per line (JSON-lines), in emission order. Deterministic:
// depends only on the events vector.
void write_events_jsonl(std::ostream& out, const std::vector<Event>& events);

// Compact single-line rendering for humans, e.g.
//   "i=1204 pc=0x00400040 array_activation ops=12 depth=2"
// — used by the differential fuzzer's divergence reports and repro-file
// headers, where the recent event tail is the context for a failure.
std::string format_event(const Event& event);

}  // namespace dim::obs
