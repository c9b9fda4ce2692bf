#include "obs/event.hpp"

#include <cstdio>

namespace dim::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kCaptureStarted: return "capture_started";
    case EventKind::kCaptureAborted: return "capture_aborted";
    case EventKind::kCaptureTooShort: return "capture_too_short";
    case EventKind::kConfigFinalized: return "config_finalized";
    case EventKind::kRcacheInsert: return "rcache_insert";
    case EventKind::kRcacheEvict: return "rcache_evict";
    case EventKind::kRcacheFlush: return "rcache_flush";
    case EventKind::kArrayActivation: return "array_activation";
    case EventKind::kMisspeculation: return "misspeculation";
    case EventKind::kExtensionBegun: return "extension_begun";
    case EventKind::kExtensionCompleted: return "extension_completed";
    case EventKind::kHammockMerged: return "hammock_merged";
    case EventKind::kResidencyHit: return "residency_hit";
    case EventKind::kResidencyDropped: return "residency_dropped";
    case EventKind::kElasticRejected: return "elastic_rejected";
  }
  return "unknown";
}

void write_events_jsonl(std::ostream& out, const std::vector<Event>& events) {
  for (const Event& e : events) {
    out << "{\"event\": \"" << event_kind_name(e.kind) << "\", \"config_pc\": "
        << e.config_pc << ", \"instructions\": " << e.instructions
        << ", \"proc_cycles\": " << e.proc_cycles << ", \"array_cycles\": "
        << e.array_cycles;
    if (e.kind == EventKind::kMisspeculation || e.kind == EventKind::kHammockMerged) {
      out << ", \"branch_pc\": " << e.branch_pc;
    }
    if (e.depth != 0) out << ", \"depth\": " << e.depth;
    if (e.ops != 0) out << ", \"ops\": " << e.ops;
    if (e.kind == EventKind::kArrayActivation) {
      out << ", \"exec_cycles\": " << e.exec_cycles
          << ", \"reconfig_stall_cycles\": " << e.reconfig_stall_cycles
          << ", \"dcache_stall_cycles\": " << e.dcache_stall_cycles
          << ", \"finalize_cycles\": " << e.finalize_cycles
          << ", \"misspec_penalty_cycles\": " << e.misspec_penalty_cycles;
    }
    out << "}\n";
  }
}

std::string format_event(const Event& e) {
  char pc[16];
  std::snprintf(pc, sizeof(pc), "0x%08x", e.config_pc);
  std::string out = "i=" + std::to_string(e.instructions) + " pc=" + pc + " " +
                    event_kind_name(e.kind);
  if (e.ops != 0) out += " ops=" + std::to_string(e.ops);
  if (e.depth != 0) out += " depth=" + std::to_string(e.depth);
  if (e.kind == EventKind::kMisspeculation || e.kind == EventKind::kHammockMerged) {
    std::snprintf(pc, sizeof(pc), "0x%08x", e.branch_pc);
    out += std::string(" branch=") + pc;
  }
  return out;
}

}  // namespace dim::obs
