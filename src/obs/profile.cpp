#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <iomanip>

#include "accel/stats_io.hpp"

namespace dim::obs {

void ProfileTable::add(const Event& event) {
  ConfigProfile& p = profiles_[event.config_pc];
  p.start_pc = event.config_pc;
  switch (event.kind) {
    case EventKind::kCaptureStarted:
      ++p.captures_started;
      break;
    case EventKind::kCaptureAborted:
      ++p.captures_aborted;
      break;
    case EventKind::kCaptureTooShort:
      ++p.captures_too_short;
      break;
    case EventKind::kConfigFinalized:
      ++p.finalizations;
      break;
    case EventKind::kRcacheInsert:
      ++p.insertions;
      break;
    case EventKind::kRcacheEvict:
      ++p.evictions;
      break;
    case EventKind::kRcacheFlush:
      ++p.flushes;
      break;
    case EventKind::kArrayActivation:
      ++p.activations;
      p.committed_ops += static_cast<uint64_t>(event.ops);
      p.exec_cycles += event.exec_cycles;
      p.reconfig_stall_cycles += event.reconfig_stall_cycles;
      p.dcache_stall_cycles += event.dcache_stall_cycles;
      p.finalize_cycles += event.finalize_cycles;
      p.misspec_penalty_cycles += event.misspec_penalty_cycles;
      break;
    case EventKind::kMisspeculation:
      ++p.misspeculations;
      break;
    case EventKind::kExtensionBegun:
      ++p.extensions_begun;
      break;
    case EventKind::kExtensionCompleted:
      ++p.extensions_completed;
      break;
    case EventKind::kHammockMerged:
      ++p.hammocks_merged;
      break;
    case EventKind::kResidencyHit:
      ++p.residency_hits;
      break;
    case EventKind::kResidencyDropped:
      ++p.residency_drops;
      break;
    case EventKind::kElasticRejected:
      // Execution-mode events aggregate at run level (AccelStats), not per
      // configuration: the profile record keeps its fixed serialized shape.
      break;
  }
}

void ProfileTable::merge(const ProfileTable& other) {
  for (const auto& [pc, o] : other.profiles_) add_profile(o);
}

void ProfileTable::add_profile(const ConfigProfile& o) {
  ConfigProfile& p = profiles_[o.start_pc];
  p.start_pc = o.start_pc;
  p.activations += o.activations;
  p.committed_ops += o.committed_ops;
  p.misspeculations += o.misspeculations;
  p.exec_cycles += o.exec_cycles;
  p.reconfig_stall_cycles += o.reconfig_stall_cycles;
  p.dcache_stall_cycles += o.dcache_stall_cycles;
  p.finalize_cycles += o.finalize_cycles;
  p.misspec_penalty_cycles += o.misspec_penalty_cycles;
  p.captures_started += o.captures_started;
  p.captures_aborted += o.captures_aborted;
  p.captures_too_short += o.captures_too_short;
  p.finalizations += o.finalizations;
  p.insertions += o.insertions;
  p.evictions += o.evictions;
  p.flushes += o.flushes;
  p.extensions_begun += o.extensions_begun;
  p.extensions_completed += o.extensions_completed;
  p.hammocks_merged += o.hammocks_merged;
  p.residency_hits += o.residency_hits;
  p.residency_drops += o.residency_drops;
}

const ConfigProfile* ProfileTable::find(uint32_t start_pc) const {
  auto it = profiles_.find(start_pc);
  return it == profiles_.end() ? nullptr : &it->second;
}

std::vector<ConfigProfile> ProfileTable::by_start_pc() const {
  std::vector<ConfigProfile> out;
  out.reserve(profiles_.size());
  for (const auto& [pc, p] : profiles_) out.push_back(p);
  return out;
}

std::vector<ConfigProfile> ProfileTable::by_cycles() const {
  std::vector<ConfigProfile> out = by_start_pc();
  std::stable_sort(out.begin(), out.end(),
                   [](const ConfigProfile& a, const ConfigProfile& b) {
                     if (a.array_cycles() != b.array_cycles()) {
                       return a.array_cycles() > b.array_cycles();
                     }
                     return a.start_pc < b.start_pc;
                   });
  return out;
}

uint64_t ProfileTable::total_array_cycles() const {
  uint64_t total = 0;
  for (const auto& [pc, p] : profiles_) total += p.array_cycles();
  return total;
}

uint64_t ProfileTable::total_activations() const {
  uint64_t total = 0;
  for (const auto& [pc, p] : profiles_) total += p.activations;
  return total;
}

void write_profile_json(std::ostream& out, const ProfileTable& table) {
  const std::vector<ConfigProfile> configs = table.by_start_pc();
  out << "{\n  \"configs\": [";
  for (size_t i = 0; i < configs.size(); ++i) {
    const ConfigProfile& p = configs[i];
    out << (i == 0 ? "\n" : ",\n") << "    {";
    out << "\"start_pc\": " << p.start_pc;
    out << ", \"activations\": " << p.activations;
    out << ", \"committed_ops\": " << p.committed_ops;
    out << ", \"misspeculations\": " << p.misspeculations;
    out << ", \"misspec_rate\": ";
    accel::write_json_double(out, p.misspec_rate());
    out << ", \"array_cycles\": " << p.array_cycles();
    out << ", \"exec_cycles\": " << p.exec_cycles;
    out << ", \"reconfig_stall_cycles\": " << p.reconfig_stall_cycles;
    out << ", \"dcache_stall_cycles\": " << p.dcache_stall_cycles;
    out << ", \"finalize_cycles\": " << p.finalize_cycles;
    out << ", \"misspec_penalty_cycles\": " << p.misspec_penalty_cycles;
    out << ", \"captures_started\": " << p.captures_started;
    out << ", \"captures_aborted\": " << p.captures_aborted;
    out << ", \"captures_too_short\": " << p.captures_too_short;
    out << ", \"finalizations\": " << p.finalizations;
    out << ", \"insertions\": " << p.insertions;
    out << ", \"evictions\": " << p.evictions;
    out << ", \"flushes\": " << p.flushes;
    out << ", \"extensions_begun\": " << p.extensions_begun;
    out << ", \"extensions_completed\": " << p.extensions_completed;
    out << ", \"hammocks_merged\": " << p.hammocks_merged;
    out << ", \"residency_hits\": " << p.residency_hits;
    out << ", \"residency_drops\": " << p.residency_drops;
    out << "}";
  }
  out << "\n  ],\n";
  out << "  \"total_array_cycles\": " << table.total_array_cycles() << ",\n";
  out << "  \"total_activations\": " << table.total_activations() << "\n}\n";
}

void write_profile_table(std::ostream& out, const ProfileTable& table,
                         size_t top_n) {
  std::vector<ConfigProfile> configs = table.by_cycles();
  const size_t shown = (top_n == 0 || top_n > configs.size()) ? configs.size() : top_n;

  char line[256];
  std::snprintf(line, sizeof(line), "%-10s %9s %10s %10s %8s %8s %8s %8s %8s %6s %5s\n",
                "config", "activs", "ops", "cycles", "exec", "reconf", "dcache",
                "final", "misspec", "mrate", "churn");
  out << line;
  for (size_t i = 0; i < shown; ++i) {
    const ConfigProfile& p = configs[i];
    std::snprintf(line, sizeof(line),
                  "0x%08x %9llu %10llu %10llu %8llu %8llu %8llu %8llu %8llu %6.3f %5llu\n",
                  p.start_pc, static_cast<unsigned long long>(p.activations),
                  static_cast<unsigned long long>(p.committed_ops),
                  static_cast<unsigned long long>(p.array_cycles()),
                  static_cast<unsigned long long>(p.exec_cycles),
                  static_cast<unsigned long long>(p.reconfig_stall_cycles),
                  static_cast<unsigned long long>(p.dcache_stall_cycles),
                  static_cast<unsigned long long>(p.finalize_cycles),
                  static_cast<unsigned long long>(p.misspec_penalty_cycles),
                  p.misspec_rate(),
                  static_cast<unsigned long long>(p.evictions + p.flushes));
    out << line;
  }
  if (shown < configs.size()) {
    out << "... " << (configs.size() - shown) << " more configurations\n";
  }
  std::snprintf(line, sizeof(line),
                "total: %llu configurations, %llu activations, %llu array cycles\n",
                static_cast<unsigned long long>(configs.size()),
                static_cast<unsigned long long>(table.total_activations()),
                static_cast<unsigned long long>(table.total_array_cycles()));
  out << line;
}

}  // namespace dim::obs
