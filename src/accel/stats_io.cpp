#include "accel/stats_io.hpp"

#include <cmath>
#include <cstdio>
#include <iomanip>

namespace dim::accel {
namespace {

void field(std::ostream& out, const std::string& indent, const char* key,
           uint64_t value, bool comma = true) {
  out << indent << '"' << key << "\": " << value << (comma ? ",\n" : "\n");
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void write_json_double(std::ostream& out, double value, int precision) {
  if (!std::isfinite(value)) {
    out << "null";
    return;
  }
  out << std::setprecision(precision) << value;
}

void write_json_fields(std::ostream& out, const AccelStats& stats,
                       const std::string& indent) {
  field(out, indent, "instructions", stats.instructions);
  field(out, indent, "proc_instructions", stats.proc_instructions);
  field(out, indent, "array_instructions", stats.array_instructions);
  field(out, indent, "cycles", stats.cycles);
  field(out, indent, "proc_cycles", stats.proc_cycles);
  field(out, indent, "array_cycles", stats.array_cycles);
  field(out, indent, "array_exec_cycles", stats.array_exec_cycles);
  field(out, indent, "reconfig_stall_cycles", stats.reconfig_stall_cycles);
  field(out, indent, "array_dcache_stall_cycles", stats.array_dcache_stall_cycles);
  field(out, indent, "array_finalize_cycles", stats.array_finalize_cycles);
  field(out, indent, "misspec_penalty_cycles", stats.misspec_penalty_cycles);
  field(out, indent, "array_activations", stats.array_activations);
  field(out, indent, "misspeculations", stats.misspeculations);
  field(out, indent, "config_flushes", stats.config_flushes);
  field(out, indent, "extensions", stats.extensions);
  field(out, indent, "rcache_hits", stats.rcache_hits);
  field(out, indent, "rcache_misses", stats.rcache_misses);
  field(out, indent, "rcache_insertions", stats.rcache_insertions);
  field(out, indent, "rcache_evictions", stats.rcache_evictions);
  field(out, indent, "hammocks_merged", stats.hammocks_merged);
  field(out, indent, "residency_hits", stats.residency_hits);
  field(out, indent, "residency_drops", stats.residency_drops);
  field(out, indent, "fifo_stall_cycles", stats.fifo_stall_cycles);
  field(out, indent, "elastic_deadlock_fallbacks", stats.elastic_deadlock_fallbacks);
  field(out, indent, "array_alu_ops", stats.array_alu_ops);
  field(out, indent, "array_mul_ops", stats.array_mul_ops);
  field(out, indent, "array_mem_ops", stats.array_mem_ops);
  field(out, indent, "proc_mem_accesses", stats.proc_mem_accesses);
  field(out, indent, "config_words_loaded", stats.config_words_loaded);
  field(out, indent, "config_words_written", stats.config_words_written);
  field(out, indent, "hit_limit", stats.hit_limit ? 1 : 0);
  out << indent << "\"ipc\": ";
  write_json_double(out, stats.ipc());
  out << ",\n" << indent << "\"array_coverage\": ";
  write_json_double(out, stats.array_coverage());
  out << "\n";
}

void write_json(std::ostream& out, const AccelStats& stats, const std::string& label) {
  out << "{\n";
  if (!label.empty()) out << "  \"label\": \"" << json_escape(label) << "\",\n";
  write_json_fields(out, stats, "  ");
  out << "}\n";
}

void write_report(std::ostream& out, const AccelStats& stats) {
  out << "instructions: " << stats.instructions << " (" << stats.proc_instructions
      << " on processor, " << stats.array_instructions << " on array, "
      << std::setprecision(3) << 100.0 * stats.array_coverage() << "% coverage)\n";
  out << "cycles:       " << stats.cycles << " (" << stats.proc_cycles << " processor + "
      << stats.array_cycles << " array)\n";
  out << "array cycles: " << stats.array_exec_cycles << " exec + "
      << stats.reconfig_stall_cycles << " reconfig stalls + "
      << stats.array_dcache_stall_cycles << " dcache stalls + "
      << stats.array_finalize_cycles << " finalize + "
      << stats.misspec_penalty_cycles << " misspec penalties\n";
  out << "array:        " << stats.array_activations << " activations, "
      << stats.misspeculations << " misspeculations, " << stats.config_flushes
      << " flushes, " << stats.extensions << " extensions\n";
  if (stats.hammocks_merged > 0 || stats.residency_hits > 0 || stats.residency_drops > 0) {
    out << "control flow: " << stats.hammocks_merged << " hammocks merged, "
        << stats.residency_hits << " residency hits, " << stats.residency_drops
        << " residency drops\n";
  }
  if (stats.fifo_stall_cycles > 0 || stats.elastic_deadlock_fallbacks > 0) {
    out << "exec mode:    " << stats.fifo_stall_cycles << " fifo stalls, "
        << stats.elastic_deadlock_fallbacks << " deadlock fallbacks\n";
  }
  out << "rcache:       " << stats.rcache_insertions << " insertions, "
      << stats.rcache_evictions << " evictions, " << stats.rcache_hits << " hits\n";
  out << "ipc:          " << std::setprecision(4) << stats.ipc() << "\n";
}

}  // namespace dim::accel
