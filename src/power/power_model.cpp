#include "power/power_model.hpp"

namespace dim::power {

EnergyBreakdown compute_energy(const accel::AccelStats& stats, size_t cache_slots,
                               const EnergyParams& p) {
  EnergyBreakdown e;
  const double cycles = static_cast<double>(stats.cycles);

  e.core = cycles * p.core_cycle +
           static_cast<double>(stats.proc_instructions) * p.core_instr;

  // Instructions executed on the array are never fetched from instruction
  // memory again — the paper's third energy-saving mechanism.
  e.imem = static_cast<double>(stats.proc_instructions) * p.imem_fetch;

  e.dmem = static_cast<double>(stats.proc_mem_accesses + stats.array_mem_ops) *
           p.dmem_access;

  const double busy = static_cast<double>(stats.array_cycles);
  const double idle = cycles > busy ? cycles - busy : 0.0;
  const bool has_array = stats.array_activations > 0 || stats.bt_observed > 0;
  if (has_array) {
    const double gate = 1.0 - p.power_gating_efficiency;
    e.array = static_cast<double>(stats.array_alu_ops + stats.array_mem_ops) * p.array_op +
              static_cast<double>(stats.array_mul_ops) * p.array_mul_op +
              busy * p.array_busy_cycle + idle * p.array_idle_cycle * gate +
              // Execution-mode extension event (zero under row-sync).
              static_cast<double>(stats.fifo_stall_cycles) * p.fifo_stall_cycle;
    e.rcache = static_cast<double>(stats.config_words_loaded) * p.rcache_read_word +
               static_cast<double>(stats.config_words_written) * p.rcache_write_word +
               cycles * static_cast<double>(cache_slots) * p.rcache_static_per_slot_cycle;
    e.bt = static_cast<double>(stats.bt_observed) * p.bt_observe;
  }
  return e;
}

EnergyBreakdown compute_power_per_cycle(const accel::AccelStats& stats,
                                        size_t cache_slots, const EnergyParams& p) {
  EnergyBreakdown e = compute_energy(stats, cache_slots, p);
  const double cycles = stats.cycles == 0 ? 1.0 : static_cast<double>(stats.cycles);
  e.core /= cycles;
  e.imem /= cycles;
  e.dmem /= cycles;
  e.array /= cycles;
  e.rcache /= cycles;
  e.bt /= cycles;
  return e;
}

}  // namespace dim::power
