// Analytic per-event energy model.
//
// Substitution note (see DESIGN.md §4): the paper measured power with
// Synopsys PowerCompiler on a synthesized Minimips @ TSMC 0.18µ. Offline we
// model energy as Σ events × per-event cost, with constants calibrated so
// the component ratios match the paper's Figure 5 breakdown (core vs
// instruction memory vs data memory vs array+cache vs DIM). The paper's
// energy argument — fewer cycles and far fewer instruction fetches outweigh
// the added array/cache/BT power — is preserved because it only depends on
// those relative costs.
#pragma once

#include "accel/stats.hpp"

namespace dim::power {

// Energy costs in nanojoule per event; "cycle" entries are charged per
// elapsed cycle (they fold static + clock power of that component).
struct EnergyParams {
  // Calibrated so that (a) MIPS+array draws moderately more power per cycle
  // than the standalone MIPS (paper Fig. 5: "very similar"), and (b) the
  // C#2/64-slot energy ratio over the suite lands near the paper's 1.73x.
  double core_cycle = 0.16;       // MIPS datapath + control per cycle
  double core_instr = 0.08;       // per instruction retired in the pipeline
  double imem_fetch = 0.42;       // instruction memory read
  double dmem_access = 0.50;      // data memory read/write
  double array_op = 0.055;        // one functional-unit evaluation
  double array_mul_op = 0.200;    // multiplier evaluation (dominates ALUs)
  double array_busy_cycle = 0.300; // array clocking while executing
  double array_idle_cycle = 0.020; // array static while idle
  double rcache_read_word = 0.045; // configuration word streamed at reconfig
  double rcache_write_word = 0.050;
  double rcache_static_per_slot_cycle = 0.00008;
  double bt_observe = 0.030;      // DIM table update per observed instruction

  // Execution-mode extension event (src/rra/exec_mode/). The counter
  // driving it is zero under row-sync, so the paper's Figure 5 numbers are
  // untouched by the mode axis.
  double fifo_stall_cycle = 0.010; // elastic: handshake clocking while stalled

  // Paper future work: "techniques to switch off functional units when they
  // are not being used". 0 = no gating (the paper's evaluated system);
  // 0..1 = fraction of the array's static/clock energy removed while the
  // array is idle.
  double power_gating_efficiency = 0.0;
};

struct EnergyBreakdown {
  double core = 0;    // processor pipeline
  double imem = 0;    // instruction memory
  double dmem = 0;    // data memory
  double array = 0;   // reconfigurable array (FUs + clocking)
  double rcache = 0;  // reconfiguration cache
  double bt = 0;      // DIM detection hardware

  double total() const { return core + imem + dmem + array + rcache + bt; }
};

// Total energy (nJ) of a run. For a baseline run (no array) the array,
// rcache and bt terms are zero by construction of the stats.
EnergyBreakdown compute_energy(const accel::AccelStats& stats,
                               size_t cache_slots,
                               const EnergyParams& params = {});

// Average power (in nJ/cycle == W at 1 GHz; we report it normalized as
// "power per cycle" exactly like Figure 5).
EnergyBreakdown compute_power_per_cycle(const accel::AccelStats& stats,
                                        size_t cache_slots,
                                        const EnergyParams& params = {});

}  // namespace dim::power
