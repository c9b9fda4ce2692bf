// Area model (paper Table 3).
//
// Per-unit gate costs are back-derived from Table 3a. Unit counts follow the
// paper's physical organization, which differs from the logical rows of
// Table 1 in two calibrated ways we document here and in EXPERIMENTS.md:
//   - a multiplier is pipelined across 4 lines, so physical multipliers =
//     lines × muls_per_line / 4  (24×1/4 = 6, matching Table 3a);
//   - load/store units are shared 4:3 across lines (48 × 3/4 = 36);
//   - input muxes per line = 2×ALUs + 1, output muxes per line = ALUs + 1
//     (17 and 9 per line for configuration #1: 408 and 216 in total).
// With these rules configuration #1 reproduces Table 3a exactly
// (664,102 gates including the 1,024-gate DIM hardware).
#pragma once

#include <cstdint>

#include "rra/array_shape.hpp"

namespace dim::power {

struct AreaReport {
  int alus = 0;
  int multipliers = 0;
  int ldst_units = 0;
  int input_muxes = 0;
  int output_muxes = 0;
  int64_t alu_gates = 0;
  int64_t multiplier_gates = 0;
  int64_t ldst_gates = 0;
  int64_t input_mux_gates = 0;
  int64_t output_mux_gates = 0;
  int64_t dim_gates = 0;
  int64_t total_gates = 0;
  // "one gate is equivalent to 4 transistors"
  int64_t total_transistors() const { return total_gates * 4; }
};

AreaReport array_area(const rra::ArrayShape& shape);

// Bits to store one configuration in the reconfiguration cache (Table 3b).
// The write bitmap is detection-only and excluded from the stored total,
// exactly as in the paper.
struct ConfigBits {
  int write_bitmap = 0;   // temporary, detection phase only
  int resource_table = 0;
  int reads_table = 0;
  int writes_table = 0;
  int context_start = 0;
  int context_current = 0;
  int immediate_table = 0;
  int stored_total() const {
    return resource_table + reads_table + writes_table + context_start +
           context_current + immediate_table;
  }
};

ConfigBits config_bits(const rra::ArrayShape& shape);

// Bytes of reconfiguration-cache storage for `slots` entries (Table 3c).
int64_t cache_bytes(const rra::ArrayShape& shape, int slots);

}  // namespace dim::power
