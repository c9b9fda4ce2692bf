#include "power/area_model.hpp"

#include <cmath>

#include "common/bitutil.hpp"
#include "rra/configuration.hpp"

namespace dim::power {
namespace {

// Gate costs back-derived from Table 3a (configuration #1).
constexpr int64_t kAluGates = 1564;        // 300288 / 192
constexpr int64_t kMultiplierGates = 6689; // 40134 / 6
// LD/ST units cost 164/3 gates each (1968 / 36); kept exact as a rational.
constexpr int64_t kLdstGatesNum = 164;
constexpr int64_t kLdstGatesDen = 3;
constexpr int64_t kInputMuxGates = 642;   // 261936 / 408
constexpr int64_t kOutputMuxGates = 272;  // 58752 / 216
constexpr int64_t kDimGates = 1024;

}  // namespace

AreaReport array_area(const rra::ArrayShape& shape) {
  AreaReport r;
  r.alus = shape.lines * shape.alus_per_line;
  r.multipliers = shape.lines * shape.muls_per_line / 4;  // 4-line pipeline
  r.ldst_units = shape.lines * shape.ldsts_per_line * 3 / 4;
  r.input_muxes = shape.lines * (2 * shape.alus_per_line + 1);
  r.output_muxes = shape.lines * (shape.alus_per_line + 1);

  r.alu_gates = static_cast<int64_t>(r.alus) * kAluGates;
  r.multiplier_gates = static_cast<int64_t>(r.multipliers) * kMultiplierGates;
  r.ldst_gates = static_cast<int64_t>(r.ldst_units) * kLdstGatesNum / kLdstGatesDen;
  r.input_mux_gates = static_cast<int64_t>(r.input_muxes) * kInputMuxGates;
  r.output_mux_gates = static_cast<int64_t>(r.output_muxes) * kOutputMuxGates;
  r.dim_gates = kDimGates;
  r.total_gates = r.alu_gates + r.multiplier_gates + r.ldst_gates +
                  r.input_mux_gates + r.output_mux_gates + r.dim_gates;
  return r;
}

ConfigBits config_bits(const rra::ArrayShape& shape) {
  ConfigBits b;
  // Write bitmap: one bit per general register per in-flight write slot
  // (detection only).
  b.write_bitmap = 256;
  // Resource table: ~3 bits per row/column cell; the constant reproduces
  // Table 3b's 786 bits for configuration #1 (24 lines x 11 columns).
  b.resource_table = static_cast<int>(
      std::lround(static_cast<double>(shape.lines) * shape.columns() * 786.0 / (24.0 * 11.0)));
  // Reads table: per line, two context-bus read selectors over the 34
  // context registers (24 x 2 x 34 = 1632).
  b.reads_table = shape.lines * 2 * rra::kNumCtxRegs;
  // Writes table: 24 write-back select bits per line (24 x 24 = 576).
  b.writes_table = shape.lines * 24;
  b.context_start = 40;
  b.context_current = 40;
  b.immediate_table = 128;
  return b;
}

int64_t cache_bytes(const rra::ArrayShape& shape, int slots) {
  const int bits_per_slot = config_bits(shape).stored_total();
  return static_cast<int64_t>(ceil_div(static_cast<int64_t>(bits_per_slot) * slots, 8));
}

}  // namespace dim::power
