// Quickstart: assemble a MIPS program, run it on the plain core and on the
// DIM-accelerated core, and compare. This is the 60-second tour of the
// public API.
#include <cstdio>

#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "power/power_model.hpp"

int main() {
  // 1. Write (or load) a MIPS program. Any binary works unmodified — that
  //    is the whole point of Dynamic Instruction Merging.
  const char* source = R"(
        .data
vec:    .word 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
        .text
main:   la $t0, vec
        li $t1, 16            # elements
        li $t2, 0             # dot-product accumulator
        li $t3, 0             # i
loop:   sll $t4, $t3, 2
        addu $t5, $t0, $t4
        lw $t6, 0($t5)        # vec[i]
        mul $t7, $t6, $t6     # vec[i]^2
        addu $t2, $t2, $t7
        addiu $t3, $t3, 1
        bne $t3, $t1, loop
        move $a0, $t2
        li $v0, 1             # print integer
        syscall
        li $v0, 10            # exit
        syscall
)";
  const dim::asmblr::Program program = dim::asmblr::assemble(source);

  // 2. Baseline: the standalone MIPS R3000-class core.
  const dim::accel::AccelStats baseline =
      dim::accel::baseline_as_stats(program, dim::sim::MachineConfig{});
  std::printf("baseline:    output='%s'  %llu instructions, %llu cycles\n",
              baseline.final_state.output.c_str(),
              static_cast<unsigned long long>(baseline.instructions),
              static_cast<unsigned long long>(baseline.cycles));

  // 3. Accelerated: same binary, with the DIM translator + reconfigurable
  //    array watching the pipeline. Configuration #2 of the paper, 64
  //    reconfiguration-cache slots, speculation on.
  const dim::accel::SystemConfig config =
      dim::accel::SystemConfig::with(dim::rra::ArrayShape::config2(), 64, true);
  const dim::accel::AccelStats accel = dim::accel::run_accelerated(program, config);
  std::printf("accelerated: output='%s'  %llu instructions, %llu cycles\n",
              accel.final_state.output.c_str(),
              static_cast<unsigned long long>(accel.instructions),
              static_cast<unsigned long long>(accel.cycles));

  // 4. The paper's two headline metrics.
  std::printf("\nspeedup: %.2fx  (%.0f%% of instructions ran on the array, %llu activations)\n",
              static_cast<double>(baseline.cycles) / static_cast<double>(accel.cycles),
              100.0 * accel.array_coverage(),
              static_cast<unsigned long long>(accel.array_activations));
  const double e_base = dim::power::compute_energy(baseline, 0).total();
  const double e_accel = dim::power::compute_energy(accel, 64).total();
  std::printf("energy:  %.2fx less (%.1f nJ -> %.1f nJ)\n", e_base / e_accel, e_base, e_accel);

  // 5. Transparency: output, registers, PC, HI/LO, memory and retired
  //    count are bit-identical.
  const dim::accel::RunComparison verdict = dim::accel::compare_runs(baseline, accel);
  std::printf("transparent: %s\n", verdict.transparent() ? "yes" : "NO - BUG");
  if (!verdict.transparent()) std::printf("  %s\n", verdict.detail.c_str());
  return verdict.transparent() ? 0 : 1;
}
