// Architectural state of the MIPS core plus the retired-instruction record
// consumed by the timing model, the profiler and the DIM engine.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "isa/instruction.hpp"

namespace dim::sim {

struct CpuState {
  std::array<uint32_t, 32> regs{};
  uint32_t pc = 0;
  uint32_t hi = 0;
  uint32_t lo = 0;
  bool halted = false;
  std::string output;  // bytes written by print syscalls

  // Stable hash of the register file + HI/LO, for transparency checks.
  uint64_t reg_hash() const {
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint32_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    for (uint32_t r : regs) mix(r);
    mix(hi);
    mix(lo);
    return h;
  }
};

// Stack and global pointers at program entry: the stack grows down from
// just below 0x7FFF0000, and $gp points into the data segment.
inline constexpr uint32_t kInitialSp = 0x7FFF0000;
inline constexpr uint32_t kInitialGp = 0x10008000;

// The core's state at program entry: PC at `entry`, $sp and $gp set,
// everything else zero.
inline CpuState entry_state(uint32_t entry) {
  CpuState s;
  s.pc = entry;
  s.regs[29] = kInitialSp;
  s.regs[28] = kInitialGp;
  return s;
}

// Everything the rest of the system needs to know about one retired
// instruction.
struct StepInfo {
  isa::Instr instr;
  uint32_t pc = 0;
  uint32_t next_pc = 0;
  bool is_branch = false;  // conditional branch
  bool taken = false;      // branch outcome (also set for jumps)
  bool mem_access = false;
  uint32_t mem_addr = 0;
  bool halted = false;
};

}  // namespace dim::sim
