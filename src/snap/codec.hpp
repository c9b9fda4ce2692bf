// Field-level codecs shared by the three persistence artifacts: CPU state,
// run statistics, array configurations, event profiles, and the identity
// hashes that key warm-start files and result-store cells.
#pragma once

#include <cstdint>

#include "accel/stats.hpp"
#include "accel/system.hpp"
#include "asm/program.hpp"
#include "obs/profile.hpp"
#include "rra/configuration.hpp"
#include "sim/cpu_state.hpp"
#include "snap/io.hpp"

namespace dim::snap {

// FNV-1a 64-bit — the hash behind every identity key in this subsystem.
uint64_t fnv1a64(const std::vector<uint8_t>& bytes);

// FNV-1a over the program image (entry point + every segment's base and
// bytes). Symbols are excluded: they do not affect execution, and two
// builds of the same image must warm-start each other.
uint64_t program_hash(const asmblr::Program& program);

// FNV-1a over every SystemConfig field that can change simulated behavior
// (timing, shape, cache geometry, speculation, translator restrictions,
// fault injection, ...). The event sink is excluded — tracing is
// observation-only by contract. Two systems with equal fingerprints run a
// given program identically, so a snapshot may only be restored into a
// system whose fingerprint matches.
uint64_t system_fingerprint(const accel::SystemConfig& config);

// Fingerprint of just the translator-facing knobs (shape + capacity +
// speculation + restrictions): two systems with equal translation
// fingerprints build identical configurations, which is the compatibility
// contract of a warm-start file.
uint64_t translation_fingerprint(const accel::SystemConfig& config);

void put_cpu(Writer& w, const sim::CpuState& state);
sim::CpuState get_cpu(Reader& r);

void put_stats(Writer& w, const accel::AccelStats& stats);
accel::AccelStats get_stats(Reader& r);

// The execution-mode extension counters of AccelStats (always zero under
// row-sync). Serialized OUTSIDE put_stats — in optional trailing blocks
// gated on has_exec_stats / the active mode — so row-sync snapshots and
// result-store cells carry no exec block at all. Readers default the
// fields to zero when the block is absent.
bool has_exec_stats(const accel::AccelStats& stats);
void put_exec_stats(Writer& w, const accel::AccelStats& stats);
void get_exec_stats(Reader& r, accel::AccelStats& stats);

// One placed array op (used standalone for in-flight builder state; the
// reader validates opcode, register fields, FU kind and placement).
void put_array_op(Writer& w, const rra::ArrayOp& op);
rra::ArrayOp get_array_op(Reader& r);

void put_configuration(Writer& w, const rra::Configuration& config);
rra::Configuration get_configuration(Reader& r);

void put_profile(Writer& w, const obs::ProfileTable& table);
obs::ProfileTable get_profile(Reader& r);

}  // namespace dim::snap
