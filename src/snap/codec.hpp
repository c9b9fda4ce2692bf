// Field-level codecs shared by the persistence artifacts: CPU state, run
// statistics, array configurations, event profiles, and the identity
// hashes that key snapshots and result-store cells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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
// bytes). Symbols are excluded: they do not affect execution, so two
// builds of the same image share snapshots and result-store cells.
uint64_t program_hash(const asmblr::Program& program);

// FNV-1a over every SystemConfig field that can change simulated behavior
// (timing, shape, cache geometry, speculation, translator restrictions,
// fault injection, ...). The event sink is excluded — tracing is
// observation-only by contract. Two systems with equal fingerprints run a
// given program identically, so a snapshot may only be restored into a
// system whose fingerprint matches.
uint64_t system_fingerprint(const accel::SystemConfig& config);

// Field functions: each persisted struct's layout, declared once for
// both directions (see Writer/Reader in snap/io.hpp). Adding a field is
// one line in its function (codec.cpp) plus a kFormatVersion bump.
// Defined, and instantiated for Writer and Reader, in codec.cpp only:
// inlined into every caller they exhausted GCC's inlining budget in those
// sources and slowed snapshot encoding.

template <class IO>
void cpu_fields(IO& io, Field<IO, sim::CpuState>& s);

template <class IO>
void stats_fields(IO& io, Field<IO, accel::AccelStats>& s);

// The execution-mode extension counters of AccelStats (always zero under
// row-sync). Serialized OUTSIDE stats_fields — in optional trailing blocks
// gated on has_exec_stats / the active mode — so row-sync snapshots and
// result-store cells carry no exec block at all. Readers leave the fields
// zero when the block is absent.
bool has_exec_stats(const accel::AccelStats& stats);
template <class IO>
void exec_stats_fields(IO& io, Field<IO, accel::AccelStats>& s);

// One placed array op (also used standalone for in-flight builder state).
template <class IO>
void array_op_fields(IO& io, Field<IO, rra::ArrayOp>& op);
inline constexpr size_t kArrayOpBytes = 35;  // serialized ArrayOp size

template <class IO>
void configuration_fields(IO& io, Field<IO, rra::Configuration>& c);

// A list of configurations (rcache entries oldest-first).
template <class IO>
void configurations_fields(IO& io, Field<IO, std::vector<rra::Configuration>>& list);

// A profile table as its ConfigProfiles, ascending by start PC.
template <class IO>
void profile_fields(IO& io, Field<IO, obs::ProfileTable>& table);

}  // namespace dim::snap
