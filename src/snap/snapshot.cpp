#include "snap/snapshot.hpp"

#include <stdexcept>
#include <utility>

#include "mem/memory.hpp"
#include "snap/codec.hpp"
#include "snap/io.hpp"

namespace dim::snap {
namespace {

// Payload layout: sections with u16 markers in this fixed order. The
// markers buy cheap integrity (a mis-length section fails at the next
// marker, not twenty fields later) and keep the dump tool honest.
constexpr uint16_t kSecMeta = 1;    // program hash + system fingerprint
constexpr uint16_t kSecCpu = 2;     // architectural registers + output
constexpr uint16_t kSecMem = 3;     // sparse pages, ascending
constexpr uint16_t kSecPipe = 4;    // pipeline latches + I/D cache models
constexpr uint16_t kSecPred = 5;    // bimodal counters, ascending by PC
constexpr uint16_t kSecRcache = 6;  // counters + entries oldest-first
constexpr uint16_t kSecXlate = 7;   // translator stats + in-flight capture
constexpr uint16_t kSecStats = 8;   // accumulated AccelStats
constexpr uint16_t kSecSys = 9;     // extension latch + array cycle acc
// Optional trailing section, present ONLY when a non-row-sync execution
// personality is active (SystemConfig::exec_mode): the execution-mode
// stats counters. Row-sync snapshots omit it; readers default the fields
// to zero when the section is absent.
constexpr uint16_t kSecExec = 10;   // exec-mode counters

void expect_section(Reader& r, uint16_t id) {
  const uint16_t got = r.u16();
  if (got != id) {
    r.fail("expected section " + std::to_string(id) + ", found " +
           std::to_string(got));
  }
}

template <class IO>
void cache_fields(IO& io, Field<IO, mem::CacheState>& c) {
  io.count(c.tags, 8);
  for (auto& tag : c.tags) io.u64(tag);
  io.u64(c.hits);
  io.u64(c.misses);
}

template <class IO>
void pipeline_fields(IO& io, Field<IO, sim::PipelineState>& p) {
  io.u64(p.cycles);
  io.i32(p.pending_load_reg);
  io.u64(p.hilo_ready);
  io.boolean(p.slot_open);
  io.i32(p.slot_dest);
  io.boolean(p.slot_mem);
  io.boolean(p.slot_hilo);
  cache_fields(io, p.icache);
  cache_fields(io, p.dcache);
}

template <class IO>
void rcache_counter_fields(IO& io, Field<IO, bt::RcacheCounters>& c) {
  io.u64(c.hits);
  io.u64(c.misses);
  io.u64(c.insertions);
  io.u64(c.evictions);
  io.u64(c.flushes);
  io.u64(c.words_written);
  io.u64(c.revision_counter);
}

template <class IO>
void builder_fields(IO& io, Field<IO, bt::BuilderState>& b) {
  io.u32(b.start_pc);
  io.count(b.ops, kArrayOpBytes);
  for (auto& op : b.ops) array_op_fields(io, op);
  io.count(b.rows, 12);
  for (auto& row : b.rows) {
    for (auto& units : row) io.i32(units);
  }
  for (auto& row : b.last_writer_row) io.i32(row);
  io.u64(b.input_ctx_bits);
  io.u64(b.written_bits);
  io.i32(b.last_mem_row);
  io.i32(b.last_store_row);
  io.i32(b.bb);
  io.i32(b.immediates);
  io.i32(b.pred_slots);
  if constexpr (IO::kReading) {
    if (b.bb < 0 || b.immediates < 0 || b.pred_slots < 0) {
      io.fail("negative builder counter");
    }
  }
}

template <class IO>
void translator_fields(IO& io, Field<IO, bt::TranslatorState>& t) {
  io.u64(t.stats.captures_started);
  io.u64(t.stats.configs_inserted);
  io.u64(t.stats.captures_aborted);
  io.u64(t.stats.too_short);
  io.u64(t.stats.extensions_completed);
  io.u64(t.stats.observed_instructions);
  io.u64(t.stats.hammocks_merged);
  io.u64(t.stats.hammock_rejects);
  io.boolean(t.start_pending);
  io.boolean(t.extending);
  io.boolean(t.skipping);
  io.u32(t.skip_lo);
  io.u32(t.skip_until);
  bool capturing = t.builder.has_value();
  io.boolean(capturing);
  if (capturing) {
    if constexpr (IO::kReading) t.builder.emplace();
    builder_fields(io, *t.builder);
  }
  if constexpr (IO::kReading) {
    if (t.extending && !capturing) {
      io.fail("extension flagged without an in-flight capture");
    }
    if (t.skipping && !capturing) {
      io.fail("hammock skip window without an in-flight capture");
    }
  }
}

// Fully parsed snapshot, staged before any system mutation so a malformed
// payload is (mostly) rejected without touching the target.
struct SnapshotData {
  uint64_t program_hash = 0;
  uint64_t system_fingerprint = 0;
  sim::CpuState cpu;
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> pages;
  sim::PipelineState pipe;
  std::vector<std::pair<uint32_t, uint8_t>> predictor;
  bt::RcacheCounters rcache_counters;
  std::vector<rra::Configuration> rcache_entries;
  bt::TranslatorState xlate;
  accel::AccelStats stats;
  bool extension_candidate = false;
  uint32_t extension_config_pc = 0;
  uint32_t extension_branch_pc = 0;
  uint64_t array_cycle_acc = 0;
  bool has_resident = false;
  uint32_t resident_pc = 0;
  uint64_t resident_rev = 0;
  uint32_t resident_lo = 0;
  uint32_t resident_hi = 0;
};

SnapshotData parse_snapshot(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  SnapshotData d;

  expect_section(r, kSecMeta);
  d.program_hash = r.u64();
  d.system_fingerprint = r.u64();

  expect_section(r, kSecCpu);
  cpu_fields(r, d.cpu);

  expect_section(r, kSecMem);
  const uint64_t npages = r.u64();
  r.expect_count(npages, 4 + mem::Memory::kPageSize);
  d.pages.reserve(npages);
  for (uint64_t i = 0; i < npages; ++i) {
    const uint32_t index = r.u32();
    std::vector<uint8_t> bytes(mem::Memory::kPageSize);
    r.raw(bytes.data(), bytes.size());
    if (i > 0 && index <= d.pages.back().first) {
      r.fail("memory pages not ascending");
    }
    d.pages.emplace_back(index, std::move(bytes));
  }

  expect_section(r, kSecPipe);
  pipeline_fields(r, d.pipe);

  expect_section(r, kSecPred);
  const uint64_t nbranches = r.u64();
  r.expect_count(nbranches, 5);
  d.predictor.reserve(nbranches);
  for (uint64_t i = 0; i < nbranches; ++i) {
    const uint32_t pc = r.u32();
    const uint8_t counter = r.u8();
    if (counter > 3) r.fail("bimodal counter " + std::to_string(counter));
    if (i > 0 && pc <= d.predictor.back().first) {
      r.fail("predictor counters not ascending");
    }
    d.predictor.emplace_back(pc, counter);
  }

  expect_section(r, kSecRcache);
  rcache_counter_fields(r, d.rcache_counters);
  configurations_fields(r, d.rcache_entries);

  expect_section(r, kSecXlate);
  translator_fields(r, d.xlate);

  expect_section(r, kSecStats);
  stats_fields(r, d.stats);

  expect_section(r, kSecSys);
  d.extension_candidate = r.boolean();
  d.extension_config_pc = r.u32();
  d.extension_branch_pc = r.u32();
  d.array_cycle_acc = r.u64();
  d.has_resident = r.boolean();
  d.resident_pc = r.u32();
  d.resident_rev = r.u64();
  d.resident_lo = r.u32();
  d.resident_hi = r.u32();
  if (d.has_resident && d.resident_lo >= d.resident_hi) {
    r.fail("empty resident code range");
  }

  if (!r.done()) {
    expect_section(r, kSecExec);
    exec_stats_fields(r, d.stats);
  }

  if (!r.done()) r.fail("trailing bytes after final section");
  return d;
}

}  // namespace

std::vector<uint8_t> encode_snapshot(const accel::AcceleratedSystem& system,
                                     const asmblr::Program& program) {
  Writer w;

  w.u16(kSecMeta);
  w.u64(program_hash(program));
  w.u64(system_fingerprint(system.config_));

  w.u16(kSecCpu);
  cpu_fields(w, system.state_);

  w.u16(kSecMem);
  const auto pages = system.memory_.pages_sorted();
  w.u64(pages.size());
  for (const auto& [index, bytes] : pages) {
    w.u32(index);
    w.raw(bytes->data(), bytes->size());
  }

  w.u16(kSecPipe);
  pipeline_fields(w, system.pipeline_.export_state());

  w.u16(kSecPred);
  const auto counters = system.predictor_.export_counters();
  w.u64(counters.size());
  for (const auto& [pc, counter] : counters) {
    w.u32(pc);
    w.u8(counter);
  }

  w.u16(kSecRcache);
  rcache_counter_fields(w, system.rcache_->counters());
  configurations_fields(w, system.rcache_->export_entries());

  w.u16(kSecXlate);
  translator_fields(w, system.translator_->export_state());

  w.u16(kSecStats);
  stats_fields(w, system.stats_);

  w.u16(kSecSys);
  w.boolean(system.extension_candidate_);
  w.u32(system.extension_config_pc_);
  w.u32(system.extension_branch_pc_);
  w.u64(system.array_cycle_acc_);
  w.boolean(system.has_resident_);
  w.u32(system.resident_pc_);
  w.u64(system.resident_rev_);
  w.u32(system.resident_lo_);
  w.u32(system.resident_hi_);

  if (system.config_.exec_mode.mode != rra::ExecMode::kRowSync) {
    w.u16(kSecExec);
    exec_stats_fields(w, system.stats_);
  }

  return w.take();
}

void save_snapshot(std::ostream& out, const accel::AcceleratedSystem& system,
                   const asmblr::Program& program) {
  write_container(out, ArtifactKind::kSnapshot, encode_snapshot(system, program));
}

void restore_snapshot_payload(accel::AcceleratedSystem& system,
                              const std::vector<uint8_t>& payload,
                              const asmblr::Program& program) {
  SnapshotData d = parse_snapshot(payload);

  // Identity checks before any mutation: a snapshot only restores into a
  // system that would have produced it.
  if (d.program_hash != program_hash(program)) {
    throw SnapshotError(SnapErrc::kMismatch,
                        "snapshot was taken from a different program image");
  }
  if (d.system_fingerprint != system_fingerprint(system.config_)) {
    throw SnapshotError(SnapErrc::kMismatch,
                        "snapshot was taken under a different system configuration");
  }

  // restore_pages replaces the image and frees its pages: drop all
  // host-side decoded state (decode cache, superblock traces with their
  // cached code-page and data-TLB pointers) first, so even a restore that
  // fails below leaves no pointer into a freed page. Both caches are
  // architecture-invisible and rebuild lazily.
  system.decode_cache_.clear();
  system.trace_cache_.clear();
  try {
    system.memory_.restore_pages(d.pages);
    system.state_ = d.cpu;
    system.pipeline_.restore_state(d.pipe);
    system.predictor_.restore_counters(d.predictor);
    system.rcache_->restore(std::move(d.rcache_entries), d.rcache_counters);
    system.translator_->restore_state(d.xlate);
  } catch (const std::invalid_argument& e) {
    // Component-level rejections (cache geometry, slot overflow, duplicate
    // PCs) are payload corruption by this point — the fingerprint already
    // matched, so a well-formed snapshot cannot trip them.
    throw SnapshotError(SnapErrc::kMalformed, e.what());
  }
  system.stats_ = d.stats;
  system.extension_candidate_ = d.extension_candidate;
  system.extension_config_pc_ = d.extension_config_pc;
  system.extension_branch_pc_ = d.extension_branch_pc;
  system.array_cycle_acc_ = d.array_cycle_acc;
  system.has_resident_ = d.has_resident;
  system.resident_pc_ = d.resident_pc;
  system.resident_rev_ = d.resident_rev;
  system.resident_lo_ = d.resident_lo;
  system.resident_hi_ = d.resident_hi;
}

void restore_snapshot(accel::AcceleratedSystem& system, std::istream& in,
                      const asmblr::Program& program) {
  restore_snapshot_payload(system, read_container(in, ArtifactKind::kSnapshot),
                           program);
}

SnapshotInfo inspect_snapshot(const std::vector<uint8_t>& payload) {
  SnapshotData d = parse_snapshot(payload);
  SnapshotInfo info;
  info.program_hash = d.program_hash;
  info.system_fingerprint = d.system_fingerprint;
  info.cpu = d.cpu;
  info.memory_pages = d.pages.size();
  info.pipeline_cycles = d.pipe.cycles;
  info.predictor_branches = d.predictor.size();
  for (const auto& [pc, counter] : d.predictor) {
    if (counter == 0 || counter == 3) ++info.predictor_saturated;
  }
  info.rcache_counters = d.rcache_counters;
  info.rcache_entries.reserve(d.rcache_entries.size());
  for (const rra::Configuration& config : d.rcache_entries) {
    SnapshotRcacheEntry e;
    e.start_pc = config.start_pc;
    e.end_pc = config.end_pc;
    e.rows_used = config.rows_used;
    e.ops = static_cast<int>(config.ops.size());
    e.num_bbs = config.num_bbs;
    info.rcache_entries.push_back(e);
  }
  info.translator_stats = d.xlate.stats;
  info.capture_in_flight = d.xlate.builder.has_value();
  if (d.xlate.builder.has_value()) {
    info.capture_pc = d.xlate.builder->start_pc;
    info.capture_ops = static_cast<int>(d.xlate.builder->ops.size());
  }
  info.stats = d.stats;
  return info;
}

}  // namespace dim::snap
