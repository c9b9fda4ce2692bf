#include "snap/snapshot.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "mem/memory.hpp"
#include "snap/codec.hpp"
#include "snap/io.hpp"
#include "snap/system_access.hpp"

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
// personality is active (SystemConfig::exec_mode): a reserved u32 (the
// retired SIMT warp fill, see codec.hpp) and the execution-mode stats
// counters. Row-sync snapshots omit it and keep their exact pre-mode bytes
// (pinned by the committed format goldens); readers default the fields to
// zero when the section is absent.
constexpr uint16_t kSecExec = 10;   // reserved u32 + exec-mode counters

void expect_section(Reader& r, uint16_t id) {
  const uint16_t got = r.u16();
  if (got != id) {
    r.fail("expected section " + std::to_string(id) + ", found " +
           std::to_string(got));
  }
}

void put_cache_state(Writer& w, const mem::CacheState& c) {
  w.u64(c.tags.size());
  for (uint64_t t : c.tags) w.u64(t);
  w.u64(c.hits);
  w.u64(c.misses);
}

mem::CacheState get_cache_state(Reader& r) {
  mem::CacheState c;
  const uint64_t n = r.u64();
  r.expect_count(n, 8);
  c.tags.reserve(n);
  for (uint64_t i = 0; i < n; ++i) c.tags.push_back(r.u64());
  c.hits = r.u64();
  c.misses = r.u64();
  return c;
}

void put_builder(Writer& w, const bt::BuilderState& b) {
  w.u32(b.start_pc);
  w.u64(b.ops.size());
  for (const rra::ArrayOp& op : b.ops) put_array_op(w, op);
  w.u64(b.rows.size());
  for (const std::array<int, 3>& row : b.rows) {
    w.i32(row[0]);
    w.i32(row[1]);
    w.i32(row[2]);
  }
  for (int v : b.last_writer_row) w.i32(v);
  w.u64(b.input_ctx_bits);
  w.u64(b.written_bits);
  w.i32(b.last_mem_row);
  w.i32(b.last_store_row);
  w.i32(b.bb);
  w.i32(b.immediates);
  w.i32(b.pred_slots);
}

bt::BuilderState get_builder(Reader& r) {
  bt::BuilderState b;
  b.start_pc = r.u32();
  const uint64_t nops = r.u64();
  r.expect_count(nops, 35);  // serialized ArrayOp size
  b.ops.reserve(nops);
  for (uint64_t i = 0; i < nops; ++i) b.ops.push_back(get_array_op(r));
  const uint64_t nrows = r.u64();
  r.expect_count(nrows, 12);
  b.rows.reserve(nrows);
  for (uint64_t i = 0; i < nrows; ++i) {
    b.rows.push_back({r.i32(), r.i32(), r.i32()});
  }
  for (int& v : b.last_writer_row) v = r.i32();
  b.input_ctx_bits = r.u64();
  b.written_bits = r.u64();
  b.last_mem_row = r.i32();
  b.last_store_row = r.i32();
  b.bb = r.i32();
  b.immediates = r.i32();
  b.pred_slots = r.i32();
  if (b.bb < 0 || b.immediates < 0 || b.pred_slots < 0) {
    r.fail("negative builder counter");
  }
  return b;
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
  d.cpu = get_cpu(r);

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
  d.pipe.cycles = r.u64();
  d.pipe.pending_load_reg = r.i32();
  d.pipe.hilo_ready = r.u64();
  d.pipe.slot_open = r.boolean();
  d.pipe.slot_dest = r.i32();
  d.pipe.slot_mem = r.boolean();
  d.pipe.slot_hilo = r.boolean();
  d.pipe.icache = get_cache_state(r);
  d.pipe.dcache = get_cache_state(r);

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
  d.rcache_counters.hits = r.u64();
  d.rcache_counters.misses = r.u64();
  d.rcache_counters.insertions = r.u64();
  d.rcache_counters.evictions = r.u64();
  d.rcache_counters.flushes = r.u64();
  d.rcache_counters.words_written = r.u64();
  d.rcache_counters.revision_counter = r.u64();
  const uint64_t nentries = r.u64();
  r.expect_count(nentries, 50);  // minimum serialized Configuration size
  d.rcache_entries.reserve(nentries);
  for (uint64_t i = 0; i < nentries; ++i) {
    d.rcache_entries.push_back(get_configuration(r));
  }

  expect_section(r, kSecXlate);
  d.xlate.stats.captures_started = r.u64();
  d.xlate.stats.configs_inserted = r.u64();
  d.xlate.stats.captures_aborted = r.u64();
  d.xlate.stats.too_short = r.u64();
  d.xlate.stats.extensions_completed = r.u64();
  d.xlate.stats.observed_instructions = r.u64();
  d.xlate.stats.hammocks_merged = r.u64();
  d.xlate.stats.hammock_rejects = r.u64();
  d.xlate.start_pending = r.boolean();
  d.xlate.extending = r.boolean();
  d.xlate.skipping = r.boolean();
  d.xlate.skip_lo = r.u32();
  d.xlate.skip_until = r.u32();
  if (r.boolean()) d.xlate.builder = get_builder(r);
  if (d.xlate.extending && !d.xlate.builder.has_value()) {
    r.fail("extension flagged without an in-flight capture");
  }
  if (d.xlate.skipping && !d.xlate.builder.has_value()) {
    r.fail("hammock skip window without an in-flight capture");
  }

  expect_section(r, kSecStats);
  d.stats = get_stats(r);

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
    r.u32();  // reserved slot
    get_exec_stats(r, d.stats);
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
  w.u64(system_fingerprint(SystemAccess::config(system)));

  w.u16(kSecCpu);
  put_cpu(w, SystemAccess::state(system));

  w.u16(kSecMem);
  const auto pages = SystemAccess::memory(system).pages_sorted();
  w.u64(pages.size());
  for (const auto& [index, bytes] : pages) {
    w.u32(index);
    w.raw(bytes->data(), bytes->size());
  }

  w.u16(kSecPipe);
  const sim::PipelineState pipe = SystemAccess::pipeline(system).export_state();
  w.u64(pipe.cycles);
  w.i32(pipe.pending_load_reg);
  w.u64(pipe.hilo_ready);
  w.boolean(pipe.slot_open);
  w.i32(pipe.slot_dest);
  w.boolean(pipe.slot_mem);
  w.boolean(pipe.slot_hilo);
  put_cache_state(w, pipe.icache);
  put_cache_state(w, pipe.dcache);

  w.u16(kSecPred);
  const auto counters = SystemAccess::predictor(system).export_counters();
  w.u64(counters.size());
  for (const auto& [pc, counter] : counters) {
    w.u32(pc);
    w.u8(counter);
  }

  w.u16(kSecRcache);
  const bt::RcacheCounters rc = SystemAccess::rcache(system).counters();
  w.u64(rc.hits);
  w.u64(rc.misses);
  w.u64(rc.insertions);
  w.u64(rc.evictions);
  w.u64(rc.flushes);
  w.u64(rc.words_written);
  w.u64(rc.revision_counter);
  const auto entries = SystemAccess::rcache(system).export_entries();
  w.u64(entries.size());
  for (const rra::Configuration& config : entries) put_configuration(w, config);

  w.u16(kSecXlate);
  const bt::TranslatorState xlate = SystemAccess::translator(system).export_state();
  w.u64(xlate.stats.captures_started);
  w.u64(xlate.stats.configs_inserted);
  w.u64(xlate.stats.captures_aborted);
  w.u64(xlate.stats.too_short);
  w.u64(xlate.stats.extensions_completed);
  w.u64(xlate.stats.observed_instructions);
  w.u64(xlate.stats.hammocks_merged);
  w.u64(xlate.stats.hammock_rejects);
  w.boolean(xlate.start_pending);
  w.boolean(xlate.extending);
  w.boolean(xlate.skipping);
  w.u32(xlate.skip_lo);
  w.u32(xlate.skip_until);
  w.boolean(xlate.builder.has_value());
  if (xlate.builder.has_value()) put_builder(w, *xlate.builder);

  w.u16(kSecStats);
  put_stats(w, SystemAccess::stats(system));

  w.u16(kSecSys);
  w.boolean(SystemAccess::extension_candidate(system));
  w.u32(SystemAccess::extension_config_pc(system));
  w.u32(SystemAccess::extension_branch_pc(system));
  w.u64(SystemAccess::array_cycle_acc(system));
  w.boolean(SystemAccess::has_resident(system));
  w.u32(SystemAccess::resident_pc(system));
  w.u64(SystemAccess::resident_rev(system));
  w.u32(SystemAccess::resident_lo(system));
  w.u32(SystemAccess::resident_hi(system));

  if (SystemAccess::config(system).exec_mode.mode != rra::ExecMode::kRowSync) {
    w.u16(kSecExec);
    w.u32(0);  // reserved slot
    put_exec_stats(w, SystemAccess::stats(system));
  }

  return w.take();
}

void save_snapshot(std::ostream& out, const accel::AcceleratedSystem& system,
                   const asmblr::Program& program) {
  write_container(out, ArtifactKind::kSnapshot, encode_snapshot(system, program));
}

void save_snapshot_file(const std::string& path,
                        const accel::AcceleratedSystem& system,
                        const asmblr::Program& program) {
  write_artifact_file(path, ArtifactKind::kSnapshot,
                      encode_snapshot(system, program));
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
  if (d.system_fingerprint != system_fingerprint(SystemAccess::config(system))) {
    throw SnapshotError(SnapErrc::kMismatch,
                        "snapshot was taken under a different system configuration");
  }

  try {
    SystemAccess::memory(system).restore_pages(d.pages);
    SystemAccess::state(system) = d.cpu;
    SystemAccess::pipeline(system).restore_state(d.pipe);
    SystemAccess::predictor(system).restore_counters(d.predictor);
    SystemAccess::rcache(system).restore(std::move(d.rcache_entries),
                                         d.rcache_counters);
    SystemAccess::translator(system).restore_state(d.xlate);
  } catch (const std::invalid_argument& e) {
    // Component-level rejections (cache geometry, slot overflow, duplicate
    // PCs) are payload corruption by this point — the fingerprint already
    // matched, so a well-formed snapshot cannot trip them.
    throw SnapshotError(SnapErrc::kMalformed, e.what());
  }
  SystemAccess::stats(system) = d.stats;
  SystemAccess::set_extension(system, d.extension_candidate,
                              d.extension_config_pc, d.extension_branch_pc);
  SystemAccess::set_array_cycle_acc(system, d.array_cycle_acc);
  SystemAccess::set_residency_latch(system, d.has_resident, d.resident_pc,
                                    d.resident_rev, d.resident_lo, d.resident_hi);
  // restore_pages invalidated every page pointer and replaced the image;
  // drop all host-side decoded state (decode cache, superblock traces).
  SystemAccess::clear_host_caches(system);
}

void restore_snapshot(accel::AcceleratedSystem& system, std::istream& in,
                      const asmblr::Program& program) {
  restore_snapshot_payload(system, read_container(in, ArtifactKind::kSnapshot),
                           program);
}

void restore_snapshot_file(accel::AcceleratedSystem& system,
                           const std::string& path,
                           const asmblr::Program& program) {
  restore_snapshot_payload(
      system, read_artifact_file(path, ArtifactKind::kSnapshot), program);
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

SnapshotInfo inspect_snapshot_file(const std::string& path) {
  return inspect_snapshot(read_artifact_file(path, ArtifactKind::kSnapshot));
}

}  // namespace dim::snap
