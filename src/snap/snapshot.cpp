#include "snap/snapshot.hpp"

#include <optional>
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
constexpr uint16_t kSecSys = 9;     // the system's RunLatches
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

// The meta section: what the snapshot is of.
template <class IO>
void meta_fields(IO& io, Field<IO, uint64_t>& program, Field<IO, uint64_t>& system) {
  io.u64(program);
  io.u64(system);
}

// Memory pages ascending by index, each a u32 index and kPageSize raw
// bytes. Writing takes Memory::pages_sorted()'s page pointers; reading
// fills owned pages.
using PageList = std::vector<std::pair<uint32_t, std::vector<uint8_t>>>;

template <class IO, class Pages>
void pages_fields(IO& io, Pages&& pages) {
  io.count(pages, 4 + mem::Memory::kPageSize);
  for (size_t i = 0; i < pages.size(); ++i) {
    auto& [index, bytes] = pages[i];
    io.u32(index);
    if constexpr (IO::kReading) {
      bytes.resize(mem::Memory::kPageSize);
      io.raw(bytes.data(), bytes.size());
      if (i > 0 && index <= pages[i - 1].first) io.fail("memory pages not ascending");
    } else {
      io.raw(bytes->data(), bytes->size());
    }
  }
}

template <class IO>
void cache_fields(IO& io, Field<IO, mem::CacheState>& c) {
  io.count(c.tags, 8);
  for (auto& tag : c.tags) io.u64(tag);
  io.u64(c.hits);
  io.u64(c.misses);
}

// The pipeline's latches, then its I- and D-cache models.
template <class IO>
void pipe_fields(IO& io, Field<IO, sim::PipelineState>& p,
                 Field<IO, mem::CacheState>& icache, Field<IO, mem::CacheState>& dcache) {
  io.u64(p.cycles);
  io.i32(p.pending_load_reg);
  io.u64(p.hilo_ready);
  io.boolean(p.slot_open);
  io.i32(p.slot_dest);
  io.boolean(p.slot_mem);
  io.boolean(p.slot_hilo);
  cache_fields(io, icache);
  cache_fields(io, dcache);
}

// Bimodal counters as (PC, counter) pairs ascending by PC.
using CounterList = std::vector<std::pair<uint32_t, uint8_t>>;

template <class IO>
void predictor_fields(IO& io, Field<IO, CounterList>& counters) {
  io.count(counters, 5);
  for (size_t i = 0; i < counters.size(); ++i) {
    auto& [pc, counter] = counters[i];
    io.u32(pc);
    io.u8(counter);
    if constexpr (IO::kReading) {
      if (counter > 3) io.fail("bimodal counter " + std::to_string(counter));
      if (i > 0 && pc <= counters[i - 1].first) io.fail("predictor counters not ascending");
    }
  }
}

// The rcache's counters, then its entries oldest-first.
template <class IO>
void rcache_fields(IO& io, Field<IO, bt::RcacheCounters>& c,
                   Field<IO, std::vector<rra::Configuration>>& entries) {
  io.u64(c.hits);
  io.u64(c.misses);
  io.u64(c.insertions);
  io.u64(c.evictions);
  io.u64(c.flushes);
  io.u64(c.words_written);
  io.u64(c.revision_counter);
  configurations_fields(io, entries);
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
    if ((b.input_ctx_bits | b.written_bits) >> rra::kNumCtxRegs != 0) {
      io.fail("builder context bits past the last context register");
    }
  }
}

// The translator's counters and latches, then its open capture, if any:
// a std::optional<bt::BuilderState> when reading, Translator::capture()'s
// pointer when writing.
template <class IO, class Capture>
void translator_fields(IO& io, Field<IO, bt::TranslatorState>& t, Capture&& capture) {
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
  bool capturing = static_cast<bool>(capture);
  io.boolean(capturing);
  if (capturing) {
    if constexpr (IO::kReading) capture.emplace();
    builder_fields(io, *capture);
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

template <class IO>
void latches_fields(IO& io, Field<IO, accel::RunLatches>& l) {
  io.boolean(l.extension_candidate);
  io.u32(l.extension_config_pc);
  io.u32(l.extension_branch_pc);
  io.u64(l.array_cycle_acc);
  io.boolean(l.has_resident);
  io.u32(l.resident_pc);
  io.u64(l.resident_rev);
  io.u32(l.resident_lo);
  io.u32(l.resident_hi);
  if constexpr (IO::kReading) {
    if (l.has_resident && l.resident_lo >= l.resident_hi) {
      io.fail("empty resident code range");
    }
  }
}

// A parsed snapshot, staged so every check runs before the target changes.
struct SnapshotData {
  uint64_t program_hash = 0;
  uint64_t system_fingerprint = 0;
  sim::CpuState cpu;
  PageList pages;
  sim::PipelineState pipe;
  mem::CacheState icache;
  mem::CacheState dcache;
  CounterList predictor;
  bt::RcacheCounters rcache_counters;
  std::vector<rra::Configuration> rcache_entries;
  bt::TranslatorState xlate;
  std::optional<bt::BuilderState> capture;
  accel::AccelStats stats;
  accel::RunLatches latches;
};

SnapshotData parse_snapshot(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  SnapshotData d;
  expect_section(r, kSecMeta);
  meta_fields(r, d.program_hash, d.system_fingerprint);
  expect_section(r, kSecCpu);
  cpu_fields(r, d.cpu);
  expect_section(r, kSecMem);
  pages_fields(r, d.pages);
  expect_section(r, kSecPipe);
  pipe_fields(r, d.pipe, d.icache, d.dcache);
  expect_section(r, kSecPred);
  predictor_fields(r, d.predictor);
  expect_section(r, kSecRcache);
  rcache_fields(r, d.rcache_counters, d.rcache_entries);
  expect_section(r, kSecXlate);
  translator_fields(r, d.xlate, d.capture);
  expect_section(r, kSecStats);
  stats_fields(r, d.stats);
  expect_section(r, kSecSys);
  latches_fields(r, d.latches);
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
  const sim::PipelineModel& pipeline = system.pipeline_;
  Writer w;
  w.u16(kSecMeta);
  meta_fields(w, program_hash(program), system_fingerprint(system.config_));
  w.u16(kSecCpu);
  cpu_fields(w, system.state_);
  w.u16(kSecMem);
  pages_fields(w, system.memory_.pages_sorted());
  w.u16(kSecPipe);
  pipe_fields(w, pipeline.export_state(), pipeline.icache().export_state(),
              pipeline.dcache().export_state());
  w.u16(kSecPred);
  predictor_fields(w, system.predictor_.export_counters());
  w.u16(kSecRcache);
  rcache_fields(w, system.rcache_->counters(), system.rcache_->export_entries());
  w.u16(kSecXlate);
  translator_fields(w, system.translator_->export_state(), system.translator_->capture());
  w.u16(kSecStats);
  stats_fields(w, system.stats_);
  w.u16(kSecSys);
  latches_fields(w, system.latches_);
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

  // Every check runs before the first mutation, so a rejected snapshot
  // leaves the target as it was. Identity first: a snapshot only restores
  // into a system that would have produced it.
  if (d.program_hash != program_hash(program)) {
    throw SnapshotError(SnapErrc::kMismatch,
                        "snapshot was taken from a different program image");
  }
  if (d.system_fingerprint != system_fingerprint(system.config_)) {
    throw SnapshotError(SnapErrc::kMismatch,
                        "snapshot was taken under a different system configuration");
  }
  // Then the component checks (cache geometry, slot overflow, duplicate
  // PCs). The fingerprint matched, so a well-formed snapshot cannot trip
  // them: a rejection here is payload corruption.
  sim::PipelineModel& pipeline = system.pipeline_;
  try {
    pipeline.icache().check_state(d.icache);
    pipeline.dcache().check_state(d.dcache);
    system.rcache_->check_entries(d.rcache_entries);
  } catch (const std::invalid_argument& e) {
    throw SnapshotError(SnapErrc::kMalformed, e.what());
  }

  // Commit. The host-side caches (decoded words, superblock traces) are
  // architecture-invisible: they start empty, as in a new system, and
  // rebuild lazily.
  system.decode_cache_.clear();
  system.trace_cache_.clear();
  system.memory_.restore_pages(d.pages);
  system.state_ = std::move(d.cpu);
  pipeline.restore_state(d.pipe);
  pipeline.icache().restore_state(std::move(d.icache));
  pipeline.dcache().restore_state(std::move(d.dcache));
  system.predictor_.restore_counters(d.predictor);
  system.rcache_->restore(std::move(d.rcache_entries), d.rcache_counters);
  system.translator_->restore_state(d.xlate, std::move(d.capture));
  system.stats_ = d.stats;
  system.latches_ = d.latches;
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
  info.capture_in_flight = d.capture.has_value();
  if (d.capture) {
    info.capture_pc = d.capture->start_pc;
    info.capture_ops = static_cast<int>(d.capture->ops.size());
  }
  info.stats = d.stats;
  return info;
}

}  // namespace dim::snap
