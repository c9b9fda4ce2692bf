// The snapshot subsystem's contract (snap/snapshot.hpp):
//   1. Resume-equals-straight-run: checkpointing at any instruction
//      boundary and resuming in a fresh process-equivalent system yields
//      bit-identical statistics, architectural state, memory image and
//      observation event stream — on real workloads and on fuzz programs.
//   2. Round-trip stability: save -> restore -> save reproduces the bytes.
//   3. Malformed artifacts are rejected with the precise SnapErrc class,
//      never UB — pinned by a bit-flip/truncation fuzzer over valid files.
//   4. The serialized format is frozen by goldens: bytes may only change
//      together with a kFormatVersion bump (docs/persistence.md).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "accel/sweep.hpp"
#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "fuzz/generator.hpp"
#include "mem/memory.hpp"
#include "obs/event.hpp"
#include "serve/executor.hpp"
#include "serve/protocol.hpp"
#include "snap/codec.hpp"
#include "snap/io.hpp"
#include "snap/resultstore.hpp"
#include "snap/snapshot.hpp"
#include "work/workload.hpp"

namespace dim {
namespace {

// Long enough to fill the cache, speculate, extend and evict with the
// small test configuration below.
const char* kCheckpointProgram = R"(
        .data
arr:    .word 0
        .space 2048
        .text
main:   la $t0, arr
        li $t1, 400
        li $t2, 0
        li $t3, 0
loop:   sll $t4, $t3, 2
        andi $t4, $t4, 1023
        addu $t5, $t0, $t4
        lw $t6, 0($t5)
        addu $t6, $t6, $t3
        sw $t6, 0($t5)
        addu $t2, $t2, $t6
        addiu $t3, $t3, 1
        bne $t3, $t1, loop
        move $a0, $t2
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";

accel::SystemConfig small_config() {
  // Tiny cache so checkpoints land amid evictions and extensions too.
  return accel::SystemConfig::with(rra::ArrayShape::config2(), 8, true);
}

std::vector<uint8_t> stats_bytes(const accel::AccelStats& stats) {
  snap::Writer w;
  snap::stats_fields(w, stats);
  return w.take();
}

std::string events_text(const std::vector<obs::Event>& a,
                        const std::vector<obs::Event>& b = {}) {
  std::ostringstream out;
  obs::write_events_jsonl(out, a);
  obs::write_events_jsonl(out, b);
  return out.str();
}

// The oracle: straight run vs run-to-boundary + snapshot + restore + run.
// Every comparison is byte-level (serialized stats embed the final CPU
// state, program output and memory hash; the event stream carries the
// instruction/cycle stamps of every configuration-lifecycle event).
void expect_resume_equals_straight(const asmblr::Program& program,
                                   const accel::SystemConfig& config,
                                   uint64_t boundary) {
  obs::RecordingSink straight_sink;
  accel::SystemConfig straight_cfg = config;
  straight_cfg.event_sink = &straight_sink;
  accel::AcceleratedSystem straight(program, straight_cfg);
  const accel::AccelStats want = straight.run();

  obs::RecordingSink first_sink;
  accel::SystemConfig first_cfg = config;
  first_cfg.event_sink = &first_sink;
  std::stringstream file;
  uint64_t at_checkpoint = 0;
  {
    accel::AcceleratedSystem first(program, first_cfg);
    at_checkpoint = first.run_until(boundary).instructions;
    snap::save_snapshot(file, first, program);
  }

  obs::RecordingSink second_sink;
  accel::SystemConfig second_cfg = config;
  second_cfg.event_sink = &second_sink;
  accel::AcceleratedSystem second(program, second_cfg);
  snap::restore_snapshot(second, file, program);
  ASSERT_EQ(second.stats().instructions, at_checkpoint);
  const accel::AccelStats got = second.run();

  EXPECT_EQ(stats_bytes(want), stats_bytes(got)) << "boundary " << boundary;
  EXPECT_EQ(want.final_state.reg_hash(), got.final_state.reg_hash());
  EXPECT_EQ(want.final_state.output, got.final_state.output);
  EXPECT_EQ(want.memory_hash, got.memory_hash);
  EXPECT_EQ(events_text(straight_sink.events()),
            events_text(first_sink.events(), second_sink.events()))
      << "boundary " << boundary;
}

TEST(Snapshot, ResumeMatchesStraightRunAcrossBoundaries) {
  const auto program = asmblr::assemble(kCheckpointProgram);
  const accel::AccelStats full = accel::run_accelerated(program, small_config());
  ASSERT_GT(full.instructions, 100u);
  // Boundaries scattered over the run, including 0 (restore before any
  // work) and one past the end (checkpoint of a halted system).
  for (uint64_t boundary :
       {uint64_t{0}, uint64_t{1}, full.instructions / 7, full.instructions / 3,
        full.instructions / 2, full.instructions - 1, full.instructions + 5}) {
    expect_resume_equals_straight(program, small_config(), boundary);
  }
}

TEST(Snapshot, ResumeMatchesStraightRunOnRealPrograms) {
  // Three real workloads from the paper's benchmark set, checkpointed at
  // an early, a middle and a late boundary each.
  for (const char* name : {"crc32", "quicksort", "bitcount"}) {
    const work::Workload wl = work::make_workload(name);
    const auto program = asmblr::assemble(wl.source);
    const accel::AccelStats full = accel::run_accelerated(program, small_config());
    for (uint64_t boundary :
         {full.instructions / 5, full.instructions / 2, (full.instructions * 9) / 10}) {
      expect_resume_equals_straight(program, small_config(), boundary);
    }
  }
}

TEST(Snapshot, ResumeMatchesStraightRunWithPredicationOn) {
  // If-conversion on: checkpoints land inside hammock skip windows and on
  // configurations carrying predicate slots, so the pred op fields and the
  // translator's skip latches must round-trip.
  const char* diamond = R"(
        .data
buf:    .space 64
        .text
main:   li $s0, 250
        li $s1, 0
        li $s2, 0
        la $s4, buf
loop:   andi $t0, $s2, 1
        addu $t1, $s1, $s2
        bnez $t0, odd
        addiu $s1, $s1, 1
        sw $s1, 0($s4)
        b join
odd:    addiu $s1, $s1, 2
join:   addiu $s2, $s2, 1
        bne $s2, $s0, loop
        move $a0, $s1
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";
  const auto program = asmblr::assemble(diamond);
  accel::SystemConfig cfg = small_config();
  cfg.speculation = false;  // force the if-conversion path on the hammock
  cfg.predication = true;
  const accel::AccelStats full = accel::run_accelerated(program, cfg);
  ASSERT_GT(full.hammocks_merged, 0u) << "test program must if-convert";
  for (uint64_t boundary :
       {uint64_t{1}, full.instructions / 7, full.instructions / 3,
        full.instructions / 2, full.instructions - 1}) {
    expect_resume_equals_straight(program, cfg, boundary);
  }
}

TEST(Snapshot, ResumeMatchesStraightRunWithResidencyLatched) {
  // Residency on, with a loop whose config closes at its own head (see
  // tests/test_obs.cpp): checkpoints land while the residency latch is
  // live, so the latch fields must round-trip byte-exactly.
  const char* resident_loop = R"(
main:   li $s1, 300
loop:   addiu $s1, $s1, -1
        addiu $s1, $s1, 0
        addiu $s1, $s1, 0
        addiu $s1, $s1, 0
        bnez $s1, loop
        move $a0, $s1
        li $v0, 1
        syscall
        li $v0, 10
        syscall
)";
  const auto program = asmblr::assemble(resident_loop);
  accel::SystemConfig cfg =
      accel::SystemConfig::with(rra::ArrayShape{5, 1, 1, 1}, 8, true);
  cfg.residency = true;
  const accel::AccelStats full = accel::run_accelerated(program, cfg);
  ASSERT_GT(full.residency_hits, 0u) << "test program must latch the loop";
  for (uint64_t boundary :
       {full.instructions / 5, full.instructions / 2, (full.instructions * 9) / 10}) {
    expect_resume_equals_straight(program, cfg, boundary);
  }
}

TEST(Snapshot, SaveRestoreSaveIsByteStable) {
  // The format goldens run with caches off, no predication and no
  // residency, so each point here brings other latches into the payload.
  // The FNV-1a pins fix those bytes: a change to any of them needs a
  // kFormatVersion bump, as for the goldens.
  struct Point {
    const char* what;
    const char* workload;  // null: kCheckpointProgram
    accel::SystemConfig config;
    uint64_t boundary;
    uint64_t payload_fnv;
  };
  const accel::SystemConfig base = small_config();
  accel::SystemConfig hammock = base;
  hammock.speculation = false;
  hammock.predication = true;
  accel::SystemConfig resident = base;
  resident.residency = true;
  accel::SystemConfig caches = base;
  caches.machine.timing.icache.enabled = true;
  caches.machine.timing.dcache.enabled = true;
  accel::SystemConfig dual = base;
  dual.machine.timing.issue_width = 2;
  accel::SystemConfig lru = base;
  lru.cache_replacement = bt::Replacement::kLru;
  lru.cache_slots = 4;
  const Point points[] = {
      {"small cache, speculation", nullptr, base, 500, 0x016acb911e9f507aull},
      {"in-flight hammock skip window", "gsm_e", hammock, 2994, 0x019ae012de240833ull},
      {"live residency latch", "crc32", resident, 2000, 0x248fdea0750f0b39ull},
      {"I/D-cache tags", "crc32", caches, 2000, 0xef5ede24184d1dcdull},
      {"open dual-issue slot, capture in flight", "bitcount", dual, 1026,
       0xf0b8c84c3593c2baull},
      {"LRU order unlike insertion order", "gsm_e", lru, 5000, 0xf77de27bd0c2ee7full},
  };
  for (const Point& p : points) {
    SCOPED_TRACE(p.what);
    const auto program = asmblr::assemble(
        p.workload != nullptr ? work::make_workload(p.workload).source : kCheckpointProgram);
    accel::AcceleratedSystem a(program, p.config);
    a.run_until(p.boundary);
    const std::vector<uint8_t> payload = snap::encode_snapshot(a, program);
    EXPECT_EQ(snap::fnv1a64(payload), p.payload_fnv);

    accel::AcceleratedSystem b(program, p.config);
    snap::restore_snapshot_payload(b, payload, program);
    EXPECT_EQ(payload, snap::encode_snapshot(b, program));
  }
}

// A crc32 checkpoint (C#2, 8 slots, speculation, 20,000 instructions)
// whose second rcache entry is replaced by a copy of the first: every
// section parses, but no cache holds one start PC twice.
struct DuplicateEntryCheckpoint {
  asmblr::Program program = asmblr::assemble(work::make_workload("crc32").source);
  accel::SystemConfig config = accel::SystemConfig::with(rra::ArrayShape::config2(), 8, true);
  std::vector<uint8_t> payload;

  DuplicateEntryCheckpoint() {
    accel::AcceleratedSystem sys(program, config);
    sys.run_until(20000);
    const std::vector<uint8_t> good = snap::encode_snapshot(sys, program);
    std::vector<rra::Configuration> entries = sys.rcache().export_entries();
    snap::Writer before;
    snap::configurations_fields(before, entries);
    entries.at(1) = entries.at(0);
    snap::Writer after;
    snap::configurations_fields(after, entries);
    const auto at = std::search(good.begin(), good.end(), before.bytes().begin(),
                                before.bytes().end());
    EXPECT_NE(at, good.end());
    payload.assign(good.begin(), at);
    payload.insert(payload.end(), after.bytes().begin(), after.bytes().end());
    payload.insert(payload.end(), at + static_cast<std::ptrdiff_t>(before.bytes().size()),
                   good.end());
  }
};

TEST(Snapshot, RejectedRestoreLeavesTheTargetUnchanged) {
  const DuplicateEntryCheckpoint bad;
  accel::AcceleratedSystem target(bad.program, bad.config);
  target.run_until(7000);
  const std::vector<uint8_t> before = snap::encode_snapshot(target, bad.program);
  try {
    snap::restore_snapshot_payload(target, bad.payload, bad.program);
    FAIL() << "duplicate rcache entry accepted";
  } catch (const snap::SnapshotError& e) {
    EXPECT_EQ(e.code(), snap::SnapErrc::kMalformed);
  }
  EXPECT_EQ(snap::encode_snapshot(target, bad.program), before);
}

TEST(Snapshot, ServeStartsColdAfterARejectedCheckpoint) {
  // A budgeted serve run whose migration checkpoint is a valid container
  // holding an unrestorable payload answers what a run without one does.
  const DuplicateEntryCheckpoint bad;
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "dimsim-rejected-checkpoint").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string checkpoint = dir + "/job-1.snap";
  snap::write_artifact_file(checkpoint, snap::ArtifactKind::kSnapshot, bad.payload);

  const auto answer = [](const std::string& checkpoint_path) {
    serve::Executor executor("", 1, 4096);
    serve::Executor::Job job;
    job.request = serve::parse_request(
                      R"({"id": 1, "kind": "run", "workload": "crc32", "shape": "config2", )"
                      R"("slots": 8, "budget": 100000})")
                      .request;
    std::string out;
    job.respond = [&out](std::string line) { out = std::move(line); };
    job.checkpoint_path = checkpoint_path;
    executor.run({job});
    return out;
  };
  const std::string cold = answer("");
  EXPECT_NE(cold.find("\"hit_budget\": true"), std::string::npos) << cold;
  EXPECT_EQ(answer(checkpoint), cold);
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, InspectReportsTheSavedState) {
  const auto program = asmblr::assemble(kCheckpointProgram);
  accel::AcceleratedSystem sys(program, small_config());
  const accel::AccelStats at = sys.run_until(800);
  const std::vector<uint8_t> payload = snap::encode_snapshot(sys, program);

  const snap::SnapshotInfo info = snap::inspect_snapshot(payload);
  EXPECT_EQ(info.program_hash, snap::program_hash(program));
  EXPECT_EQ(info.stats.instructions, at.instructions);
  EXPECT_EQ(info.rcache_entries.size(), sys.rcache().size());
  EXPECT_EQ(info.rcache_counters.hits, sys.rcache().hits());
  EXPECT_EQ(info.predictor_branches, sys.predictor().tracked_branches());
  EXPECT_FALSE(info.cpu.halted);
  // Entry order is the eviction order.
  const std::vector<uint32_t> order = sys.rcache().fifo_order();
  ASSERT_EQ(info.rcache_entries.size(), order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(info.rcache_entries[i].start_pc, order[i]);
  }
}

TEST(Snapshot, RestoreIntoDifferentProgramOrConfigIsRejected) {
  const auto program = asmblr::assemble(kCheckpointProgram);
  accel::AcceleratedSystem sys(program, small_config());
  sys.run_until(200);
  const std::vector<uint8_t> payload = snap::encode_snapshot(sys, program);

  // Different program image.
  const auto other = asmblr::assemble(work::make_workload("bitcount").source);
  accel::AcceleratedSystem wrong_prog(other, small_config());
  try {
    snap::restore_snapshot_payload(wrong_prog, payload, other);
    FAIL() << "mismatched program accepted";
  } catch (const snap::SnapshotError& e) {
    EXPECT_EQ(e.code(), snap::SnapErrc::kMismatch);
  }

  // Same program, different configuration.
  accel::SystemConfig cfg = small_config();
  cfg.speculation = false;
  accel::AcceleratedSystem wrong_cfg(program, cfg);
  try {
    snap::restore_snapshot_payload(wrong_cfg, payload, program);
    FAIL() << "mismatched configuration accepted";
  } catch (const snap::SnapshotError& e) {
    EXPECT_EQ(e.code(), snap::SnapErrc::kMismatch);
  }
}

TEST(Snapshot, LoaderRejectsEachCorruptionClassDistinctly) {
  const auto program = asmblr::assemble(kCheckpointProgram);
  accel::AcceleratedSystem sys(program, small_config());
  sys.run_until(200);
  std::stringstream file;
  snap::save_snapshot(file, sys, program);
  const std::string good = file.str();

  const auto code_of = [&](std::string bytes) {
    std::istringstream in(bytes);
    accel::AcceleratedSystem target(program, small_config());
    try {
      snap::restore_snapshot(target, in, program);
    } catch (const snap::SnapshotError& e) {
      return e.code();
    }
    ADD_FAILURE() << "corrupt container accepted";
    return snap::SnapErrc::kIo;
  };

  {  // empty / truncated header
    EXPECT_EQ(code_of(""), snap::SnapErrc::kTruncated);
    EXPECT_EQ(code_of(good.substr(0, 3)), snap::SnapErrc::kTruncated);
    EXPECT_EQ(code_of(good.substr(0, 12)), snap::SnapErrc::kTruncated);
  }
  {  // bad magic
    std::string bytes = good;
    bytes[0] ^= 0x40;
    EXPECT_EQ(code_of(bytes), snap::SnapErrc::kBadMagic);
  }
  {  // future format version
    std::string bytes = good;
    bytes[4] = static_cast<char>(snap::kFormatVersion + 1);
    EXPECT_EQ(code_of(bytes), snap::SnapErrc::kBadVersion);
  }
  {  // truncated payload
    EXPECT_EQ(code_of(good.substr(0, good.size() - 7)), snap::SnapErrc::kTruncated);
  }
  {  // payload bit rot
    std::string bytes = good;
    bytes[good.size() / 2] ^= 0x01;
    EXPECT_EQ(code_of(bytes), snap::SnapErrc::kCrcMismatch);
  }
  {  // valid container of the wrong artifact kind: the same payload framed
     // as a result cell, so only the header's kind field differs
    std::stringstream cell;
    snap::write_container(cell, snap::ArtifactKind::kResultCell,
                          snap::encode_snapshot(sys, program));
    EXPECT_EQ(code_of(cell.str()), snap::SnapErrc::kMismatch);
  }
}

// Bit-flip/truncation fuzz over a valid snapshot: whatever the corruption,
// the loader must either succeed or throw SnapshotError — never crash,
// never throw anything else, never allocate absurdly. Catching by precise
// type means an std::bad_alloc or std::length_error from a fuzzed count
// fails the test.
TEST(SnapshotFuzz, LoaderSurvivesBitFlipsAndTruncation) {
  const auto program = asmblr::assemble(kCheckpointProgram);
  accel::AcceleratedSystem sys(program, small_config());
  sys.run_until(700);
  std::stringstream file;
  snap::save_snapshot(file, sys, program);
  const std::string good = file.str();

  fuzz::Rng rng(0xD1345EEDull);
  const int iterations = fuzz::seed_budget(300);
  int rejected = 0;
  for (int i = 0; i < iterations; ++i) {
    std::string bytes = good;
    // 1..4 corruptions: single-bit flips, byte rewrites, or a truncation.
    const int edits = 1 + static_cast<int>(rng.next() % 4);
    for (int e = 0; e < edits; ++e) {
      if (bytes.empty()) break;
      const size_t pos = rng.next() % bytes.size();
      switch (rng.next() % 3) {
        case 0: bytes[pos] ^= static_cast<char>(1u << (rng.next() % 8)); break;
        case 1: bytes[pos] = static_cast<char>(rng.next()); break;
        default: bytes.resize(pos); break;
      }
    }
    std::istringstream in(bytes);
    accel::AcceleratedSystem target(program, small_config());
    try {
      snap::restore_snapshot(target, in, program);
      // A corruption the CRC caught-and-matched by chance (or that only
      // touched ignored trailing file bytes) may legitimately restore.
    } catch (const snap::SnapshotError&) {
      ++rejected;
    }
    // Anything else escapes and fails the test.
  }
  EXPECT_GT(rejected, iterations / 2);  // sanity: the fuzz did corrupt
}

// Payload fuzz. The container CRC rejects nearly every edit of the test
// above before a decoder runs, so here edited payloads go straight to the
// decoders: snapshot restore and result-cell load (the cell re-framed
// with a valid CRC). Whatever the edit, a decoder must succeed or throw
// SnapshotError, a system that accepted an edited payload must run on,
// and each decoder must reject at least one edit as kMalformed. Snapshot
// edits stay out of the memory pages, which take any bytes and make up
// most of the payload; cell edits stay out of the key, so every cell the
// store discards was rejected by the decoder.

// Applies 1..4 edits (bit flip, byte rewrite, truncation) at offsets in
// [from, skip_lo) and [skip_hi, size).
std::vector<uint8_t> edited(std::vector<uint8_t> bytes, fuzz::Rng& rng, size_t from,
                            size_t skip_lo, size_t skip_hi) {
  const size_t size = bytes.size();
  const size_t head = skip_lo - from;
  const int edits = 1 + static_cast<int>(rng.next() % 4);
  for (int e = 0; e < edits; ++e) {
    const size_t k = rng.next() % (head + size - skip_hi);
    const size_t pos = k < head ? from + k : skip_hi + (k - head);
    if (pos >= bytes.size()) continue;  // an earlier edit truncated it away
    switch (rng.next() % 3) {
      case 0: bytes[pos] ^= static_cast<uint8_t>(1u << (rng.next() % 8)); break;
      case 1: bytes[pos] = static_cast<uint8_t>(rng.next()); break;
      default: bytes.resize(pos); break;
    }
  }
  return bytes;
}

// Offsets [begin, end) of the memory pages in a snapshot payload.
std::pair<size_t, size_t> page_bytes(const std::vector<uint8_t>& payload) {
  snap::Reader r(payload);
  r.u16();  // meta: program hash, system fingerprint
  r.u64();
  r.u64();
  r.u16();  // cpu
  sim::CpuState cpu;
  snap::cpu_fields(r, cpu);
  r.u16();  // mem: page count, then the pages
  const uint64_t pages = r.u64();
  const size_t begin = payload.size() - r.remaining();
  return {begin, begin + pages * (4 + mem::Memory::kPageSize)};
}

TEST(SnapshotFuzz, DecodersSurviveEditedPayloads) {
  struct Case {
    asmblr::Program program;
    accel::SystemConfig config;
    uint64_t boundary;
  };
  accel::SystemConfig elastic = small_config();
  elastic.predication = true;
  elastic.exec_mode.mode = rra::ExecMode::kElastic;
  const Case cases[] = {
      {asmblr::assemble(kCheckpointProgram), small_config(), 700},
      {asmblr::assemble(work::make_workload("crc32").source), elastic, 30000},
  };
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "dimsim-decoder-fuzz").string();
  std::filesystem::remove_all(dir);
  snap::ResultStore store(dir);

  fuzz::Rng rng(0xDEC0DE5ull);
  const int iterations = fuzz::seed_budget(200);
  int malformed_snap = 0;
  int accepted = 0;
  for (const Case& c : cases) {
    accel::AcceleratedSystem mid(c.program, c.config);
    mid.run_until(c.boundary);
    const std::vector<uint8_t> snapshot = snap::encode_snapshot(mid, c.program);
    const auto [pages_begin, pages_end] = page_bytes(snapshot);

    for (int i = 0; i < iterations; ++i) {
      accel::AcceleratedSystem target(c.program, c.config);
      try {
        snap::restore_snapshot_payload(
            target, edited(snapshot, rng, 0, pages_begin, pages_end), c.program);
        target.run_until(target.stats().instructions + 2000);
        ++accepted;
      } catch (const snap::SnapshotError& e) {
        malformed_snap += e.code() == snap::SnapErrc::kMalformed;
      }
    }

    accel::SweepPoint point;
    point.program = &c.program;
    point.config = c.config;
    point.run_baseline = true;
    accel::SweepOptions opts;
    opts.threads = 1;
    opts.collect_profiles = true;
    opts.result_cache = &store;
    accel::SweepEngine(opts).run({point});
    const std::string cell = store.cell_path(snap::ResultStore::cell_key(point, true));
    const std::vector<uint8_t> good = snap::read_artifact_file(cell, snap::ArtifactKind::kResultCell);
    for (int i = 0; i < iterations; ++i) {
      snap::write_artifact_file(cell, snap::ArtifactKind::kResultCell,
                                edited(good, rng, 8, good.size(), good.size()));
      accel::SweepResult out;
      accepted += store.load(point, true, out);
    }
  }
  EXPECT_GT(malformed_snap, 0);
  EXPECT_GT(store.counters().corrupt_discards, 0u);
  EXPECT_GT(accepted, 0);  // some edits decode: the run-on path is exercised
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Resume oracle over generated programs: branches, nested loops, aliasing
// stores, speculation bait — checkpointed mid-run, including mid-capture.
TEST(SnapshotFuzz, ResumeMatchesStraightRunOnGeneratedPrograms) {
  const int seeds = fuzz::seed_budget(24);
  int checked = 0;
  for (int seed = 1; checked < seeds && seed < seeds * 4; ++seed) {
    const fuzz::FuzzProgram fp = fuzz::generate_program(static_cast<uint64_t>(seed));
    asmblr::Program program;
    try {
      program = asmblr::assemble(fp.render());
    } catch (const asmblr::AsmError&) {
      continue;  // generator emitted something our subset rejects; skip
    }
    const accel::AccelStats full = accel::run_accelerated(program, small_config());
    if (full.instructions < 20) continue;  // too short to checkpoint meaningfully
    fuzz::Rng rng(static_cast<uint64_t>(seed) * 0x9E3779B9u);
    const uint64_t boundary = 1 + rng.next() % (full.instructions - 1);
    expect_resume_equals_straight(program, small_config(), boundary);
    ++checked;
  }
  EXPECT_GE(checked, (seeds * 5) / 6) << "generator produced too few usable programs";
}

// ---------------------------------------------------------------------------
// Format goldens: the serialized bytes of a fixed recipe are committed to
// tests/data/. If this test fails after an intentional format change, bump
// snap::kFormatVersion and regenerate with DIMSIM_REGEN_GOLDENS=1.
std::string golden_path(const char* name) {
  return std::string(DIMSIM_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with DIMSIM_REGEN_GOLDENS=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void check_golden(const char* name, const std::string& produced) {
  if (std::getenv("DIMSIM_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(golden_path(name), std::ios::binary);
    out << produced;
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path(name);
    return;
  }
  const std::string golden = read_file(golden_path(name));
  if (golden.empty()) return;  // read_file already failed the test
  ASSERT_GE(golden.size(), size_t{6});
  const uint16_t golden_version =
      static_cast<uint16_t>(static_cast<uint8_t>(golden[4]) |
                            (static_cast<uint16_t>(static_cast<uint8_t>(golden[5])) << 8));
  if (golden_version == snap::kFormatVersion) {
    // Same declared version => the bytes must not have drifted. A diff
    // here means the format changed without a version bump.
    EXPECT_EQ(golden, produced)
        << name << ": serialized format changed under unchanged "
        << "kFormatVersion — bump snap::kFormatVersion and regenerate";
  } else {
    // The tree moved to a new version: the old-version golden must be
    // rejected as such, which is the compatibility story for old files.
    std::istringstream in(golden);
    try {
      snap::read_container(in, snap::ArtifactKind::kSnapshot);
      FAIL() << name << ": old-version artifact accepted";
    } catch (const snap::SnapshotError& e) {
      EXPECT_EQ(e.code(), snap::SnapErrc::kBadVersion);
    }
  }
}

TEST(SnapshotGolden, FormatFrozenUntilVersionBump) {
  const auto program = asmblr::assemble(kCheckpointProgram);

  accel::AcceleratedSystem mid(program, small_config());
  mid.run_until(300);
  std::stringstream snap_file;
  snap::save_snapshot(snap_file, mid, program);
  check_golden("golden.snap", snap_file.str());
}

// Kind 2 was the retired rcache warm-start file, and tests/data/golden.warm
// is one. Every reader rejects it as an unknown kind; the result store,
// which never fails a load, counts it as a corrupt cell and misses.
TEST(SnapshotGolden, RetiredWarmStartFileIsRejected) {
  const std::string path = golden_path("golden.warm");
  const auto expect_unknown_kind = [](const auto& read) {
    try {
      read();
      ADD_FAILURE() << "artifact kind 2 accepted";
    } catch (const snap::SnapshotError& e) {
      EXPECT_EQ(e.code(), snap::SnapErrc::kMalformed);
      EXPECT_NE(std::string(e.what()).find("unknown artifact kind 2"), std::string::npos)
          << e.what();
    }
  };
  expect_unknown_kind([&] {
    snap::ArtifactKind kind;
    snap::read_artifact_file(path, &kind);
  });

  const auto program = asmblr::assemble(kCheckpointProgram);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  accel::AcceleratedSystem target(program, small_config());
  expect_unknown_kind([&] { snap::restore_snapshot(target, in, program); });

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "dimsim-retired-kind").string();
  std::filesystem::remove_all(dir);
  snap::ResultStore store(dir);
  accel::SweepPoint point;
  point.program = &program;
  point.config = small_config();
  std::filesystem::copy_file(path, store.cell_path(snap::ResultStore::cell_key(point, false)));
  accel::SweepResult out;
  EXPECT_FALSE(store.load(point, false, out));
  EXPECT_EQ(store.counters().corrupt_discards, 1u);
  EXPECT_EQ(store.counters().misses, 1u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Cross-process migration oracle: the serving pool's crash-migration path
// (src/serve/supervisor.hpp) restores a checkpoint in a *different process*
// than the one that wrote it. The in-process resume tests above can't catch
// state that accidentally rides along in process globals, so this one
// snapshots at a run_until boundary, fork-execs a fresh copy of this test
// binary to restore and finish the run, and compares its serialized stats
// and event stream against a straight run byte-for-byte.

// The child half: runs only when fork-exec'd by the parent test below
// (gtest otherwise reports it as skipped). Restores the snapshot named in
// the environment, runs to completion, and writes the serialized stats and
// the JSONL event text for the parent to diff.
TEST(SnapshotMigration, ChildResume) {
  const char* snap_path = std::getenv("DIMSIM_MIGRATE_SNAPSHOT");
  const char* out_base = std::getenv("DIMSIM_MIGRATE_OUT");
  if (snap_path == nullptr || out_base == nullptr) {
    GTEST_SKIP() << "helper: runs only as the fork-exec'd migration child";
  }
  const auto program = asmblr::assemble(kCheckpointProgram);
  obs::RecordingSink sink;
  accel::SystemConfig cfg = small_config();
  cfg.event_sink = &sink;
  accel::AcceleratedSystem system(program, cfg);
  std::ifstream in(snap_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << snap_path;
  snap::restore_snapshot(system, in, program);
  const accel::AccelStats got = system.run();

  const std::vector<uint8_t> bytes = stats_bytes(got);
  std::ofstream stats_out(std::string(out_base) + ".stats", std::ios::binary);
  stats_out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(stats_out.good());
  std::ofstream events_out(std::string(out_base) + ".events", std::ios::binary);
  events_out << events_text(sink.events());
  ASSERT_TRUE(events_out.good());
}

TEST(SnapshotMigration, CrossProcessResumeMatchesStraightRun) {
  const auto program = asmblr::assemble(kCheckpointProgram);

  obs::RecordingSink straight_sink;
  accel::SystemConfig straight_cfg = small_config();
  straight_cfg.event_sink = &straight_sink;
  accel::AcceleratedSystem straight(program, straight_cfg);
  const accel::AccelStats want = straight.run();
  ASSERT_GT(want.instructions, 100u);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "dimsim-migrate-oracle").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string snap_path = dir + "/checkpoint.snap";
  const std::string out_base = dir + "/resumed";

  obs::RecordingSink first_sink;
  accel::SystemConfig first_cfg = small_config();
  first_cfg.event_sink = &first_sink;
  {
    accel::AcceleratedSystem first(program, first_cfg);
    first.run_until(want.instructions / 2);
    std::ofstream out(snap_path, std::ios::binary);
    snap::save_snapshot(out, first, program);
    ASSERT_TRUE(out.good());
  }

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv("DIMSIM_MIGRATE_SNAPSHOT", snap_path.c_str(), 1);
    ::setenv("DIMSIM_MIGRATE_OUT", out_base.c_str(), 1);
    ::execl("/proc/self/exe", "dimsim_tests",
            "--gtest_filter=SnapshotMigration.ChildResume",
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status))
      << "migration child died with signal " << WTERMSIG(status);
  ASSERT_EQ(WEXITSTATUS(status), 0) << "migration child's assertions failed";

  const std::vector<uint8_t> want_bytes = stats_bytes(want);
  EXPECT_EQ(read_file(out_base + ".stats"),
            std::string(want_bytes.begin(), want_bytes.end()));
  EXPECT_EQ(events_text(straight_sink.events()),
            events_text(first_sink.events()) + read_file(out_base + ".events"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dim
