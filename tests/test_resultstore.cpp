// Content-addressed result store (snap/resultstore.hpp): sweeps are
// byte-identical with the store disabled, cold, warm, or shared across
// thread counts; a warm store performs zero simulations; corrupt cells are
// discarded and recomputed, never propagated.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "accel/sweep.hpp"
#include "asm/assembler.hpp"
#include "rra/array_shape.hpp"
#include "snap/format.hpp"
#include "snap/resultstore.hpp"
#include "work/workload.hpp"

namespace dim {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("dimsim-" + name);
  fs::remove_all(dir);
  return dir.string();
}

struct Grid {
  std::vector<asmblr::Program> programs;  // stable addresses for the points
  std::vector<accel::SweepPoint> points;
};

// 2 workloads x 2 configurations, every point with a worker-computed
// baseline — small enough for a unit test, rich enough that cells differ.
Grid small_grid() {
  Grid g;
  g.programs.reserve(2);
  for (const char* name : {"crc32", "bitcount"}) {
    g.programs.push_back(asmblr::assemble(work::make_workload(name).source));
  }
  const accel::SystemConfig cfgs[2] = {
      accel::SystemConfig::with(rra::ArrayShape::config1(), 8, false),
      accel::SystemConfig::with(rra::ArrayShape::config2(), 16, true)};
  for (size_t w = 0; w < g.programs.size(); ++w) {
    for (int c = 0; c < 2; ++c) {
      accel::SweepPoint p;
      p.label = std::string(w == 0 ? "crc32" : "bitcount") + "/C" + std::to_string(c + 1);
      p.program = &g.programs[w];
      p.config = cfgs[c];
      p.run_baseline = true;
      g.points.push_back(p);
    }
  }
  return g;
}

std::string sweep_json(const std::vector<accel::SweepResult>& results) {
  std::ostringstream out;
  accel::write_sweep_json(out, results);
  return out.str();
}

std::vector<accel::SweepResult> run_grid(const Grid& g, unsigned threads,
                                         accel::ResultCache* cache) {
  accel::SweepOptions opts;
  opts.threads = threads;
  opts.collect_profiles = true;
  opts.result_cache = cache;
  return accel::SweepEngine(opts).run(g.points);
}

TEST(ResultStore, MemoizedSweepIsByteIdenticalAcrossStoreStatesAndThreads) {
  const Grid g = small_grid();
  const std::string want = sweep_json(run_grid(g, 1, nullptr));
  const std::string dir = fresh_dir("resultstore-identity");

  {  // Cold store: every point is a miss, computed, and written back.
    snap::ResultStore store(dir);
    EXPECT_EQ(sweep_json(run_grid(g, 2, &store)), want);
    const auto c = store.counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, g.points.size());
    EXPECT_EQ(c.stores, g.points.size());
  }
  {  // Warm store, serial: zero simulations, same bytes.
    snap::ResultStore store(dir);
    EXPECT_EQ(sweep_json(run_grid(g, 1, &store)), want);
    const auto c = store.counters();
    EXPECT_EQ(c.hits, g.points.size());
    EXPECT_EQ(c.misses, 0u);
    EXPECT_EQ(c.stores, 0u);
  }
  {  // Warm store, multi-threaded: same bytes again.
    snap::ResultStore store(dir);
    EXPECT_EQ(sweep_json(run_grid(g, 4, &store)), want);
    EXPECT_EQ(store.counters().hits, g.points.size());
  }
}

TEST(ResultStore, CorruptCellIsDiscardedRecomputedAndRepaired) {
  const Grid g = small_grid();
  const std::string want = sweep_json(run_grid(g, 1, nullptr));
  const std::string dir = fresh_dir("resultstore-corrupt");
  {
    snap::ResultStore store(dir);
    run_grid(g, 1, &store);
  }

  // Corrupt one cell with bit rot and truncate another to nothing.
  std::vector<fs::path> cells;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".cell") cells.push_back(entry.path());
  }
  ASSERT_EQ(cells.size(), g.points.size());
  {
    std::fstream f(cells[0], std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    f.seekg(size / 2);
    char b = 0;
    f.read(&b, 1);
    f.seekp(size / 2);
    b = static_cast<char>(b ^ 0x5A);  // flip bits so the CRC must trip
    f.write(&b, 1);
  }
  std::ofstream(cells[1], std::ios::binary | std::ios::trunc).close();

  snap::ResultStore store(dir);
  EXPECT_EQ(sweep_json(run_grid(g, 1, &store)), want);
  auto c = store.counters();
  EXPECT_EQ(c.corrupt_discards, 2u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.hits, g.points.size() - 2);
  EXPECT_EQ(c.stores, 2u);  // the bad cells were recomputed and repaired

  // After the repair the store is fully warm again.
  snap::ResultStore repaired(dir);
  EXPECT_EQ(sweep_json(run_grid(g, 1, &repaired)), want);
  EXPECT_EQ(repaired.counters().hits, g.points.size());
  EXPECT_EQ(repaired.counters().corrupt_discards, 0u);
}

TEST(ResultStore, CellKeyCoversBehaviorNotPresentation) {
  const Grid g = small_grid();
  accel::SweepPoint a = g.points[0];
  accel::SweepPoint b = a;
  b.label = "renamed";  // presentation only
  EXPECT_EQ(snap::ResultStore::cell_key(a, true), snap::ResultStore::cell_key(b, true));

  accel::SweepPoint c = a;
  c.config.speculation = !c.config.speculation;  // behavior
  EXPECT_NE(snap::ResultStore::cell_key(a, true), snap::ResultStore::cell_key(c, true));

  accel::SweepPoint d = g.points[2];  // different program
  EXPECT_NE(snap::ResultStore::cell_key(a, true), snap::ResultStore::cell_key(d, true));

  // Profile collection changes what the cell carries.
  EXPECT_NE(snap::ResultStore::cell_key(a, true), snap::ResultStore::cell_key(a, false));

  // A worker-computed baseline is part of the cell; a live baseline
  // pointer is supplied by the caller and must not alias with it.
  accel::AccelStats live;
  accel::SweepPoint e = a;
  e.baseline = &live;
  EXPECT_NE(snap::ResultStore::cell_key(a, true), snap::ResultStore::cell_key(e, true));
}

TEST(ResultStore, LiveBaselineIsReattachedOnHit) {
  Grid g = small_grid();
  // Precompute one workload's baseline and share it, the sweep-grid idiom
  // bench_util uses.
  const accel::AccelStats shared =
      accel::baseline_as_stats(g.programs[0], sim::MachineConfig{});
  g.points.resize(1);
  g.points[0].baseline = &shared;
  g.points[0].run_baseline = true;

  const std::string dir = fresh_dir("resultstore-baseline");
  const std::string want = sweep_json(run_grid(g, 1, nullptr));
  {
    snap::ResultStore store(dir);
    EXPECT_EQ(sweep_json(run_grid(g, 1, &store)), want);
  }
  snap::ResultStore store(dir);
  const auto results = run_grid(g, 1, &store);
  EXPECT_EQ(store.counters().hits, 1u);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].has_baseline);
  EXPECT_EQ(results[0].baseline.cycles, shared.cycles);
  EXPECT_TRUE(results[0].transparent);
  EXPECT_EQ(sweep_json(results), want);
}

// A translator fault whose only trace is one register: the subu result is
// neither printed nor stored, so output and memory agree and only the
// register file tells the runs apart. The sweep and a reload of the same
// point from the store must both report it.
TEST(ResultStore, RegisterOnlyDivergenceIsNotTransparent) {
  const asmblr::Program program = asmblr::assemble(R"(
main:   li $s0, 0
        li $s1, 200
        li $s2, 7
loop:   subu $t0, $s2, $s0
        addiu $s0, $s0, 1
        addu $t1, $s0, $s1
        addu $t2, $t1, $s2
        xor $t3, $t2, $s0
        bne $s0, $s1, loop
        li $v0, 10
        syscall
)");
  accel::SystemConfig config = accel::SystemConfig::with(rra::ArrayShape::config2(), 64, false);
  config.fault = bt::FaultInjection::kSubuSwapOperands;
  const accel::AccelStats live_baseline = accel::baseline_as_stats(program, config.machine);

  accel::SweepPoint carried;  // the cell carries the baseline
  carried.label = "carried";
  carried.program = &program;
  carried.config = config;
  carried.run_baseline = true;
  accel::SweepPoint live = carried;  // the baseline is re-attached on load
  live.label = "live";
  live.baseline = &live_baseline;
  live.run_baseline = false;

  const std::string dir = fresh_dir("resultstore-register-only");
  snap::ResultStore store(dir);
  accel::SweepOptions opts;
  opts.threads = 1;
  opts.result_cache = &store;
  for (int pass = 0; pass < 2; ++pass) {  // cold, then every point loaded
    const auto results = accel::SweepEngine(opts).run({carried, live});
    ASSERT_EQ(results.size(), 2u);
    for (const accel::SweepResult& r : results) {
      EXPECT_EQ(r.accelerated.final_state.output, r.baseline.final_state.output);
      EXPECT_EQ(r.accelerated.memory_hash, r.baseline.memory_hash);
      EXPECT_NE(r.accelerated.final_state.regs[8], r.baseline.final_state.regs[8]);
      EXPECT_FALSE(r.transparent) << r.label << " pass " << pass;
    }
  }
  EXPECT_EQ(store.counters().hits, 2u);
}

TEST(ResultStore, UnusableDirectoryThrowsIo) {
  const fs::path file = fs::path(::testing::TempDir()) / "dimsim-rs-blocker";
  std::ofstream(file).put('x');
  try {
    snap::ResultStore store((file / "sub").string());
    FAIL() << "directory under a regular file accepted";
  } catch (const snap::SnapshotError& e) {
    EXPECT_EQ(e.code(), snap::SnapErrc::kIo);
  }
  fs::remove(file);
}

}  // namespace
}  // namespace dim
