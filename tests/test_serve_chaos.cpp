// Chaos harness for the pre-forked serving pool (src/serve/supervisor.hpp).
//
// The contract under test is brutal on purpose: a Supervisor whose workers
// are being SIGKILLed at random must still answer every admitted request
// exactly once, with response bytes identical to a single-process Server
// that was never touched. Budgeted runs additionally prove the migration
// path — a job killed mid-run resumes from its run_until checkpoint on a
// fresh worker and the seams must not show in the response.
//
// Requests here deliberately avoid `warm`, `stats` and deadlines: warm
// export/preload flags depend on cross-worker timing, stats are
// topology-specific by design, and a deadline could legitimately expire
// under kill-loop scheduling jitter. Everything else must be bit-stable.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "gtest/gtest.h"
#include "serve/batcher.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "serve/worker.hpp"
#include "snap/io.hpp"
#include "snap/snapshot.hpp"
#include "work/workload.hpp"

namespace dim::serve {
namespace {

namespace fs = std::filesystem;

// A long-running budgeted source: the loop bound is far beyond any budget
// used below, so every such run ends with hit_budget and exercises many
// run_until chunks (and thus many migration checkpoints).
constexpr const char* kLongBudgetRun =
    R"({"id": %ID%, "kind": "run", "source": "main: li $t0, 0\nli $t1, 1000000000\nloop: addiu $t0, $t0, 1\nbne $t0, $t1, loop\nli $v0, 10\nsyscall\n", "budget": %BUDGET%})";

std::string budget_run(const std::string& id, uint64_t budget) {
  std::string line = kLongBudgetRun;
  line.replace(line.find("%ID%"), 4, id);
  line.replace(line.find("%BUDGET%"), 8, std::to_string(budget));
  return line;
}

// The oracle: the same stream against an untouched single-process Server.
std::vector<std::string> reference_responses(
    const std::vector<std::string>& stream, uint64_t checkpoint_interval,
    const std::string& store_dir) {
  ServerOptions options;
  options.auto_dispatch = false;
  options.worker_threads = 2;
  options.checkpoint_interval = checkpoint_interval;
  options.store_dir = store_dir;
  Server server(options);
  std::vector<std::string> lines;
  auto session = server.open_session(
      [&lines](const std::string& line) { lines.push_back(line); });
  for (const std::string& line : stream) {
    session->submit(line);
    server.dispatch_pending();
  }
  session->drain();
  server.shutdown();
  return lines;
}

void wait_for_restarts(const Supervisor& supervisor, uint64_t at_least) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (supervisor.counters().worker_restarts < at_least &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(ServeChaos, KillLoopByteIdentity) {
  const std::string base =
      (fs::temp_directory_path() / "dimsim-serve-chaos-kill").string();
  fs::remove_all(base);
  constexpr uint64_t kCheckpointInterval = 20000;

  // Three concurrent sessions with distinct mixes: sweeps (shared-store
  // memoization races), plain runs, chunked budgeted runs, and a fuzz
  // campaign (deterministic by seed).
  const std::vector<std::vector<std::string>> streams = {
      {
          R"({"id": "a0", "kind": "sweep", "workload": "crc32", "slots_axis": [8, 16]})",
          R"({"id": "a1", "kind": "run", "workload": "bitcount"})",
          budget_run(R"("a2")", 300000),
          R"({"id": "a3", "kind": "sweep", "workload": "bitcount", "slots_axis": [8, 16]})",
          budget_run(R"("a4")", 200000),
          R"({"id": "a5", "kind": "run", "workload": "crc32"})",
      },
      {
          budget_run(R"("b0")", 400000),
          R"({"id": "b1", "kind": "run", "workload": "crc32"})",
          budget_run(R"("b2")", 250000),
          R"({"id": "b3", "kind": "run", "workload": "nonesuch"})",
          budget_run(R"("b4")", 350000),
          R"({"id": "b5", "kind": "ping"})",
      },
      {
          R"({"id": "c0", "kind": "fuzz", "seeds": 2})",
          R"({"id": "c1", "kind": "sweep", "workload": "crc32", "shapes": ["config1", "config2"]})",
          budget_run(R"("c2")", 300000),
          R"({"id": "c3", "kind": "run", "workload": "bitcount"})",
          budget_run(R"("c4")", 200000),
          R"({"id": "c5", "kind": "run", "workload": "crc32"})",
      },
  };

  std::vector<std::vector<std::string>> reference(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    reference[i] = reference_responses(streams[i], kCheckpointInterval,
                                       base + "/ref-" + std::to_string(i));
  }

  SupervisorOptions options;
  options.workers = 4;
  options.queue_capacity = 64;
  options.store_dir = base + "/pool";
  options.checkpoint_interval = kCheckpointInterval;
  options.engine_threads = 2;
  Supervisor supervisor(options);

  // The kill loop: SIGKILL a random live worker every few milliseconds
  // while the sessions are in flight.
  std::atomic<bool> clients_done{false};
  std::thread killer([&supervisor, &clients_done] {
    std::mt19937 rng(0x5eed);
    std::uniform_int_distribution<int> wait_ms(5, 25);
    int kills = 0;
    while (!clients_done.load() && kills < 60) {
      std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms(rng)));
      const std::vector<pid_t> pids = supervisor.worker_pids();
      if (pids.empty()) continue;
      std::uniform_int_distribution<size_t> pick(0, pids.size() - 1);
      if (::kill(pids[pick(rng)], SIGKILL) == 0) ++kills;
    }
  });

  std::vector<std::vector<std::string>> got(streams.size());
  std::vector<std::thread> clients;
  clients.reserve(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    clients.emplace_back([&supervisor, &streams, &got, i] {
      auto session = supervisor.open_session(
          [&got, i](const std::string& line) { got[i].push_back(line); });
      for (const std::string& line : streams[i]) session->submit(line);
      session->drain();
    });
  }
  for (std::thread& t : clients) t.join();
  clients_done.store(true);
  killer.join();

  // The random kills almost certainly hit, but make the restart path
  // deterministic: kill one live worker now (the pool is idle but alive)
  // and wait for the supervisor to reap and replace it.
  const uint64_t restarts_before = supervisor.counters().worker_restarts;
  const std::vector<pid_t> pids = supervisor.worker_pids();
  ASSERT_FALSE(pids.empty()) << "pool died entirely";
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);
  wait_for_restarts(supervisor, restarts_before + 1);

  const SupervisorCounters c = supervisor.counters();
  supervisor.shutdown();

  for (size_t i = 0; i < streams.size(); ++i) {
    ASSERT_EQ(got[i].size(), streams[i].size())
        << "session " << i << ": admitted work was lost or double-answered";
    EXPECT_EQ(got[i], reference[i])
        << "session " << i << ": responses diverged from the single-process "
        << "reference under worker kills";
  }
  EXPECT_GE(c.worker_restarts, 1u);
  EXPECT_EQ(c.abandoned, 0u) << "a job exhausted its retry budget";
  // 18 requests; the ping answers inline, everything else is queued work
  // (the unknown workload still parses — the worker rejects it).
  EXPECT_EQ(c.accepted, 17u);
  EXPECT_EQ(c.rejected_invalid, 0u);
  fs::remove_all(base);
}

TEST(ServeChaos, MigrationResumesBudgetedRunByteIdentical) {
  const std::string base =
      (fs::temp_directory_path() / "dimsim-serve-chaos-migrate").string();
  fs::remove_all(base);
  constexpr uint64_t kCheckpointInterval = 20000;
  const std::string request = budget_run(R"("mig")", 4000000);

  const std::vector<std::string> reference = reference_responses(
      {request}, kCheckpointInterval, base + "/ref");
  ASSERT_EQ(reference.size(), 1u);
  ASSERT_NE(reference[0].find("\"hit_budget\": true"), std::string::npos);

  // One worker, one long budgeted run, repeated SIGKILLs mid-run: every
  // retry must resume from the latest checkpoint (forward progress — a
  // checkpoint lands every ~20k instructions, far more often than kills)
  // and the final response must match the uncrashed oracle byte-for-byte.
  SupervisorOptions options;
  options.workers = 1;
  options.store_dir = base + "/pool";
  options.checkpoint_interval = kCheckpointInterval;
  options.engine_threads = 2;
  Supervisor supervisor(options);

  std::atomic<bool> answered{false};
  std::vector<std::string> got;
  auto session = supervisor.open_session(
      [&got, &answered](const std::string& line) {
        got.push_back(line);
        answered.store(true);
      });
  session->submit(request);

  // Wait for the job to actually reach the worker before the first kill.
  const auto dispatch_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (supervisor.counters().dispatched == 0 &&
         std::chrono::steady_clock::now() < dispatch_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(supervisor.counters().dispatched, 1u);

  // Kill only once the live worker has checkpointed: a job-*.snap newer
  // than any on disk when its predecessor was reaped. A fixed kill cadence
  // lands every kill before the first checkpoint on a slow host.
  const fs::path migrate_dir = fs::path(options.store_dir) / "migrate";
  const auto newest_checkpoint = [&migrate_dir] {
    fs::file_time_type newest = fs::file_time_type::min();
    std::error_code ec;
    for (const fs::directory_entry& e : fs::directory_iterator(migrate_dir, ec)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("job-", 0) != 0 || e.path().extension() != ".snap") continue;
      newest = std::max(newest, e.last_write_time(ec));
    }
    return newest;
  };
  fs::file_time_type reaped_at = fs::file_time_type::min();
  int kills = 0;
  while (!answered.load() && kills < 5) {
    if (newest_checkpoint() <= reaped_at) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    const std::vector<pid_t> pids = supervisor.worker_pids();
    if (pids.empty() || ::kill(pids[0], SIGKILL) != 0) continue;
    ++kills;
    // The replacement is forked from this multi-threaded process in the
    // same critical section that counts the restart; worker_pids() waits
    // for that section to end. Under ASan, a fork while this thread is in
    // malloc can leave the child deadlocked on the allocator lock.
    wait_for_restarts(supervisor, static_cast<uint64_t>(kills));
    supervisor.worker_pids();
    reaped_at = newest_checkpoint();
  }
  session->drain();

  const SupervisorCounters c = supervisor.counters();
  supervisor.shutdown();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], reference[0])
      << "migrated run diverged from the uncrashed reference";
  EXPECT_GE(kills, 1);
  EXPECT_GE(c.worker_restarts, 1u);
  // Every kill lands after a checkpoint, so its retry resumes mid-run.
  EXPECT_GE(c.migrations, 1u);
  EXPECT_EQ(c.abandoned, 0u);
  fs::remove_all(base);
}

TEST(ServeChaos, StaleCheckpointPastTheBudgetStartsCold) {
  // A killed daemon leaves migrate/job-N.snap behind, and the next
  // daemon's job ids restart at 1. A leftover checkpoint that already ran
  // past the new job's budget is not a prefix of that job's run: the job
  // must start cold and answer what a daemon with a clean store answers.
  const std::string base =
      (fs::temp_directory_path() / "dimsim-serve-chaos-stale").string();
  fs::remove_all(base);
  constexpr uint64_t kCheckpointInterval = 20000;
  const std::string request =
      R"({"id": 1, "kind": "run", "workload": "crc32", "budget": 100000})";

  // The reference Server is shut down before the Supervisor forks: a fork
  // while another thread allocates can hang the child under ASan.
  const std::vector<std::string> reference =
      reference_responses({request}, kCheckpointInterval, base + "/ref");
  ASSERT_EQ(reference.size(), 1u);

  const std::string store_dir = base + "/pool";
  fs::create_directories(store_dir + "/migrate");
  const asmblr::Program program =
      asmblr::assemble(work::make_workload("crc32").source);
  accel::AcceleratedSystem stale(program, config_for("config1", 64, true));
  ASSERT_GT(stale.run_until(130000).instructions, 100000u);
  snap::write_artifact_file(checkpoint_path(store_dir, 1), snap::ArtifactKind::kSnapshot,
                            snap::encode_snapshot(stale, program));

  SupervisorOptions options;
  options.workers = 1;
  options.store_dir = store_dir;
  options.checkpoint_interval = kCheckpointInterval;
  options.engine_threads = 1;
  Supervisor supervisor(options);
  std::vector<std::string> got;
  auto session = supervisor.open_session(
      [&got](const std::string& line) { got.push_back(line); });
  session->submit(request);
  session->drain();
  supervisor.shutdown();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], reference[0]) << "the job resumed another daemon's checkpoint";
  fs::remove_all(base);
}

}  // namespace
}  // namespace dim::serve
