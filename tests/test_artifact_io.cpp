// Cross-process atomicity of snap::write_artifact_file.
//
// The writer publishes via temp-file + rename. The regression this pins:
// the temp name used to be derived from a per-process atomic counter
// alone, so two PROCESSES writing the same target path would both open
// "<path>.tmp.0" and interleave their bytes — the rename then published a
// torn artifact that fails CRC validation. The temp name now includes the
// pid, making it unique across processes; under a two-writer stress the
// published file must always validate as exactly one writer's payload.
//
// A write that fails (a full disk, simulated with RLIMIT_FSIZE) must throw
// kIo, leave the target's old bytes and no temp file — and a ResultStore
// must absorb such a failure instead of failing the sweep.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "accel/sweep.hpp"
#include "asm/assembler.hpp"
#include "snap/format.hpp"
#include "snap/io.hpp"
#include "snap/resultstore.hpp"
#include "work/workload.hpp"

namespace dim::snap {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const char* tag) {
  std::string tmpl = fs::temp_directory_path() /
                     (std::string("dimsim-artifact-") + tag + "-XXXXXX");
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* made = mkdtemp(buf.data());
  EXPECT_NE(made, nullptr);
  return std::string(made != nullptr ? made : "/tmp");
}

std::vector<uint8_t> payload_of(uint8_t fill, size_t size) {
  return std::vector<uint8_t>(size, fill);
}

TEST(ArtifactIoRace, TwoProcessesWritingSamePathNeverPublishTornFile) {
  const std::string dir = temp_dir("race");
  const std::string path = dir + "/contended.cell";
  // Big enough that an interleaved write would need several stream flushes,
  // small enough to keep the stress fast.
  const auto parent_payload = payload_of(0xAB, 64 * 1024);
  const auto child_payload = payload_of(0xCD, 64 * 1024);
  constexpr int kRounds = 40;

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: hammer the path. _exit (not exit) so gtest state in the
    // forked copy is never touched.
    for (int i = 0; i < kRounds; ++i) {
      try {
        write_artifact_file(path, ArtifactKind::kSnapshot, child_payload);
      } catch (...) {
        _exit(1);
      }
    }
    _exit(0);
  }

  for (int i = 0; i < kRounds; ++i) {
    ASSERT_NO_THROW(
        write_artifact_file(path, ArtifactKind::kSnapshot, parent_payload));
    // Concurrent validation: whatever is published mid-stress must be one
    // complete artifact (CRC-validated), never a byte interleaving.
    const std::vector<uint8_t> seen =
        read_artifact_file(path, ArtifactKind::kSnapshot);
    ASSERT_TRUE(seen == parent_payload || seen == child_payload)
        << "round " << i << ": published artifact is neither writer's payload";
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child writer failed";

  // Final state: one of the two payloads, and no leaked temp files.
  const std::vector<uint8_t> last =
      read_artifact_file(path, ArtifactKind::kSnapshot);
  EXPECT_TRUE(last == parent_payload || last == child_payload);
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().filename().string().find(".tmp."), std::string::npos)
        << "leftover temp file: " << e.path();
  }
  fs::remove_all(dir);
}

TEST(ArtifactIoRace, TempNamesAreUniquePerProcessAndSequence) {
  // Two back-to-back writes from one process must not collide either (the
  // per-process counter part of the temp name), and each write cleans its
  // temp file up on success.
  const std::string dir = temp_dir("seq");
  const std::string path = dir + "/seq.cell";
  write_artifact_file(path, ArtifactKind::kSnapshot, payload_of(0x01, 128));
  write_artifact_file(path, ArtifactKind::kSnapshot, payload_of(0x02, 128));
  EXPECT_EQ(read_artifact_file(path, ArtifactKind::kSnapshot),
            payload_of(0x02, 128));
  size_t entries = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u) << "temp files left behind";
  fs::remove_all(dir);
}

// Runs `body` in a forked child whose files cannot grow past `limit` bytes
// and returns the child's exit status (the verdict). SIGXFSZ is ignored, so
// an oversized write fails with EFBIG, as on a full disk, instead of
// killing the child.
int exit_status_with_file_limit(rlim_t limit, const std::function<int()>& body) {
  const pid_t child = fork();
  if (child == 0) {
    signal(SIGXFSZ, SIG_IGN);
    const rlimit rl{limit, limit};
    if (setrlimit(RLIMIT_FSIZE, &rl) != 0) _exit(90);
    int verdict = 91;
    try {
      verdict = body();
    } catch (...) {
      verdict = 92;
    }
    _exit(verdict);  // never run gtest teardown in the forked copy
  }
  int status = 0;
  if (child < 0 || waitpid(child, &status, 0) != child) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

bool has_temp_file(const std::string& dir) {
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().find(".tmp.") != std::string::npos) return true;
  }
  return false;
}

TEST(ArtifactIoFullDisk, FailedWriteThrowsAndKeepsTheOldArtifact) {
  const std::string dir = temp_dir("full");
  const std::string path = dir + "/kept.snap";
  const auto old_payload = payload_of(0x5A, 300);
  write_artifact_file(path, ArtifactKind::kSnapshot, old_payload);

  // 900 bytes still sit in the stream buffer when the payload has been
  // handed over; 100 KiB has already hit the limit by then.
  const int verdict = exit_status_with_file_limit(500, [&] {
    for (const size_t size : {size_t{900}, size_t{100 * 1024}}) {
      try {
        write_artifact_file(path, ArtifactKind::kSnapshot, payload_of(0xA5, size));
        return 1;
      } catch (const SnapshotError& e) {
        if (e.code() != SnapErrc::kIo) return 2;
      }
      if (read_artifact_file(path, ArtifactKind::kSnapshot) != old_payload) return 3;
      if (has_temp_file(dir)) return 4;
    }
    return 0;
  });
  EXPECT_EQ(verdict, 0) << "1: no throw, 2: not kIo, 3: target changed, "
                           "4: temp file left";
  fs::remove_all(dir);
}

TEST(ArtifactIoFullDisk, StoreWriteFailureLeavesTheSweepResultAlone) {
  const std::string dir = temp_dir("full-store");
  const asmblr::Program program =
      asmblr::assemble(work::make_workload("bitcount").source);
  accel::SweepPoint point;
  point.program = &program;
  point.run_baseline = true;  // baseline inside, no profile: a ~800-byte cell
  const auto sweep_json = [&point](accel::ResultCache* cache) {
    accel::SweepOptions opts;
    opts.threads = 1;
    opts.result_cache = cache;
    std::ostringstream out;
    accel::write_sweep_json(out, accel::SweepEngine(opts).run({point}));
    return out.str();
  };
  const std::string want = sweep_json(nullptr);

  const int verdict = exit_status_with_file_limit(500, [&] {
    ResultStore store(dir);
    if (sweep_json(&store) != want) return 1;
    const ResultStore::Counters c = store.counters();
    if (c.write_failures != 1 || c.stores != 0) return 2;
    // Neither a torn .cell nor a .tmp. file may be left.
    return fs::is_empty(dir) ? 0 : 3;
  });
  EXPECT_EQ(verdict, 0) << "1: result differs, 2: failure not counted, "
                           "3: file left in the store";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dim::snap
