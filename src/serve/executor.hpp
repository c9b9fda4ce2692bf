// The execution half of the service, shared by both back ends: the
// in-process Server's dispatcher hands it each batch, and every worker
// process of the Supervisor's pool hands it one job at a time.
//
// It keeps what execution amortizes across requests — assembled programs
// and the result store that memoizes grid cells — and runs a batch in
// three groups: every sweep and unbudgeted run of the batch shares one
// SweepEngine grid, budgeted runs execute directly in run_until checkpoint
// chunks, and fuzz campaigns fan out over the same thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "accel/stats.hpp"
#include "asm/program.hpp"
#include "serve/protocol.hpp"
#include "snap/resultstore.hpp"

namespace dim::serve {

struct ExecutorCounters {
  uint64_t batches = 0;            // batches with >= 1 grid item
  uint64_t batched_cells = 0;      // grid points handed to the SweepEngine
  uint64_t direct_runs = 0;        // budgeted runs outside the engine
  uint64_t fuzz_campaigns = 0;
  bool has_store = false;
  snap::ResultStore::Counters store;
};

class Executor {
 public:
  // `store_dir` is the persistence root ("" = fully in-memory): result-store
  // cells go to <store_dir>/cells.
  // `threads` sizes the SweepEngine and fuzz pools (0 = hardware
  // concurrency); `checkpoint_interval` is the run_until chunk of a direct
  // run, and so its cancellation latency.
  Executor(const std::string& store_dir, unsigned threads,
           uint64_t checkpoint_interval);

  struct Job {
    Request request;  // a validated run, sweep or fuzz request
    // Receives the one response line, on the thread that called run().
    std::function<void(std::string)> respond;
    // Polled before every chunk of a direct run; true stops it with a
    // `canceled` answer. Null: never canceled.
    std::function<bool()> canceled;
    // Migration snapshot of a direct run ("" = none): a restorable payload
    // there resumes the run, and every chunk that does not finish it
    // rewrites the file.
    std::string checkpoint_path;
  };

  // Executes every job of the batch and answers each exactly once. One
  // caller thread at a time.
  void run(const std::vector<Job>& batch);

  ExecutorCounters counters() const;

 private:
  // The job's assembled program (cached per workload/scale or source), or
  // null after answering the job with the assembly error.
  const asmblr::Program* resolve_program(const Job& job);
  void execute_direct(const Job& job, const asmblr::Program& program);
  void execute_fuzz(const Job& job);

  const unsigned threads_;
  const uint64_t checkpoint_interval_;
  std::unique_ptr<snap::ResultStore> store_;  // null without store_dir

  std::map<std::string, asmblr::Program> programs_;  // run() thread only

  mutable std::mutex counters_mutex_;
  ExecutorCounters counters_;
};

}  // namespace dim::serve
