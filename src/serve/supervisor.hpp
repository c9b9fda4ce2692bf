// The pre-forked worker-pool back end (docs/serving.md).
//
// The SessionHost front end admits requests in this process, exactly as
// for serve::Server; N forked worker processes own execution. A scheduler
// thread hands each queued request, as its raw line, to an idle worker
// over a socketpair (serve/ipc.hpp framing). All workers share one store
// directory, so memoized cells are pooled.
//
// Fault model: a worker death (crash, SIGKILL) is detected as EOF on its
// socketpair by that worker's reader thread, which reaps the child,
// re-queues the job whose response never fully arrived (at-most-once
// framing makes "arrived" unambiguous), forks a replacement, and life
// goes on. Budgeted runs checkpoint snapshots into <store>/migrate/ at
// every run_until chunk, so the retry resumes mid-run on another worker
// and still returns byte-identical response bytes. Admitted work is never
// lost: every admitted request is answered exactly once, by a worker
// response or by a front-end rejection (canceled / deadline_expired, or
// internal after the attempt cap).
//
// Cancellation is queued-only here: a cancel mark stops a job that is
// still waiting at schedule time, but a job already on a worker runs to
// completion (workers are not interrupted — killing them is the fault
// path, not the cancel path). Single-process Server additionally cancels
// at run_until checkpoints; docs/serving.md has the full table.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/host.hpp"

namespace dim::serve {

struct SupervisorOptions {
  int workers = 2;
  size_t queue_capacity = 256;
  // Shared persistence root ("" = in-memory stores per worker and no
  // migration checkpoints — crashed jobs restart cold, same bytes).
  std::string store_dir;
  uint64_t checkpoint_interval = 1u << 20;
  // SweepEngine threads inside each worker (0 = hardware concurrency).
  unsigned engine_threads = 0;
};

struct SupervisorCounters : HostCounters {
  uint64_t dispatched = 0;         // job frames handed to workers
  uint64_t worker_restarts = 0;    // deaths handled (reaped + respawned)
  uint64_t migrations = 0;         // crash re-queues with a checkpoint to resume
  uint64_t abandoned = 0;          // answered `internal` after the attempt cap
};

class Supervisor : public SessionHost {
 public:
  explicit Supervisor(SupervisorOptions options);
  ~Supervisor() override;  // drains admitted work, then stops the pool

  void shutdown() override;

  SupervisorCounters counters() const;

  // Live worker pids, for the chaos harness (and ps-level debugging).
  std::vector<pid_t> worker_pids() const;

 private:
  struct Job {
    Ticket ticket;
    uint64_t job_id = 0;
    int crashes = 0;  // workers that died holding this job
  };

  struct Worker {
    pid_t pid = -1;
    int fd = -1;       // supervisor side of the socketpair
    bool busy = false;
    uint64_t job_id = 0;
    std::thread reader;
  };

  void scheduler_loop();
  void reader_loop(size_t slot);
  // state_mutex_ held. Forks the replacement and starts its reader.
  void spawn_worker(size_t slot);
  void handle_worker_death(size_t slot);
  void write_stats_fields(std::ostream& out) const override;
  void wake() override;

  SupervisorOptions options_;
  std::atomic<bool> stopping_{false};  // pool teardown (post-drain)
  std::mutex teardown_mutex_;  // serializes the shutdown() join sequence
  bool torn_down_ = false;

  mutable std::mutex counters_mutex_;
  SupervisorCounters counters_;  // the pool's own fields; the rest are the host's

  // Workers, in-flight jobs and the crash-retry list. retry_ jobs run
  // before anything still in the queue (they were admitted earlier and
  // already scheduled once); it is unbounded because a re-queue must not
  // fail — that would lose admitted work.
  mutable std::mutex state_mutex_;
  std::condition_variable state_cv_;
  std::vector<Worker> workers_;
  std::map<uint64_t, Job> inflight_;  // keyed by job_id
  std::deque<Job> retry_;
  uint64_t next_job_id_ = 1;
  std::vector<std::thread> reader_graveyard_;  // replaced readers, joined late

  std::thread scheduler_;
};

}  // namespace dim::serve
