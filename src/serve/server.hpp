// The in-process back end of the simulation service (docs/serving.md).
//
// What repeated requests amortize — memoized sweep cells and assembled
// program images — stays resident in one long-lived process. The
// SessionHost front end admits requests; a dispatcher thread drains its
// queue in batches of up to batch_max and hands each batch to one
// serve::Executor, which runs every grid point of the batch through one
// shared SweepEngine (memoized by a resident snap::ResultStore) and
// budgeted runs in run_until checkpoint chunks, polling cancellation
// before each chunk.
//
// Determinism contract: for a fixed request stream on one session (with a
// fixed result-store temperature), response bytes are identical for any
// worker-thread count, any batch composition, and across a daemon restart
// that kept the store directory — `stats` responses excepted (they report
// live counters). The load bench's --check mode and the serve CI job pin
// this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/executor.hpp"
#include "serve/host.hpp"

namespace dim::serve {

struct ServerOptions {
  // SweepEngine worker pool for batched grids (0 = hardware concurrency).
  unsigned worker_threads = 0;
  // Admission bound: requests beyond this are rejected with `overloaded`.
  size_t queue_capacity = 256;
  // Max requests merged into one dispatcher batch.
  size_t batch_max = 32;
  // Persistence root ("" = fully in-memory): result-store cells go to
  // <store_dir>/cells.
  std::string store_dir;
  // run_until chunk for budgeted runs: the cancellation latency bound.
  uint64_t checkpoint_interval = 1u << 20;
  // Tests set false and call dispatch_pending() for deterministic control
  // over when (and in what batches) queued work executes.
  bool auto_dispatch = true;
};

struct ServerCounters : HostCounters, ExecutorCounters {};

class Server : public SessionHost {
 public:
  explicit Server(ServerOptions options);
  ~Server() override;  // drains and joins

  // Stops accepting, drains the queue, joins the dispatcher. Idempotent.
  void shutdown() override;

  ServerCounters counters() const;

  // Manual-dispatch mode (auto_dispatch == false): drains everything
  // currently queued in batch_max-sized batches.
  void dispatch_pending();

 private:
  void dispatcher_loop();
  void process_batch(const std::vector<Ticket>& tickets);
  void write_stats_fields(std::ostream& out) const override;

  ServerOptions options_;
  Executor executor_;  // dispatcher-thread only, counters() aside
  std::thread dispatcher_;
};

}  // namespace dim::serve
