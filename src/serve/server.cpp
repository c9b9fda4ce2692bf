#include "serve/server.hpp"

namespace dim::serve {

Server::Server(ServerOptions options)
    : SessionHost(options.queue_capacity),
      options_(options),
      executor_(options.store_dir, options.worker_threads, options.checkpoint_interval) {
  if (options_.auto_dispatch) {
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
  }
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  stop_accepting();
  if (dispatcher_.joinable()) dispatcher_.join();
}

ServerCounters Server::counters() const {
  ServerCounters c;
  static_cast<HostCounters&>(c) = host_counters();
  static_cast<ExecutorCounters&>(c) = executor_.counters();
  return c;
}

void Server::dispatch_pending() {
  std::vector<Ticket> batch;
  Ticket ticket;
  while (queue_.try_pop(ticket)) {
    batch.push_back(std::move(ticket));
    if (batch.size() >= options_.batch_max) {
      process_batch(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) process_batch(batch);
}

void Server::dispatcher_loop() {
  for (;;) {
    Ticket first;
    if (!queue_.pop(first)) return;  // closed and drained
    std::vector<Ticket> batch;
    batch.push_back(std::move(first));
    Ticket more;
    while (batch.size() < options_.batch_max && queue_.try_pop(more)) {
      batch.push_back(std::move(more));
    }
    process_batch(batch);
  }
}

void Server::process_batch(const std::vector<Ticket>& tickets) {
  std::vector<Executor::Job> jobs;
  for (const Ticket& ticket : tickets) {
    if (!pick_up(ticket)) continue;
    Executor::Job job;
    job.request = parse_request(ticket.line).request;  // validated at admission
    job.respond = [this, &ticket](std::string line) { answer(ticket, std::move(line)); };
    job.canceled = [this, &ticket] { return take_cancel(ticket); };
    jobs.push_back(std::move(job));
  }
  executor_.run(jobs);
}

void Server::write_stats_fields(std::ostream& out) const {
  const ExecutorCounters c = executor_.counters();
  out << ", \"batches\": " << c.batches
      << ", \"batched_cells\": " << c.batched_cells
      << ", \"direct_runs\": " << c.direct_runs
      << ", \"fuzz_campaigns\": " << c.fuzz_campaigns;
  if (c.has_store) {
    out << ", \"store\": {\"hits\": " << c.store.hits
        << ", \"misses\": " << c.store.misses
        << ", \"stores\": " << c.store.stores
        << ", \"corrupt_discards\": " << c.store.corrupt_discards
        << ", \"write_failures\": " << c.store.write_failures << "}";
  }
}

}  // namespace dim::serve
