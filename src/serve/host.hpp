// The serve front end (docs/serving.md): everything about a request that
// does not depend on where it executes.
//
// SessionHost owns sessions (one response line per submitted request,
// emitted through the sink in per-session admission order), admission
// (parse, immediate kinds, the bounded EDF-within-priority queue and its
// overloaded/shutting_down answers), the canceled/deadline check when a
// consumer picks a request up, shutdown signalling, the shared counters
// and the `stats` response. Two back ends consume its queue:
// serve::Server executes in process, serve::Supervisor hands each request
// to a pre-forked worker process. Transports (serve_stdio,
// UnixSocketServer) are written once against this class, and a daemon
// picks its back end with a flag.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "serve/protocol.hpp"
#include "serve/queue.hpp"

namespace dim::serve {

// The counters every back end shares.
struct HostCounters {
  uint64_t accepted = 0;           // admitted into the queue
  uint64_t rejected_overload = 0;  // bounced off the full (or closed) queue
  uint64_t rejected_invalid = 0;   // parse/validation failures
  uint64_t rejected_deadline = 0;  // expired before a consumer picked them up
  uint64_t completed = 0;          // responses emitted (any outcome)
  uint64_t canceled = 0;           // requests answered `canceled`
};

class SessionHost {
 public:
  // Serialized per session; called with one complete response line
  // (including the trailing '\n') in admission order.
  using ResponseSink = std::function<void(const std::string&)>;

  class Session {
   public:
    virtual ~Session() = default;

    // Feeds one raw request line; the response arrives on the sink (in
    // submission order, possibly before this returns for immediate
    // kinds). Returns false once the host is shutting down — queued
    // kinds have then been answered with a shutting_down rejection.
    virtual bool submit(const std::string& line) = 0;

    // Blocks until every submitted request has produced its response.
    virtual void drain() = 0;
  };

  virtual ~SessionHost() = default;

  std::shared_ptr<Session> open_session(ResponseSink sink);

  // Stops accepting, drains admitted work, releases resources. Idempotent.
  virtual void shutdown() = 0;
  bool shutting_down() const { return shutting_down_.load(); }

 protected:
  class Sequencer;

  // One admitted request of a queued kind. It holds the raw line, not the
  // parse: the consumer parses again where it executes.
  struct Ticket {
    std::shared_ptr<Sequencer> session;
    uint64_t seq = 0;
    RequestId id;
    std::string line;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
  };

  explicit SessionHost(size_t queue_capacity);

  // Closes admission: later queued kinds answer shutting_down, while
  // what was admitted still drains from queue_. Idempotent.
  void stop_accepting();
  // Emits `response` as the ticket's answer.
  void answer(const Ticket& ticket, std::string response);
  // The check when a consumer picks a ticket up: a canceled or expired
  // request is answered here and false is returned.
  bool pick_up(const Ticket& ticket);
  // Consumes a cancel mark on the ticket's id (counted as canceled).
  bool take_cancel(const Ticket& ticket);
  HostCounters host_counters() const;

  AdmissionQueue<Ticket> queue_;

 private:
  void admit(const std::shared_ptr<Sequencer>& session, const std::string& line);
  void count(uint64_t HostCounters::*counter);
  std::string stats_response(const RequestId& id) const;

  // Appends the back end's own `stats` fields after the shared counters.
  virtual void write_stats_fields(std::ostream& out) const = 0;
  // Called after each push to queue_ and after it closes, for a consumer
  // that waits on its own condition variable.
  virtual void wake() {}

  std::atomic<bool> shutting_down_{false};
  mutable std::mutex counters_mutex_;
  HostCounters counters_;
};

}  // namespace dim::serve
