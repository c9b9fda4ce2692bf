#include "serve/host.hpp"

#include <condition_variable>
#include <map>
#include <set>
#include <sstream>

namespace dim::serve {
namespace {

std::string cancel_key(const RequestId& id) {
  return (id.is_string ? "s:" : "i:") + id.text;
}

}  // namespace

// --- Sequencer ---------------------------------------------------------------

// One session: responses complete in any order but emit through the sink
// in admission order.
class SessionHost::Sequencer : public SessionHost::Session,
                               public std::enable_shared_from_this<Sequencer> {
 public:
  Sequencer(SessionHost* host, ResponseSink sink)
      : host_(host), sink_(std::move(sink)) {}

  bool submit(const std::string& line) override {
    // Admission decides everything, including the shutting-down rejection
    // (it knows the request id, so the rejection is still correlatable).
    host_->admit(shared_from_this(), line);
    return !host_->shutting_down();
  }

  void drain() override {
    std::unique_lock<std::mutex> lock(mutex_);
    drained_.wait(lock, [this] { return emit_seq_ == next_seq_; });
  }

  uint64_t allocate_seq() {
    std::lock_guard<std::mutex> lock(mutex_);
    return next_seq_++;
  }

  void complete(uint64_t seq, std::string response_line) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.emplace(seq, std::move(response_line));
    // Emit every response that is now next in admission order. The sink is
    // called under the lock, so per-session output is serialized and
    // ordered by construction.
    while (!ready_.empty() && ready_.begin()->first == emit_seq_) {
      const std::string line = std::move(ready_.begin()->second);
      ready_.erase(ready_.begin());
      ++emit_seq_;
      if (sink_) sink_(line);
    }
    lock.unlock();
    drained_.notify_all();
    host_->count(&HostCounters::completed);
  }

  void mark_canceled(const RequestId& id) {
    std::lock_guard<std::mutex> lock(mutex_);
    canceled_.insert(cancel_key(id));
  }

  bool take_cancel(const RequestId& id) {
    std::lock_guard<std::mutex> lock(mutex_);
    return canceled_.erase(cancel_key(id)) > 0;
  }

 private:
  SessionHost* host_;
  ResponseSink sink_;
  std::mutex mutex_;
  std::condition_variable drained_;
  uint64_t next_seq_ = 0;  // next seq to hand out
  uint64_t emit_seq_ = 0;  // next seq to emit
  std::map<uint64_t, std::string> ready_;  // completed, waiting for order
  std::set<std::string> canceled_;         // keyed "s:"/"i:" + id text
};

// --- SessionHost -------------------------------------------------------------

SessionHost::SessionHost(size_t queue_capacity) : queue_(queue_capacity) {}

std::shared_ptr<SessionHost::Session> SessionHost::open_session(ResponseSink sink) {
  return std::make_shared<Sequencer>(this, std::move(sink));
}

void SessionHost::stop_accepting() {
  bool expected = false;
  if (!shutting_down_.compare_exchange_strong(expected, true)) return;
  queue_.close();
  wake();
}

HostCounters SessionHost::host_counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  return counters_;
}

void SessionHost::count(uint64_t HostCounters::*counter) {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  ++(counters_.*counter);
}

void SessionHost::answer(const Ticket& ticket, std::string response) {
  ticket.session->complete(ticket.seq, std::move(response));
}

bool SessionHost::take_cancel(const Ticket& ticket) {
  if (!ticket.session->take_cancel(ticket.id)) return false;
  count(&HostCounters::canceled);
  return true;
}

bool SessionHost::pick_up(const Ticket& ticket) {
  std::ostringstream out;
  if (take_cancel(ticket)) {
    write_error_response(out, ticket.id, kErrCanceled, "canceled before dispatch");
  } else if (ticket.has_deadline &&
             std::chrono::steady_clock::now() >= ticket.deadline) {
    // Expiry is judged here, at pickup, not in the queue: the request is
    // rejected exactly once, with a response. `>=` makes deadline_ms: 0
    // expire unconditionally (admission time is the deadline), which is
    // what pins this path deterministically in tests.
    write_error_response(out, ticket.id, kErrDeadlineExpired,
                         "deadline passed before dispatch");
    count(&HostCounters::rejected_deadline);
  } else {
    return true;
  }
  answer(ticket, out.str());
  return false;
}

std::string SessionHost::stats_response(const RequestId& id) const {
  const HostCounters c = host_counters();
  std::ostringstream out;
  write_ok_prefix(out, id);
  out << ", \"kind\": \"stats\""
      << ", \"accepted\": " << c.accepted
      << ", \"rejected_overload\": " << c.rejected_overload
      << ", \"rejected_invalid\": " << c.rejected_invalid
      << ", \"rejected_deadline\": " << c.rejected_deadline
      << ", \"completed\": " << c.completed
      << ", \"canceled\": " << c.canceled;
  write_stats_fields(out);
  out << "}\n";
  return out.str();
}

void SessionHost::admit(const std::shared_ptr<Sequencer>& session,
                        const std::string& line) {
  const uint64_t seq = session->allocate_seq();
  const ParseOutcome parsed = parse_request(line);
  std::ostringstream out;
  if (!parsed.ok) {
    write_error_response(out, parsed.id, parsed.error, parsed.detail);
    count(&HostCounters::rejected_invalid);
    session->complete(seq, out.str());
    return;
  }

  const Request& req = parsed.request;
  switch (req.kind) {
    case RequestKind::kPing:
      write_pong_response(out, req.id);
      session->complete(seq, out.str());
      return;
    case RequestKind::kStats:
      session->complete(seq, stats_response(req.id));
      return;
    case RequestKind::kCancel:
      // The mark takes effect immediately (admission thread): a queued
      // target is answered `canceled` at pickup, and an in-process budgeted
      // run sees it at its next checkpoint; only the ack waits for order.
      session->mark_canceled(req.target);
      write_ok_prefix(out, req.id);
      out << ", \"kind\": \"cancel\"}\n";
      session->complete(seq, out.str());
      return;
    case RequestKind::kShutdown:
      write_ok_prefix(out, req.id);
      out << ", \"kind\": \"shutdown\"}\n";
      session->complete(seq, out.str());
      // Close after responding: already-admitted work still drains.
      stop_accepting();
      return;
    case RequestKind::kRun:
    case RequestKind::kSweep:
    case RequestKind::kFuzz:
      break;
  }

  Ticket ticket;
  ticket.session = session;
  ticket.seq = seq;
  ticket.id = req.id;
  ticket.line = line;
  ScheduleKey key;
  key.priority = req.priority;
  if (req.has_deadline) {
    key.has_deadline = true;
    key.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(req.deadline_ms);
    ticket.has_deadline = true;
    ticket.deadline = key.deadline;
  }
  if (!queue_.try_push(std::move(ticket), key)) {
    const bool closing = shutting_down();
    write_error_response(out, req.id,
                         closing ? kErrShuttingDown : kErrOverloaded,
                         closing ? "server is shutting down"
                                 : "admission queue is full; retry later");
    count(&HostCounters::rejected_overload);
    session->complete(seq, out.str());
    return;
  }
  count(&HostCounters::accepted);
  wake();
}

}  // namespace dim::serve
