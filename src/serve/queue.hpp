// The bounded MPMC admission queue: the daemon's overload valve.
//
// Admission threads try_push and, on a full queue, answer the client with
// an explicit `overloaded` rejection instead of buffering unboundedly —
// backpressure is part of the protocol, not an OOM kill. close() makes
// further pushes fail while pops drain what was already admitted, which
// is exactly the graceful-shutdown order (stop accepting, finish what was
// promised).
//
// AdmissionQueue schedules by request priority and deadline — strict
// priority first, earliest deadline first within a priority (EDF), and
// admission order as the final tiebreak, so pop order is a deterministic
// function of the pushed (key, order) pairs no matter how producers
// interleaved.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace dim::serve {

// The scheduling identity of one admitted request. Higher priority pops
// first; within a priority, the earliest absolute deadline pops first and
// deadline-less requests pop after every deadlined one; admission order
// breaks the remaining ties.
struct ScheduleKey {
  int priority = 0;  // protocol range [0, 9]; higher is more urgent
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
};

// Bounded MPMC priority/deadline queue. Pop order is EDF within strict
// priority; expiry itself is NOT enforced here — the dispatcher checks the
// deadline when it picks the item up and answers `deadline_expired`, so an
// expired request is rejected exactly once, with a response.
template <typename T>
class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t capacity) : capacity_(capacity) {}

  // False when full or closed — never blocks.
  bool try_push(T item, const ScheduleKey& key) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || heap_.size() >= capacity_) return false;
      heap_.push_back(Entry{std::move(item), key, next_order_++});
      std::push_heap(heap_.begin(), heap_.end(), PopsLater{});
    }
    ready_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and empty.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !heap_.empty(); });
    return pop_locked(out);
  }

  // Non-blocking variant (used to fill a batch after the blocking pop).
  bool try_pop(T& out) {
    std::lock_guard<std::mutex> lock(mutex_);
    return pop_locked(out);
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return heap_.size();
  }

 private:
  struct Entry {
    T item;
    ScheduleKey key;
    uint64_t order;  // admission sequence: the deterministic tiebreak
  };

  // std::push_heap puts the element for which the comparator is false
  // against everything else on top, so this orders "a pops later than b".
  struct PopsLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.key.priority != b.key.priority) return a.key.priority < b.key.priority;
      if (a.key.has_deadline != b.key.has_deadline) return !a.key.has_deadline;
      if (a.key.has_deadline && a.key.deadline != b.key.deadline) {
        return a.key.deadline > b.key.deadline;
      }
      return a.order > b.order;
    }
  };

  bool pop_locked(T& out) {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), PopsLater{});
    out = std::move(heap_.back().item);
    heap_.pop_back();
    return true;
  }

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::vector<Entry> heap_;
  uint64_t next_order_ = 0;
  bool closed_ = false;
};

}  // namespace dim::serve
