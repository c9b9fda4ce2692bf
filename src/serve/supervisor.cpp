#include "serve/supervisor.hpp"

#include <dirent.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <system_error>

#include "serve/ipc.hpp"
#include "serve/worker.hpp"

namespace dim::serve {
namespace {

constexpr int kMaxCrashes = 100;  // crash-retry backstop per job

// Forked children inherit every parent fd: other workers' socketpairs
// (keeping those open would break the supervisor's EOF-based death
// detection), transport sockets, open stores. Close everything except
// stdio and this worker's own pair end.
void close_inherited_fds(int keep) {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return;
  std::vector<int> fds;
  while (dirent* entry = ::readdir(dir)) {
    char* end = nullptr;
    const long fd = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;
    fds.push_back(static_cast<int>(fd));
  }
  const int dir_fd = ::dirfd(dir);
  for (const int fd : fds) {
    if (fd > 2 && fd != keep && fd != dir_fd) ::close(fd);
  }
  ::closedir(dir);
}

}  // namespace

Supervisor::Supervisor(SupervisorOptions options)
    : SessionHost(options.queue_capacity), options_(options) {
  if (options_.workers < 1) options_.workers = 1;
  if (!options_.store_dir.empty()) {
    std::error_code ec;  // best effort: without migrate/, crashed jobs restart cold
    std::filesystem::create_directories(options_.store_dir + "/migrate", ec);
  }
  workers_.resize(static_cast<size_t>(options_.workers));
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (size_t i = 0; i < workers_.size(); ++i) spawn_worker(i);
  }
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

Supervisor::~Supervisor() { shutdown(); }

void Supervisor::wake() {
  // The scheduler tests queue_ under state_mutex_; taking it here means the
  // notification cannot fall between that test and the wait.
  { std::lock_guard<std::mutex> lock(state_mutex_); }
  state_cv_.notify_all();
}

void Supervisor::shutdown() {
  stop_accepting();
  std::lock_guard<std::mutex> teardown(teardown_mutex_);
  if (torn_down_) return;
  // The scheduler exits only when everything admitted has been answered
  // (queue drained, no retries, nothing in flight) — the drain promise.
  if (scheduler_.joinable()) scheduler_.join();
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (Worker& w : workers_) {
      // SHUT_RDWR (not close): the reader thread still recv()s on this
      // fd, and closing it here could let the number be reused under it.
      if (w.fd >= 0) ::shutdown(w.fd, SHUT_RDWR);
    }
  }
  state_cv_.notify_all();
  for (Worker& w : workers_) {
    if (w.reader.joinable()) w.reader.join();
  }
  // All readers are gone (each closed its fd and reaped its child on the
  // way out), so the graveyard can no longer grow.
  for (std::thread& t : reader_graveyard_) {
    if (t.joinable()) t.join();
  }
  reader_graveyard_.clear();
  torn_down_ = true;
}

SupervisorCounters Supervisor::counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  SupervisorCounters c = counters_;
  static_cast<HostCounters&>(c) = host_counters();
  return c;
}

std::vector<pid_t> Supervisor::worker_pids() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  std::vector<pid_t> pids;
  for (const Worker& w : workers_) {
    if (w.pid > 0) pids.push_back(w.pid);
  }
  return pids;
}

void Supervisor::write_stats_fields(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  out << ", \"workers\": " << options_.workers
      << ", \"dispatched\": " << counters_.dispatched
      << ", \"worker_restarts\": " << counters_.worker_restarts
      << ", \"migrations\": " << counters_.migrations
      << ", \"abandoned\": " << counters_.abandoned;
}

// state_mutex_ held by the caller.
void Supervisor::spawn_worker(size_t slot) {
  Worker& w = workers_[slot];
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return;  // retried later
  const pid_t pid = ::fork();
  if (pid == 0) {
    close_inherited_fds(sv[1]);
    // _exit, never exit: the child shares the parent's atexit handlers
    // and sanitizer end-of-process checks, which must run exactly once.
    ::_exit(worker_main(sv[1], options_));
  }
  ::close(sv[1]);
  if (pid < 0) {
    ::close(sv[0]);
    return;  // fork pressure; the scheduler retries the slot
  }
  w.pid = pid;
  w.fd = sv[0];
  w.busy = false;
  w.job_id = 0;
  w.reader = std::thread([this, slot] { reader_loop(slot); });
}

void Supervisor::reader_loop(size_t slot) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    fd = workers_[slot].fd;
  }
  std::string payload;
  while (fd >= 0 && recv_frame(fd, payload)) {
    uint64_t job_id = 0;
    std::string response;
    if (!decode_response_frame(payload, job_id, response)) break;
    Job job;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      auto it = inflight_.find(job_id);
      if (it != inflight_.end()) {
        job = std::move(it->second);
        inflight_.erase(it);
        found = true;
      }
      Worker& w = workers_[slot];
      if (w.busy && w.job_id == job_id) {
        w.busy = false;
        w.job_id = 0;
      }
    }
    if (found) {
      if (!options_.store_dir.empty()) {
        // The worker removes its checkpoint after responding, but a kill
        // between the two leaves the file; sweep it here as well.
        std::error_code ec;
        std::filesystem::remove(checkpoint_path(options_.store_dir, job_id), ec);
      }
      answer(job.ticket, std::move(response));
    }
    state_cv_.notify_all();
  }
  handle_worker_death(slot);
}

void Supervisor::handle_worker_death(size_t slot) {
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    Worker& w = workers_[slot];
    const pid_t pid = w.pid;
    if (w.fd >= 0) {
      ::close(w.fd);
      w.fd = -1;
    }
    w.pid = -1;
    if (pid > 0) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    if (w.busy) {
      // The in-flight job's response never (fully) arrived — the framing
      // is at-most-once, so re-running it cannot double-deliver. Retries
      // go to the front: this job was admitted and scheduled before
      // anything still queued.
      auto it = inflight_.find(w.job_id);
      if (it != inflight_.end()) {
        Job job = std::move(it->second);
        inflight_.erase(it);
        ++job.crashes;
        const bool has_checkpoint =
            !options_.store_dir.empty() &&
            std::filesystem::exists(checkpoint_path(options_.store_dir, job.job_id));
        retry_.push_front(std::move(job));
        std::lock_guard<std::mutex> clock(counters_mutex_);
        if (has_checkpoint) ++counters_.migrations;
      }
      w.busy = false;
      w.job_id = 0;
    }
    if (!stopping_.load()) {
      {
        std::lock_guard<std::mutex> clock(counters_mutex_);
        ++counters_.worker_restarts;
      }
      // This thread IS the dying worker's reader: it cannot join itself,
      // so it parks its own handle in the graveyard and hands the slot a
      // fresh worker + reader. The graveyard is joined at teardown.
      reader_graveyard_.push_back(std::move(w.reader));
      spawn_worker(slot);
    }
  }
  state_cv_.notify_all();
}

void Supervisor::scheduler_loop() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  const auto drained = [this] {
    return queue_.closed() && queue_.size() == 0 && retry_.empty() &&
           inflight_.empty();
  };
  const auto idle_slot = [this]() -> int {
    for (size_t i = 0; i < workers_.size(); ++i) {
      if (workers_[i].fd >= 0 && !workers_[i].busy) return static_cast<int>(i);
    }
    return -1;
  };
  const auto dead_slot = [this]() -> int {
    for (size_t i = 0; i < workers_.size(); ++i) {
      // fd < 0 with no live reader = a slot whose spawn failed (a slot
      // mid-death still has its reader running and is repaired there).
      if (workers_[i].fd < 0 && !workers_[i].reader.joinable()) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  for (;;) {
    state_cv_.wait(lock, [&] {
      if (drained()) return true;
      const bool work = !retry_.empty() || queue_.size() > 0;
      return work && (idle_slot() >= 0 || dead_slot() >= 0);
    });
    if (drained()) return;
    if (!stopping_.load()) {
      for (int slot = dead_slot(); slot >= 0; slot = dead_slot()) {
        spawn_worker(static_cast<size_t>(slot));
        if (workers_[static_cast<size_t>(slot)].fd < 0) {
          break;  // spawn still failing; wait for the next wakeup
        }
      }
    }
    if (idle_slot() < 0) continue;

    Job job;
    if (!retry_.empty()) {
      job = std::move(retry_.front());
      retry_.pop_front();
    } else if (queue_.try_pop(job.ticket)) {
      job.job_id = next_job_id_++;
    } else {
      continue;
    }

    // The checks answer the client, so they run without state_mutex_; the
    // idle slot is looked up again afterwards.
    lock.unlock();
    bool runnable = pick_up(job.ticket);
    if (runnable && job.crashes >= kMaxCrashes) {
      std::ostringstream out;
      write_error_response(out, job.ticket.id, kErrInternal,
                           "job abandoned after repeated worker failures");
      answer(job.ticket, out.str());
      std::lock_guard<std::mutex> clock(counters_mutex_);
      ++counters_.abandoned;
      runnable = false;
    }
    lock.lock();
    if (!runnable) continue;
    const int slot = idle_slot();
    if (slot < 0) {  // the worker died meanwhile: run this job first
      retry_.push_front(std::move(job));
      continue;
    }

    Worker& w = workers_[static_cast<size_t>(slot)];
    w.busy = true;
    w.job_id = job.job_id;
    const std::string frame = encode_job_frame(job.job_id, job.ticket.line);
    const int worker_fd = w.fd;
    inflight_.emplace(job.job_id, std::move(job));
    {
      std::lock_guard<std::mutex> clock(counters_mutex_);
      ++counters_.dispatched;
    }
    // Sent under state_mutex_ so the fd cannot be closed/reused by a
    // concurrent death handler. Frames are small and at most one job is
    // outstanding per worker, so this send cannot block on a full pipe.
    // If the worker just died, the send fails and its reader re-queues
    // the job exactly as for a mid-run death.
    send_frame(worker_fd, frame);
  }
}

}  // namespace dim::serve
