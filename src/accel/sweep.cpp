#include "accel/sweep.hpp"

#include <atomic>
#include <exception>
#include <iomanip>
#include <mutex>
#include <thread>

#include "accel/stats_io.hpp"

namespace dim::accel {

SweepEngine::SweepEngine(SweepOptions options)
    : options_(options), threads_(options.threads) {
  if (threads_ == 0) threads_ = std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;  // hardware_concurrency may report 0
}

namespace {

SweepResult run_point(const SweepPoint& point, size_t index, bool collect_profile,
                      ResultCache* cache) {
  SweepResult result;
  if (cache != nullptr && cache->load(point, collect_profile, result)) {
    result.index = index;
    result.label = point.label;
    return result;
  }
  result.index = index;
  result.label = point.label;
  if (collect_profile) {
    // Worker-private sink: overrides any user-supplied sink so nothing is
    // shared across threads, and the profile is scheduling-independent.
    obs::ProfilingSink sink;
    SystemConfig config = point.config;
    config.event_sink = &sink;
    result.accelerated = run_accelerated(*point.program, config);
    result.profile = sink.table();
    result.has_profile = true;
  } else {
    result.accelerated = run_accelerated(*point.program, point.config);
  }
  if (point.baseline != nullptr) {
    result.baseline = *point.baseline;
    result.has_baseline = true;
  } else if (point.run_baseline) {
    result.baseline = baseline_as_stats(*point.program, point.config.machine);
    result.has_baseline = true;
  }
  if (result.has_baseline) {
    result.transparent = compare_runs(result.baseline, result.accelerated).transparent();
  }
  if (cache != nullptr) cache->store(point, collect_profile, result);
  return result;
}

}  // namespace

std::vector<SweepResult> SweepEngine::run(const std::vector<SweepPoint>& points) const {
  std::vector<SweepResult> results(points.size());
  if (points.empty()) return results;

  const auto canceled = [this]() {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_relaxed);
  };

  const unsigned workers =
      static_cast<unsigned>(std::min<size_t>(threads_, points.size()));
  if (workers <= 1) {
    for (size_t i = 0; i < points.size(); ++i) {
      if (canceled()) throw SweepCanceled();
      results[i] = run_point(points[i], i, options_.collect_profiles,
                             options_.result_cache);
    }
    return results;
  }

  // Work-stealing by atomic index: each slot of `results` is written by
  // exactly one worker, so the only shared mutable state is the counter
  // (and the error slot, guarded by a mutex). After any error no new point
  // is claimed; already-claimed points finish, so every point below the
  // erroring index has either completed or recorded its own error — which
  // makes "rethrow the lowest point index" scheduling-independent.
  std::atomic<size_t> next{0};
  std::atomic<bool> errored{false};
  std::mutex error_mutex;
  std::exception_ptr lowest_error;
  size_t lowest_error_index = 0;

  auto worker = [&]() {
    for (;;) {
      if (errored.load(std::memory_order_relaxed) || canceled()) return;
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) return;
      try {
        results[i] = run_point(points[i], i, options_.collect_profiles,
                               options_.result_cache);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!lowest_error || i < lowest_error_index) {
          lowest_error = std::current_exception();
          lowest_error_index = i;
        }
        errored.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (lowest_error) std::rethrow_exception(lowest_error);
  if (canceled() && next.load(std::memory_order_relaxed) < points.size()) {
    throw SweepCanceled();
  }
  return results;
}

void write_sweep_json(std::ostream& out, const std::vector<SweepResult>& results) {
  out << "{\n  \"points\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\n";
    out << "      \"index\": " << r.index << ",\n";
    out << "      \"label\": \"" << json_escape(r.label) << "\",\n";
    if (r.has_baseline) {
      out << "      \"speedup\": ";
      write_json_double(out, r.speedup());
      out << ",\n";
      out << "      \"transparent\": " << (r.transparent ? "true" : "false") << ",\n";
      out << "      \"baseline\": {\n";
      write_json_fields(out, r.baseline, "        ");
      out << "      },\n";
    }
    out << "      \"accelerated\": {\n";
    write_json_fields(out, r.accelerated, "        ");
    out << "      }\n    }";
  }
  out << "\n  ]\n}\n";
}

obs::ProfileTable aggregate_profiles(const std::vector<SweepResult>& results) {
  obs::ProfileTable total;
  for (const SweepResult& r : results) {
    if (r.has_profile) total.merge(r.profile);
  }
  return total;
}

}  // namespace dim::accel
