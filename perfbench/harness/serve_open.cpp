// serve_open: a seeded Poisson open loop from one client thread into an
// in-process serve::Supervisor with two forked workers of one engine
// thread each. Every request opens its own session (independent users),
// so a slow request never holds back another's response.
//
// The mix: plain runs and 2-cell sweeps over fresh cells, budgeted runs
// several checkpoint intervals long (each chunk encodes and writes a
// migration snapshot), and 30% repeats of earlier cells (result-store
// reads). Fresh cells are drawn without replacement, weighted towards
// short kernels so the service keeps a useful capacity; budgeted runs
// cover every kernel. Latency is timed from each request's due time.
//
// Steps: a short warm-up of budgeted runs for the freshly forked workers,
// a nominal step of 1000 requests at a fixed rate, then a short ladder of
// fixed higher rates. serve_max_rps is the highest ladder rate
// whose p99 stays within 1 s without a growing backlog, on a valid step
// (generator lag p99 within bound).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "accel/stats_io.hpp"
#include "accel/sweep.hpp"
#include "harness/common.hpp"
#include "serve/json.hpp"
#include "serve/supervisor.hpp"

namespace pb {
namespace {

constexpr double kNominalRps = 35;
constexpr double kLadderRps[] = {45, 55, 65};
constexpr size_t kNominalRequests = 1000;
constexpr size_t kWarmupRequests = 50;
constexpr uint64_t kContentSeed = 20080310;
constexpr double kLadderStepSeconds = 2.5;
constexpr uint64_t kCheckpointInterval = 32768;
constexpr double kMaxLagMs = 25;
// Fresh cells come from kernels at most this long at scale 1, which keeps
// the service-time tail short enough for a steady p99 (budgeted runs still
// cover every kernel).
constexpr uint64_t kMaxFreshInstructions = 500'000;
constexpr double kLatencyLimitMs = 1000;

const char* const kShapeNames[] = {"config1", "config2", "config3", "ideal"};
constexpr size_t kSlotPairs[][2] = {{16, 64}, {256, 8}, {12, 32}, {48, 128}, {192, 4}, {24, 96}};

// kRepeat only exists while planning: a repeat is a copy of an earlier
// plain or sweep request.
enum class Kind { kPlain, kSweep, kBudget, kRepeat };

struct Cell {
  size_t kernel;
  int shape;
  bool spec;
  size_t slots;
};

struct Request {
  Kind kind = Kind::kPlain;
  std::string body;  // everything after `{"id": <n>, `
  size_t kernel = 0;
  std::vector<Cell> cells;  // plain / sweep
  uint64_t budget = 0;
};

struct Step {
  double rate = 0;
  std::vector<Request> requests;
  std::vector<double> offsets_s;  // due time relative to the step start
};

struct Unit {
  size_t kernel;
  int shape;
  bool spec;
  size_t pair;
};

std::string cell_body(const std::string& kernel, int shape, bool spec) {
  return "\"workload\": \"" + kernel + "\", \"shape\": \"" + kShapeNames[shape] +
         "\", \"spec\": " + (spec ? "true" : "false");
}

// Builds every step's requests and Poisson arrival offsets. The fresh
// cells and budgeted runs of each step come from a fixed seed, so every run
// simulates the same set of distinct cells and the simulated statistics it
// aggregates are exact; the benchmark seed sets the order of request kinds
// inside each step, which earlier cells are repeated, and arrival times.
std::vector<Step> plan(const std::vector<Kernel>& kernels, const Options& opt) {
  std::mt19937_64 content(kContentSeed);
  std::mt19937_64 order(opt.seed);
  std::uniform_real_distribution<double> unit01(0.0, 1.0);

  // Fresh 2-cell units, in a weighted random order without replacement
  // (Efraimidis-Spirakis keys); weight ~ 1 / instructions, so every kernel
  // gets about the same share of the simulated work. The first units
  // cover every eligible kernel once.
  std::vector<std::pair<double, Unit>> keyed;
  for (size_t k = 0; k < kernels.size(); ++k) {
    if (kernels[k].baseline.instructions > kMaxFreshInstructions) continue;
    const double w = 1.0 / static_cast<double>(kernels[k].baseline.instructions);
    for (int shape = 0; shape < 4; ++shape) {
      for (int spec = 0; spec < 2; ++spec) {
        for (size_t pair = 0; pair < std::size(kSlotPairs); ++pair) {
          const double key = -std::log(1.0 - unit01(content)) / w;
          keyed.push_back({key, Unit{k, shape, spec == 1, pair}});
        }
      }
    }
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Unit> fresh;
  std::vector<bool> taken(keyed.size(), false);
  std::vector<bool> covered(kernels.size(), false);
  for (size_t i = 0; i < keyed.size(); ++i) {
    const Unit& u = keyed[i].second;
    if (!covered[u.kernel]) {
      covered[u.kernel] = true;
      taken[i] = true;
      fresh.push_back(u);
    }
  }
  for (size_t i = 0; i < keyed.size(); ++i) {
    if (!taken[i]) fresh.push_back(keyed[i].second);
  }
  size_t next_fresh = 0;

  // Step 0 warms the freshly forked workers up with budgeted runs only (no
  // store traffic); step 1 is the nominal step; the ladder follows.
  std::vector<double> rates = {kNominalRps, kNominalRps};
  for (const double r : kLadderRps) rates.push_back(r);
  std::vector<Step> steps;
  std::vector<Request> cell_requests;  // plain / sweep requests so far
  for (size_t s = 0; s < rates.size(); ++s) {
    Step step;
    step.rate = opt.tiny ? rates[s] / 4 : rates[s];
    size_t n = static_cast<size_t>(std::lround(rates[s] * kLadderStepSeconds));
    if (s == 0) n = kWarmupRequests;
    if (s == 1) n = kNominalRequests;
    if (opt.tiny) n = s == 1 ? 40 : 10;
    const size_t repeats = s == 0 ? 0 : n * 3 / 10;
    const size_t budgets = s == 0 ? n : n * 4 / 10;
    const size_t sweeps = s == 0 ? 0 : n / 10;
    const size_t plains = n - repeats - budgets - sweeps;
    if (next_fresh + plains + sweeps > fresh.size()) {
      throw std::runtime_error("serve_open plan needs more fresh cells than exist");
    }
    // The fixed content of the step: its fresh units and budgeted runs.
    std::vector<Unit> plain_units(fresh.begin() + next_fresh,
                                  fresh.begin() + next_fresh + plains);
    next_fresh += plains;
    std::vector<Unit> sweep_units(fresh.begin() + next_fresh,
                                  fresh.begin() + next_fresh + sweeps);
    next_fresh += sweeps;
    std::vector<Request> budget_runs;
    for (size_t i = 0; i < budgets; ++i) {
      Request req;
      req.kind = Kind::kBudget;
      req.kernel = static_cast<size_t>(content() % kernels.size());
      const int shape = static_cast<int>(content() % 3);
      const bool spec = content() % 2 == 1;
      req.budget = kCheckpointInterval * (2 + content() % 3);
      req.body = "\"kind\": \"run\", " +
                 cell_body(kernels[req.kernel].workload.name, shape, spec) +
                 ", \"slots\": 64, \"budget\": " + std::to_string(req.budget) + "}";
      budget_runs.push_back(std::move(req));
    }
    // The seeded part: the kind of each arrival slot, then content in that
    // order. A repeat re-sends a cell request that went out earlier.
    std::vector<Kind> kinds;
    kinds.insert(kinds.end(), plains, Kind::kPlain);
    kinds.insert(kinds.end(), sweeps, Kind::kSweep);
    kinds.insert(kinds.end(), budgets, Kind::kBudget);
    kinds.insert(kinds.end(), repeats, Kind::kRepeat);
    std::shuffle(kinds.begin(), kinds.end(), order);
    const auto is_cell = [](Kind k) { return k == Kind::kPlain || k == Kind::kSweep; };
    bool have_cell = !cell_requests.empty();
    for (auto it = kinds.begin(); it != kinds.end() && !have_cell; ++it) {
      if (*it == Kind::kRepeat) std::iter_swap(it, std::find_if(it, kinds.end(), is_cell));
      have_cell = is_cell(*it);
    }
    size_t next_plain = 0, next_sweep = 0, next_budget = 0;
    for (const Kind kind : kinds) {
      Request req;
      req.kind = kind;
      if (kind == Kind::kPlain || kind == Kind::kSweep) {
        const Unit u = kind == Kind::kPlain ? plain_units[next_plain++] : sweep_units[next_sweep++];
        req.kernel = u.kernel;
        const std::string& name = kernels[u.kernel].workload.name;
        const size_t a = kSlotPairs[u.pair][0], b = kSlotPairs[u.pair][1];
        if (kind == Kind::kPlain) {
          req.body = "\"kind\": \"run\", " + cell_body(name, u.shape, u.spec) +
                     ", \"slots\": " + std::to_string(a) + "}";
          req.cells = {{u.kernel, u.shape, u.spec, a}};
        } else {
          req.body = "\"kind\": \"sweep\", \"workload\": \"" + name + "\", \"shapes\": [\"" +
                     kShapeNames[u.shape] + "\"], \"spec_axis\": [" +
                     (u.spec ? "true" : "false") + "], \"slots_axis\": [" +
                     std::to_string(a) + ", " + std::to_string(b) + "]}";
          req.cells = {{u.kernel, u.shape, u.spec, a}, {u.kernel, u.shape, u.spec, b}};
        }
        cell_requests.push_back(req);
      } else if (kind == Kind::kBudget) {
        req = budget_runs[next_budget++];
      } else {
        req = cell_requests[order() % cell_requests.size()];
        req.kind = Kind::kRepeat;
      }
      step.requests.push_back(std::move(req));
    }
    std::exponential_distribution<double> gap(step.rate);
    double t = 0;
    for (size_t i = 0; i < n; ++i) {
      t += gap(order);
      step.offsets_s.push_back(t);
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

struct Received {
  int count = 0;
  Clock::time_point at{};
  std::string line;
};

struct StepResult {
  double p50_ms = 0, p99_ms = 0, lag_p99_ms = 0, makespan_s = 0;
  bool backlog_growing = false;
  bool valid = true;
  uint64_t failures = 0;
  bool qualifies() const {
    return valid && failures == 0 && !backlog_growing && p99_ms <= kLatencyLimitMs;
  }
};

// Everything after the id echo, so repeats compare equal.
std::string strip_id(const std::string& line) {
  const size_t comma = line.find(", ");
  return comma == std::string::npos ? line : line.substr(comma);
}

}  // namespace

void run_serve_open(const Options& opt, Report& report) {
  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  const Clock::time_point wall0 = Clock::now();

  const int setups = opt.tiny ? 1 : 3;
  std::vector<double> setup_s;
  std::vector<Kernel> kernels;
  std::vector<Step> steps;
  std::unique_ptr<dim::serve::Supervisor> supervisor;
  std::string store_dir;
  for (int i = 0; i < setups; ++i) {
    if (supervisor) {
      Span s(tr, "serve");
      supervisor->shutdown();
      supervisor.reset();
      std::filesystem::remove_all(store_dir);
    }
    Report discard;
    const Clock::time_point t0 = Clock::now();
    kernels = prepare_kernels(1, true, opt, tr, i + 1 == setups ? report : discard);
    steps = plan(kernels, opt);
    store_dir = opt.scratch_dir + "/serve-store-" + std::to_string(static_cast<long>(getpid()));
    std::filesystem::remove_all(store_dir);
    {
      Span s(tr, "serve");
      dim::serve::SupervisorOptions so;
      so.workers = 2;
      so.engine_threads = 1;
      so.store_dir = store_dir;
      so.checkpoint_interval = kCheckpointInterval;
      so.queue_capacity = 1u << 20;  // never refuse: overload shows as backlog
      supervisor = std::make_unique<dim::serve::Supervisor>(so);
      std::mutex mu;
      std::string pong;
      auto session = supervisor->open_session([&](const std::string& line) {
        std::lock_guard<std::mutex> lock(mu);
        pong = line;
      });
      session->submit("{\"id\": \"ping\", \"kind\": \"ping\"}");
      session->drain();
      if (i + 1 == setups) report.op(pong.find("\"pong\"") != std::string::npos, "ping_failed");
    }
    setup_s.push_back(seconds_since(t0));
  }

  // Spot slices on the served kernels, taken while the workers are idle
  // between steps: the standalone core, the row-sync path every run request
  // takes, and the elastic personality. Six windows of six slices per path
  // time every kernel twice.
  SpotSampler spot(kernels, opt.tiny ? 20'000 : 50'000, tr, report);
  const auto spot_window = [&] {
    for (int i = 0; i < 6; ++i) {
      spot.baseline_slice();
      spot.rowsync_slice();
      spot.elastic_slice();
    }
  };
  spot_window();

  // The open loop, one step at a time; each step drains before the next.
  std::vector<std::string> bodies;             // response per global request
  std::map<std::string, size_t> first_sent;     // request body -> first global index
  std::vector<std::string> request_lines;
  std::vector<StepResult> results;
  std::map<std::string, std::pair<Cell, double>> cell_speedup;  // distinct served cells
  std::vector<double> all_lag;
  uint64_t requested_cells = 0;
  size_t global = 0;
  for (const Step& step : steps) {
    const size_t n = step.requests.size();
    std::mutex mu;
    std::vector<Received> got(n);
    std::atomic<uint64_t> received{0};
    std::vector<std::shared_ptr<dim::serve::SessionHost::Session>> sessions(n);
    std::vector<double> lag_ms(n), outstanding(n);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
    std::vector<Clock::time_point> due(n);
    for (size_t i = 0; i < n; ++i) {
      due[i] = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(step.offsets_s[i]));
      const std::string line =
          "{\"id\": " + std::to_string(global + i) + ", " + step.requests[i].body;
      request_lines.push_back(line);
      {
        Span s(tr, "idle");
        std::this_thread::sleep_until(due[i]);
      }
      lag_ms[i] = seconds_between(due[i], Clock::now()) * 1e3;
      outstanding[i] = static_cast<double>(i) - static_cast<double>(received.load());
      Span s(tr, "serve");
      sessions[i] = supervisor->open_session([&, i](const std::string& out) {
        const Clock::time_point at = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        Received& r = got[i];
        if (++r.count == 1) {
          r.at = at;
          r.line = out;
        }
        received.fetch_add(1);
      });
      sessions[i]->submit(line);
    }
    {
      Span s(tr, "serve");
      for (const auto& session : sessions) session->drain();
    }

    StepResult sr;
    std::vector<double> lat_ms;
    Clock::time_point last = start;
    for (size_t i = 0; i < n; ++i) {
      const Request& req = step.requests[i];
      const Received& r = got[i];
      std::string error;
      if (r.count != 1) {
        error = r.count == 0 ? "missing_response" : "duplicate_response";
      } else {
        last = std::max(last, r.at);
        lat_ms.push_back(seconds_between(due[i], r.at) * 1e3);
        report.digest.add(r.line);
        dim::serve::JsonValue doc;
        try {
          doc = dim::serve::parse_json(r.line);
        } catch (const dim::serve::JsonError&) {
        }
        const dim::serve::JsonValue* ok = doc.get("ok");
        if (ok == nullptr || !ok->boolean) {
          const dim::serve::JsonValue* e = doc.get("error");
          error = e != nullptr ? e->string : "malformed_response";
        } else if (const auto seen = first_sent.find(req.body); seen != first_sent.end()) {
          if (strip_id(r.line) != strip_id(bodies[seen->second])) error = "repeat_mismatch";
        } else if (req.kind == Kind::kBudget) {
          const dim::serve::JsonValue* t = doc.get("transparent");
          const dim::serve::JsonValue* b = doc.get("baseline");
          const uint64_t expect = std::min(req.budget, kernels[req.kernel].baseline.instructions);
          if (t == nullptr || !t->boolean || b == nullptr ||
              b->get("instructions")->as_u64() != expect) {
            error = "budgeted_run_mismatch";
          }
        } else if (req.kind == Kind::kPlain) {
          const dim::serve::JsonValue* t = doc.get("transparent");
          const dim::serve::JsonValue* b = doc.get("baseline");
          const dim::serve::JsonValue* st = doc.get("stats");
          const accel::AccelStats& ref = kernels[req.kernel].baseline;
          if (t == nullptr || !t->boolean || b == nullptr || st == nullptr ||
              b->get("cycles")->as_u64() != ref.cycles ||
              st->get("instructions")->as_u64() != ref.instructions) {
            error = "run_not_transparent";
          } else {
            cell_speedup[req.body] = {req.cells[0], doc.get("speedup")->number};
          }
        } else {
          const dim::serve::JsonValue* pts = doc.get("points");
          if (pts == nullptr || pts->array.size() != req.cells.size()) {
            error = "sweep_shape_mismatch";
          } else {
            for (size_t c = 0; c < req.cells.size(); ++c) {
              const dim::serve::JsonValue& p = pts->array[c];
              const dim::serve::JsonValue* t = p.get("transparent");
              if (t == nullptr || !t->boolean ||
                  p.get("instructions")->as_u64() !=
                      kernels[req.kernel].baseline.instructions) {
                error = "sweep_not_transparent";
                break;
              }
              cell_speedup[req.body + "#" + std::to_string(req.cells[c].slots)] = {
                  req.cells[c], p.get("speedup")->number};
            }
          }
        }
      }
      if (!error.empty()) ++sr.failures;
      report.op(error.empty(), error);
      first_sent.emplace(req.body, global + i);
      bodies.push_back(r.line);
      requested_cells += req.cells.size();
    }
    global += n;

    sr.p50_ms = percentile(lat_ms, 0.50);
    sr.p99_ms = percentile(lat_ms, 0.99);
    sr.lag_p99_ms = percentile(lag_ms, 0.99);
    sr.valid = sr.lag_p99_ms <= kMaxLagMs;
    sr.makespan_s = seconds_between(start, last);
    // Backlog: least-squares trend of the requests in flight at each
    // arrival. A step the service keeps up with stays flat; one it cannot
    // gains more than a tenth of its requests over the step.
    double mt = 0, mo = 0;
    for (size_t i = 0; i < n; ++i) {
      mt += step.offsets_s[i];
      mo += outstanding[i];
    }
    mt /= static_cast<double>(n);
    mo /= static_cast<double>(n);
    double sxy = 0, sxx = 0;
    for (size_t i = 0; i < n; ++i) {
      sxy += (step.offsets_s[i] - mt) * (outstanding[i] - mo);
      sxx += (step.offsets_s[i] - mt) * (step.offsets_s[i] - mt);
    }
    const double growth = sxx > 0 ? sxy / sxx * step.offsets_s.back() : 0;
    sr.backlog_growing = growth > std::max(5.0, 0.1 * static_cast<double>(n));
    all_lag.insert(all_lag.end(), lag_ms.begin(), lag_ms.end());
    if (!sr.valid) ++report.errors["step_invalid_generator_lag"];
    report.notes["step_" + std::to_string(results.size())] =
        std::to_string(n) + " req @ " + std::to_string(step.rate) + " req/s: p50 " +
        std::to_string(sr.p50_ms) + " ms, p99 " + std::to_string(sr.p99_ms) + " ms, lag p99 " +
        std::to_string(sr.lag_p99_ms) + " ms, backlog " +
        (sr.backlog_growing ? "GROWING" : "flat") + (sr.valid ? "" : ", INVALID");
    results.push_back(sr);
    spot_window();
  }

  const dim::serve::SupervisorCounters counters = supervisor->counters();
  {
    Span s(tr, "serve");
    supervisor->shutdown();
    supervisor.reset();
  }
  const double main_wall = seconds_since(wall0);
  size_t stored_cells = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(store_dir + "/cells", ec)) {
    stored_cells += entry.is_regular_file() ? 1 : 0;
  }
  std::filesystem::remove_all(store_dir, ec);

  double max_rps = 0;
  for (size_t s = 2; s < results.size(); ++s) {
    if (results[s].qualifies()) max_rps = std::max(max_rps, steps[s].rate);
  }
  double speedup_sum = 0, err_sum = 0;
  size_t err_n = 0;
  for (const auto& [key, cell] : cell_speedup) {
    const auto& [c, speedup] = cell;
    speedup_sum += speedup;
    const double paper =
        c.shape < 3 ? paper_speedup(kernels[c.kernel].workload.name, c.shape, c.spec, c.slots)
                    : -1;
    if (paper > 0) {
      err_sum += std::fabs(speedup - paper) / paper * 100.0;
      ++err_n;
    }
  }

  const StepResult& nominal = results[1];
  if (!opt.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("grid_wall_s", nominal.makespan_s, "s");
    report.metric("speedup_mean",
                  cell_speedup.empty() ? 0 : speedup_sum / static_cast<double>(cell_speedup.size()),
                  "x");
    report.metric("table2_err_pct", err_n ? err_sum / static_cast<double>(err_n) : 0, "%");
    report.metric("baseline_minstr_s", spot.baseline.total().minstr_s(), "Minstr/s");
    report.metric("rowsync_minstr_s", spot.rowsync.total().minstr_s(), "Minstr/s");
    report.metric("elastic_minstr_s", spot.elastic.total().minstr_s(), "Minstr/s");
    report.metric("serve_p50_ms", nominal.p50_ms, "ms");
    report.metric("serve_p99_ms", nominal.p99_ms, "ms");
    report.metric("serve_max_rps", max_rps, "req/s");
    return;
  }

  emit_layer_table(tracer, main_wall, report);
  report.metric("accel.point_ms_p50", percentile(spot.rowsync.milliseconds(), 0.50), "ms");
  report.metric("accel.point_ms_p99", percentile(spot.rowsync.milliseconds(), 0.99), "ms");
  std::vector<accel::SweepResult> records(kernels.size());
  for (size_t i = 0; i < kernels.size(); ++i) {
    records[i].index = i;
    records[i].label = kernels[i].workload.name;
    records[i].accelerated = kernels[i].baseline;
    records[i].baseline = kernels[i].baseline;
    records[i].has_baseline = true;
  }
  std::vector<double> json_ms;
  for (int i = 0; i < 3; ++i) {
    std::ostringstream out;
    const Clock::time_point t0 = Clock::now();
    accel::write_sweep_json(out, records);
    json_ms.push_back(seconds_since(t0) * 1e3);
  }
  report.metric("accel.sweep_json_ms", median(json_ms), "ms");
  emit_per_kernel(report, "rowsync_minstr_s", spot.rowsync.per_unit());
  emit_per_kernel(report, "elastic_minstr_s", spot.elastic.per_unit());
  report.metric("serve.rejected_overload", static_cast<double>(counters.rejected_overload),
                "count");
  report.metric("serve.worker_restarts", static_cast<double>(counters.worker_restarts), "count");
  report.metric("serve.gen_lag_ms_p99", percentile(all_lag, 0.99), "ms");
  report.metric("snap.store_hit_ratio",
                requested_cells ? 1.0 - static_cast<double>(stored_cells) / requested_cells : 0,
                "ratio");

  std::vector<LayerCell> cells;
  for (const Kernel& k : kernels) cells.push_back({&k, rowsync_config()});
  measure_layers(cells, request_lines, opt, report);
}

}  // namespace pb
