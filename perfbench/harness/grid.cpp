// table2_grid: the paper's 360-point Table 2 grid (18 kernels x C#1-3 x
// {16, 64, 256} slots x speculation on/off, plus the two ideal points per
// kernel) at scale 1, on accel::SweepEngine with one worker thread, event
// profiles off and a fresh system per point. The seed only permutes the
// order in which points run; the simulated results are fixed. Passes repeat
// until the time budget is spent; every host-time metric uses each point's
// fastest pass (see Fastest), and the spot slices in between count towards
// no point.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "accel/sweep.hpp"
#include "harness/common.hpp"

namespace pb {
namespace {

using dim::accel::SweepPoint;
using dim::accel::SweepResult;
using dim::accel::SystemConfig;

constexpr size_t kPointsPerKernel = 20;
constexpr size_t kSlotCounts[3] = {16, 64, 256};

dim::rra::ArrayShape shape_of(int index) {
  switch (index) {
    case 0: return dim::rra::ArrayShape::config1();
    case 1: return dim::rra::ArrayShape::config2();
    case 2: return dim::rra::ArrayShape::config3();
    default: return dim::rra::ArrayShape::ideal();
  }
}

struct GridCell {
  int shape_index;  // 3 = ideal
  bool spec;
  size_t slots;
};

// Per kernel: [config 0..2][nospec, spec][slots 16/64/256], then ideal
// nospec and ideal spec — the layout bench_table2_speedup prints.
std::vector<GridCell> grid_cells() {
  std::vector<GridCell> cells;
  for (int c = 0; c < 3; ++c) {
    for (int spec = 0; spec < 2; ++spec) {
      for (size_t slots : kSlotCounts) cells.push_back({c, spec == 1, slots});
    }
  }
  cells.push_back({3, false, size_t{1} << 20});
  cells.push_back({3, true, size_t{1} << 20});
  return cells;
}

}  // namespace

void run_table2_grid(const Options& opt, Report& report) {
  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  const Clock::time_point wall0 = Clock::now();

  // Set-up, repeated so its median is steady; the last repetition's kernels
  // are the ones the grid runs on, and only its checks count.
  const int setups = opt.tiny ? 1 : 3;
  std::vector<double> setup_s;
  std::vector<Kernel> kernels;
  for (int i = 0; i < setups; ++i) {
    Report discard;
    const Clock::time_point t0 = Clock::now();
    kernels = prepare_kernels(1, true, opt, tr, i + 1 == setups ? report : discard);
    setup_s.push_back(seconds_since(t0));
  }

  const std::vector<GridCell> layout = grid_cells();
  std::vector<SweepPoint> grid;
  for (const Kernel& k : kernels) {
    for (const GridCell& c : layout) {
      SweepPoint p;
      p.label = k.workload.name + "/" +
                (c.shape_index == 3 ? std::string("ideal")
                                    : "C" + std::to_string(c.shape_index + 1)) +
                (c.spec ? "/sp/" : "/ns/") + std::to_string(c.slots);
      p.program = &k.program;
      p.config = SystemConfig::with(shape_of(c.shape_index), c.slots, c.spec);
      p.baseline = &k.baseline;
      grid.push_back(std::move(p));
    }
  }
  std::vector<size_t> order(grid.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::mt19937_64 rng(opt.seed);
  std::shuffle(order.begin(), order.end(), rng);

  // The grid has no elastic points and its baselines are set-up, so both
  // paths are sampled in slices between grid points (one per kernel's worth
  // of points).
  SpotSampler spot(kernels, opt.tiny ? 20'000 : 50'000, tr, report);

  dim::accel::SweepOptions sweep_opts;
  sweep_opts.threads = 1;
  const dim::accel::SweepEngine engine(sweep_opts);
  std::vector<double> pass_wall;
  Fastest points;  // keyed by grid index
  std::vector<SweepResult> first;
  std::string first_json;
  do {
    std::vector<SweepResult> results(grid.size());
    double wall = 0;
    for (size_t n = 0; n < order.size(); ++n) {
      const size_t idx = order[n];
      if (n % kPointsPerKernel == 0) {
        spot.elastic_slice();
        spot.baseline_slice();
      }
      const Clock::time_point t0 = Clock::now();
      std::vector<SweepResult> r;
      {
        Span s(tr, "accel");
        r = engine.run({grid[idx]});
      }
      const double secs = seconds_since(t0);
      wall += secs;
      results[idx] = std::move(r[0]);
      results[idx].index = idx;
      points.add(std::to_string(idx), results[idx].accelerated.instructions, secs);
    }
    pass_wall.push_back(wall);

    for (size_t i = 0; i < results.size(); ++i) {
      const Kernel& k = kernels[i / kPointsPerKernel];
      report.op(results[i].transparent && !results[i].accelerated.hit_limit &&
                    results[i].accelerated.final_state.output == k.workload.expected_output,
                "grid_point_not_transparent");
    }
    std::ostringstream json;
    {
      Span s(tr, "accel");
      dim::accel::write_sweep_json(json, results);
    }
    if (first.empty()) {
      first = std::move(results);
      first_json = json.str();
      report.digest.add(first_json);
    } else {
      report.op(json.str() == first_json, "grid_pass_nondeterministic");
    }
  } while (seconds_since(wall0) + pass_wall.back() <= opt.seconds);
  const double main_wall = seconds_since(wall0);

  double speedup_sum = 0;
  double err_sum = 0;
  size_t err_n = 0;
  for (size_t i = 0; i < first.size(); ++i) {
    const double s = first[i].speedup();
    speedup_sum += s;
    const GridCell& c = layout[i % kPointsPerKernel];
    const double paper =
        paper_speedup(kernels[i / kPointsPerKernel].workload.name, c.shape_index, c.spec, c.slots);
    if (paper > 0) {
      err_sum += std::fabs(s - paper) / paper * 100.0;
      ++err_n;
    }
  }

  const PathRate fastest = points.total();
  const std::vector<double> point_ms = points.milliseconds();
  std::map<std::string, PathRate> rowsync_per_kernel;
  for (const auto& [idx, p] : points.per_unit()) {
    PathRate& kr = rowsync_per_kernel[kernels[std::stoul(idx) / kPointsPerKernel].workload.name];
    kr.instructions += p.instructions;
    kr.seconds += p.seconds;
  }
  report.notes["grid"] = std::to_string(grid.size()) + " points x " +
                         std::to_string(pass_wall.size()) + " passes";
  if (!opt.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("grid_wall_s", fastest.seconds, "s");
    report.metric("speedup_mean", speedup_sum / static_cast<double>(first.size()), "x");
    report.metric("table2_err_pct", err_n ? err_sum / static_cast<double>(err_n) : 0, "%");
    report.metric("baseline_minstr_s", spot.baseline.total().minstr_s(), "Minstr/s");
    report.metric("rowsync_minstr_s", fastest.minstr_s(), "Minstr/s");
    report.metric("elastic_minstr_s", spot.elastic.total().minstr_s(), "Minstr/s");
    report.metric("serve_p50_ms", percentile(point_ms, 0.50), "ms");
    report.metric("serve_p99_ms", percentile(point_ms, 0.99), "ms");
    report.metric("serve_max_rps", static_cast<double>(grid.size()) / fastest.seconds, "req/s");
    return;
  }

  emit_layer_table(tracer, main_wall, report);
  report.metric("accel.point_ms_p50", percentile(point_ms, 0.50), "ms");
  report.metric("accel.point_ms_p99", percentile(point_ms, 0.99), "ms");
  std::vector<double> json_ms;
  for (int i = 0; i < 3; ++i) {
    std::ostringstream json;
    const Clock::time_point t0 = Clock::now();
    dim::accel::write_sweep_json(json, first);
    json_ms.push_back(seconds_since(t0) * 1e3);
  }
  report.metric("accel.sweep_json_ms", median(json_ms), "ms");
  emit_per_kernel(report, "rowsync_minstr_s", rowsync_per_kernel);
  emit_per_kernel(report, "elastic_minstr_s", spot.elastic.per_unit());
  report.metric("serve.rejected_overload", 0, "count");
  report.metric("serve.worker_restarts", 0, "count");
  report.metric("serve.gen_lag_ms_p99", 0, "ms");
  report.metric("snap.store_hit_ratio", 0, "ratio");

  // Layer replays on the grid's most translation-heavy column: C#1 with
  // 16 slots and speculation, where the rcache evicts and rewrites.
  std::vector<LayerCell> cells;
  std::vector<std::string> lines;
  for (const Kernel& k : kernels) {
    cells.push_back({&k, SystemConfig::with(dim::rra::ArrayShape::config1(), 16, true)});
  }
  for (size_t i = 0; i < grid.size(); ++i) {
    const GridCell& c = layout[i % kPointsPerKernel];
    lines.push_back("{\"id\": " + std::to_string(i) + ", \"kind\": \"run\", \"workload\": \"" +
                    kernels[i / kPointsPerKernel].workload.name + "\", \"shape\": \"" +
                    (c.shape_index == 3 ? std::string("ideal")
                                        : "config" + std::to_string(c.shape_index + 1)) +
                    "\", \"slots\": " + std::to_string(std::min<size_t>(c.slots, 4096)) +
                    ", \"spec\": " + (c.spec ? "true" : "false") + "}");
  }
  measure_layers(cells, lines, opt, report);
}

}  // namespace pb
