// long_runs: the 18 kernels run to completion in three passes per cycle —
// the standalone core with trace dispatch (scale 4), row-sync at C#2 / 64
// slots / speculation (scale 4), and elastic at capacity 4 with the same
// settings (scale 1, since elastic is about ten times slower on the host).
// Cycles repeat until the time budget is spent; every host-time metric uses
// each cell's fastest cycle (see Fastest). The seed permutes the kernel
// order inside each cycle.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "accel/stats_io.hpp"
#include "accel/sweep.hpp"
#include "harness/common.hpp"
#include "sim/machine.hpp"

namespace pb {
namespace {

dim::accel::AccelStats as_stats(const dim::sim::RunResult& r) {
  dim::accel::AccelStats s;
  s.instructions = r.instructions;
  s.proc_instructions = r.instructions;
  s.cycles = r.cycles;
  s.proc_cycles = r.cycles;
  s.proc_mem_accesses = r.mem_accesses;
  s.hit_limit = r.hit_limit;
  s.final_state = r.state;
  s.memory_hash = r.memory_hash;
  return s;
}

std::string stats_json(const dim::accel::AccelStats& s, const std::string& label) {
  std::ostringstream out;
  dim::accel::write_json(out, s, label);
  return out.str();
}

}  // namespace

void run_long_runs(const Options& opt, Report& report) {
  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  const Clock::time_point wall0 = Clock::now();
  const int long_scale = opt.tiny ? 1 : 4;

  // Set-up: the long programs (no baselines: the baseline pass is timed)
  // and the scale-1 programs with their baselines for the elastic checks.
  const int setups = opt.tiny ? 1 : 3;
  std::vector<double> setup_s;
  std::vector<Kernel> big;
  std::vector<Kernel> small;
  for (int i = 0; i < setups; ++i) {
    Report discard;
    Report& r = i + 1 == setups ? report : discard;
    const Clock::time_point t0 = Clock::now();
    big = prepare_kernels(long_scale, false, opt, tr, r);
    small = prepare_kernels(1, true, opt, tr, r);
    setup_s.push_back(seconds_since(t0));
  }
  const size_t n = big.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::mt19937_64 rng(opt.seed);
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<double> cycle_wall;
  Fastest base, rowsync, elastic;  // keyed by kernel
  // First-cycle results: the digest, the speedups and the reference every
  // later cycle must reproduce byte for byte.
  std::vector<dim::accel::AccelStats> base_first(n), rowsync_first(n), elastic_first(n);
  std::vector<std::string> json_first;
  const auto timed = [](Fastest& path, const std::string& kernel, auto&& body) {
    const Clock::time_point t0 = Clock::now();
    dim::accel::AccelStats st = body();
    path.add(kernel, st.instructions, seconds_since(t0));
    return st;
  };
  do {
    // The three paths run back to back per kernel, so host-speed drift hits
    // them alike and each path's samples span the whole cycle.
    const Clock::time_point cycle0 = Clock::now();
    std::vector<dim::accel::AccelStats> base_now(n), rowsync_now(n), elastic_now(n);
    for (const size_t i : order) {
      const std::string& name = big[i].workload.name;
      base_now[i] = timed(base, name, [&] {
        Span s(tr, "sim");
        return as_stats(dim::sim::run_baseline(big[i].program));
      });
      report.op(!base_now[i].hit_limit &&
                    base_now[i].final_state.output == big[i].workload.expected_output,
                "baseline_output_mismatch");
      rowsync_now[i] = timed(rowsync, name, [&] {
        Span s(tr, "accel");
        dim::accel::AcceleratedSystem system(big[i].program, rowsync_config());
        return system.run();
      });
      report.op(!rowsync_now[i].hit_limit &&
                    rowsync_now[i].final_state.output == big[i].workload.expected_output &&
                    rowsync_now[i].memory_hash == base_now[i].memory_hash,
                "rowsync_not_transparent");
      elastic_now[i] = timed(elastic, name, [&] {
        Span s(tr, "accel");
        dim::accel::AcceleratedSystem system(small[i].program, elastic_config());
        return system.run();
      });
      report.op(!elastic_now[i].hit_limit &&
                    elastic_now[i].final_state.output == small[i].workload.expected_output &&
                    elastic_now[i].memory_hash == small[i].baseline.memory_hash,
                "elastic_not_transparent");
    }
    cycle_wall.push_back(seconds_since(cycle0));

    std::vector<std::string> json;
    for (size_t i = 0; i < n; ++i) {
      const std::string& name = big[i].workload.name;
      json.push_back(stats_json(base_now[i], name + "/baseline"));
      json.push_back(stats_json(rowsync_now[i], name + "/rowsync"));
      json.push_back(stats_json(elastic_now[i], name + "/elastic"));
    }
    if (json_first.empty()) {
      base_first = base_now;
      rowsync_first = rowsync_now;
      elastic_first = elastic_now;
      json_first = json;
      for (const std::string& j : json) report.digest.add(j);
    } else {
      report.op(json == json_first, "long_cycle_nondeterministic");
    }
  } while (seconds_since(wall0) + cycle_wall.back() <= opt.seconds);
  const double main_wall = seconds_since(wall0);

  double speedup_sum = 0;
  double err_sum = 0;
  for (size_t i = 0; i < n; ++i) {
    const double rs = static_cast<double>(base_first[i].cycles) / rowsync_first[i].cycles;
    const double el =
        static_cast<double>(small[i].baseline.cycles) / elastic_first[i].cycles;
    speedup_sum += rs + el;
    const double paper = paper_speedup(big[i].workload.name, 1, true, 64);
    err_sum += std::fabs(rs - paper) / paper * 100.0;
  }

  std::vector<double> cell_ms = base.milliseconds();
  for (const Fastest* f : {&rowsync, &elastic}) {
    const std::vector<double> ms = f->milliseconds();
    cell_ms.insert(cell_ms.end(), ms.begin(), ms.end());
  }
  const double wall =
      base.total().seconds + rowsync.total().seconds + elastic.total().seconds;
  report.notes["long_runs"] = std::to_string(n) + " kernels x 3 passes x " +
                              std::to_string(cycle_wall.size()) + " cycles";
  if (!opt.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("grid_wall_s", wall, "s");
    report.metric("speedup_mean", speedup_sum / static_cast<double>(2 * n), "x");
    report.metric("table2_err_pct", err_sum / static_cast<double>(n), "%");
    report.metric("baseline_minstr_s", base.total().minstr_s(), "Minstr/s");
    report.metric("rowsync_minstr_s", rowsync.total().minstr_s(), "Minstr/s");
    report.metric("elastic_minstr_s", elastic.total().minstr_s(), "Minstr/s");
    // A user of this workload waits for a whole cycle; per-cell latencies
    // mix three paths and 18 kernels, so their median jumps between cells.
    report.metric("serve_p50_ms", median(cycle_wall) * 1e3, "ms");
    report.metric("serve_p99_ms", percentile(cycle_wall, 0.99) * 1e3, "ms");
    report.metric("serve_max_rps", static_cast<double>(3 * n) / wall, "req/s");
    return;
  }

  emit_layer_table(tracer, main_wall, report);
  report.metric("accel.point_ms_p50", percentile(cell_ms, 0.50), "ms");
  report.metric("accel.point_ms_p99", percentile(cell_ms, 0.99), "ms");
  std::vector<dim::accel::SweepResult> sweep(n);
  for (size_t i = 0; i < n; ++i) {
    sweep[i].index = i;
    sweep[i].label = big[i].workload.name + "/rowsync";
    sweep[i].accelerated = rowsync_first[i];
    sweep[i].baseline = base_first[i];
    sweep[i].has_baseline = true;
  }
  std::vector<double> json_ms;
  for (int i = 0; i < 3; ++i) {
    std::ostringstream out;
    const Clock::time_point t0 = Clock::now();
    dim::accel::write_sweep_json(out, sweep);
    json_ms.push_back(seconds_since(t0) * 1e3);
  }
  report.metric("accel.sweep_json_ms", median(json_ms), "ms");
  emit_per_kernel(report, "rowsync_minstr_s", rowsync.per_unit());
  emit_per_kernel(report, "elastic_minstr_s", elastic.per_unit());
  report.metric("serve.rejected_overload", 0, "count");
  report.metric("serve.worker_restarts", 0, "count");
  report.metric("serve.gen_lag_ms_p99", 0, "ms");
  report.metric("snap.store_hit_ratio", 0, "ratio");

  std::vector<LayerCell> cells;
  std::vector<std::string> lines;
  for (size_t i = 0; i < n; ++i) {
    cells.push_back({&big[i], rowsync_config()});
    lines.push_back("{\"id\": " + std::to_string(i) + ", \"kind\": \"run\", \"workload\": \"" +
                    big[i].workload.name + "\", \"scale\": " + std::to_string(long_scale) +
                    ", \"shape\": \"config2\", \"slots\": 64, \"spec\": true}");
  }
  measure_layers(cells, lines, opt, report);
}

}  // namespace pb
