#include "harness/common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "asm/assembler.hpp"
#include "bench/paper_reference.hpp"
#include "sim/machine.hpp"

namespace pb {

void Tracer::enter(const char* layer) { stack_.push_back({layer, Clock::now(), 0}); }

void Tracer::leave() {
  const Frame f = stack_.back();
  stack_.pop_back();
  const double total = seconds_since(f.start);
  self_[f.layer] += total - f.child;
  if (!stack_.empty()) stack_.back().child += total;
}

void Digest::add(const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Report::op(bool ok, const std::string& error) {
  ++attempted;
  if (!ok) {
    ++failed;
    ++errors[error];
  }
}

std::vector<std::string> kernel_names(const Options& opt) {
  std::vector<std::string> names = dim::work::workload_names();
  if (opt.tiny) names.resize(3);
  return names;
}

std::vector<Kernel> prepare_kernels(int scale, bool baselines, const Options& opt,
                                    Tracer* tracer, Report& report) {
  std::vector<Kernel> kernels;
  for (const std::string& name : kernel_names(opt)) {
    Kernel k;
    k.scale = scale;
    {
      Span s(tracer, "work");
      k.workload = dim::work::make_workload(name, scale);
    }
    if (opt.inject_failure && kernels.empty()) k.workload.expected_output += "#";
    {
      Span s(tracer, "asm");
      k.program = dim::asmblr::assemble(k.workload.source);
    }
    if (baselines) {
      {
        // baseline_as_stats is a thin wrapper over sim::run_baseline, so
        // the time is charged to the simulator layer.
        Span s(tracer, "sim");
        k.baseline = dim::accel::baseline_as_stats(k.program, dim::sim::MachineConfig{});
      }
      report.op(k.baseline.final_state.output == k.workload.expected_output &&
                    !k.baseline.hit_limit,
                "baseline_output_mismatch");
    }
    kernels.push_back(std::move(k));
  }
  return kernels;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

dim::accel::SystemConfig rowsync_config() {
  return dim::accel::SystemConfig::with(dim::rra::ArrayShape::config2(), 64, true);
}

dim::accel::SystemConfig elastic_config() {
  dim::accel::SystemConfig c = rowsync_config();
  c.exec_mode.mode = dim::rra::ExecMode::kElastic;
  c.exec_mode.fifo_capacity = 4;
  return c;
}

void emit_per_kernel(Report& report, const std::string& suffix,
                     const std::map<std::string, PathRate>& rates) {
  for (const std::string& name : dim::work::workload_names()) {
    const auto it = rates.find(name);
    report.metric("accel." + name + "." + suffix, it == rates.end() ? 0 : it->second.minstr_s(),
                  "Minstr/s");
  }
}

void Fastest::add(const std::string& unit, uint64_t instructions, double seconds) {
  PathRate& b = best_[unit];
  if (b.instructions == 0 || seconds < b.seconds) b = {instructions, seconds};
}

PathRate Fastest::total() const {
  PathRate sum;
  for (const auto& [unit, b] : best_) {
    sum.instructions += b.instructions;
    sum.seconds += b.seconds;
  }
  return sum;
}

std::vector<double> Fastest::milliseconds() const {
  std::vector<double> ms;
  for (const auto& [unit, b] : best_) ms.push_back(b.seconds * 1e3);
  return ms;
}

void SpotSampler::baseline_slice() {
  const Kernel& k = next(base_cursor_);
  dim::sim::RunResult rr;
  const Clock::time_point t0 = Clock::now();
  {
    Span s(tracer_, "sim");
    rr = dim::sim::run_baseline(k.program);
  }
  baseline.add(k.workload.name, rr.instructions, seconds_since(t0));
  report_.op(!rr.hit_limit && rr.state.output == k.workload.expected_output,
             "baseline_output_mismatch");
}

void SpotSampler::rowsync_slice() {
  const Kernel& k = next(rowsync_cursor_);
  dim::accel::AccelStats st;
  const Clock::time_point t0 = Clock::now();
  {
    Span s(tracer_, "accel");
    dim::accel::AcceleratedSystem system(k.program, rowsync_config());
    st = system.run();
  }
  rowsync.add(k.workload.name, st.instructions, seconds_since(t0));
  report_.op(!st.hit_limit && st.final_state.output == k.workload.expected_output &&
                 st.memory_hash == k.baseline.memory_hash,
             "rowsync_not_transparent");
}

void SpotSampler::elastic_slice() {
  const Kernel& k = next(elastic_cursor_);
  dim::accel::AccelStats st;
  const Clock::time_point t0 = Clock::now();
  {
    Span s(tracer_, "accel");
    dim::accel::AcceleratedSystem system(k.program, elastic_config());
    st = system.run_until(elastic_budget_);
  }
  elastic.add(k.workload.name, st.instructions, seconds_since(t0));
  // A run that finished inside the budget is checked like any other; a
  // truncated one must have stopped at the budget, not at the core's cap.
  if (st.final_state.halted) {
    report_.op(st.final_state.output == k.workload.expected_output &&
                   st.memory_hash == k.baseline.memory_hash,
               "elastic_not_transparent");
  } else {
    report_.op(!st.hit_limit && st.instructions >= elastic_budget_, "elastic_short_run");
  }
}

double paper_speedup(const std::string& kernel, int shape_index, bool spec, size_t slots) {
  const auto& table = dim::bench::paper_table2();
  const auto it = table.find(kernel);
  if (it == table.end() || shape_index < 0 || shape_index > 3) return -1;
  if (shape_index == 3) return spec ? it->second.ideal_spec : it->second.ideal_nospec;
  const int slot_index = slots == 16 ? 0 : slots == 64 ? 1 : slots == 256 ? 2 : -1;
  if (slot_index < 0) return -1;
  return it->second.s[shape_index][spec ? 1 : 0][slot_index];
}

void emit_layer_table(const Tracer& tracer, double wall_s, Report& report) {
  static const char* const kLayers[] = {"work", "asm", "sim", "accel", "serve", "idle"};
  double sum = 0;
  for (const char* layer : kLayers) {
    const auto it = tracer.self_seconds().find(layer);
    const double s = it == tracer.self_seconds().end() ? 0.0 : it->second;
    report.layers[layer] = s;
    report.metric(std::string(layer) + ".self_s", s, "s");
    sum += s;
  }
  report.layers["unattributed"] = wall_s - sum;
  report.traced_wall_s = wall_s;
  report.metric("unattributed_s", wall_s - sum, "s");
}

}  // namespace pb
