// Per-layer replays for traced runs. Each measurement calls one module's
// public functions on the workload's own cells and times them from
// outside; nothing inside the simulator is instrumented. Every replay is
// capped at a per-cell instruction budget so the traced run stays short.
#include <algorithm>
#include <filesystem>
#include <sstream>
#include <unistd.h>

#include "accel/sweep.hpp"
#include "asm/assembler.hpp"
#include "bt/predictor.hpp"
#include "bt/rcache.hpp"
#include "bt/translator.hpp"
#include "harness/common.hpp"
#include "obs/profile.hpp"
#include "rra/array_exec.hpp"
#include "rra/exec_mode/execution_model.hpp"
#include "serve/protocol.hpp"
#include "sim/executor.hpp"
#include "sim/machine.hpp"
#include "snap/resultstore.hpp"
#include "snap/snapshot.hpp"

namespace pb {
namespace {

class CountingSink : public dim::obs::EventSink {
 public:
  void emit(const dim::obs::Event&) override { ++events; }
  uint64_t events = 0;
};

// Accumulates one timed quantity and the count of units it covered.
struct Timed {
  double seconds = 0;
  uint64_t units = 0;
  double per_unit(double scale) const { return units ? seconds / units * scale : 0; }
};

dim::bt::TranslatorParams translator_params(const dim::accel::SystemConfig& c) {
  dim::bt::TranslatorParams p;
  p.shape = c.shape;
  p.speculation = c.speculation;
  p.max_spec_bbs = c.max_spec_bbs;
  p.min_instructions = c.min_instructions;
  p.exec_mode = c.exec_mode;
  return p;
}

double timed_accelerated_run(const Kernel& k, dim::accel::SystemConfig cfg, uint64_t budget,
                             dim::obs::EventSink* sink) {
  cfg.event_sink = sink;
  const Clock::time_point t0 = Clock::now();
  dim::accel::AcceleratedSystem system(k.program, cfg);
  system.run_until(budget);
  return seconds_since(t0);
}

}  // namespace

void measure_layers(const std::vector<LayerCell>& cells,
                    const std::vector<std::string>& request_lines, const Options& opt,
                    Report& report) {
  const uint64_t budget = opt.tiny ? 20'000 : 300'000;
  PathRate trace;
  Timed generate, assemble, step, observe, insert, lookup, core, rowsync_exec, elastic_exec,
      admit, construct, encode, restore, store_save, store_load, parse, write;
  uint64_t captures = 0, inserted = 0;
  uint64_t instructions = 0, trace_ops = 0, dispatch_stops = 0;
  uint64_t rc_hits = 0, rc_misses = 0, array_instr = 0, activations = 0;
  uint64_t payload_bytes = 0, payloads = 0;
  double plain_s = 0, profiled_s = 0;
  uint64_t events = 0, event_instr = 0;

  const std::string store_dir =
      opt.scratch_dir + "/layer-store-" + std::to_string(static_cast<long>(getpid()));
  std::filesystem::remove_all(store_dir);
  dim::snap::ResultStore store(store_dir);

  for (const LayerCell& cell : cells) {
    const Kernel& k = *cell.kernel;
    const dim::accel::SystemConfig& cfg = cell.config;

    // work / asm: regenerate and reassemble the cell's kernel.
    {
      Clock::time_point t0 = Clock::now();
      const dim::work::Workload w = dim::work::make_workload(k.workload.name, k.scale);
      generate.seconds += seconds_since(t0);
      ++generate.units;
      t0 = Clock::now();
      dim::asmblr::assemble(w.source);
      assemble.seconds += seconds_since(t0);
      ++assemble.units;
    }

    // sim: whole-program trace dispatch, then single steps with a decode
    // cache; a second stepping pass records the stream the bt replay uses.
    {
      const Clock::time_point t0 = Clock::now();
      const dim::sim::RunResult rr = dim::sim::run_baseline(k.program);
      trace.seconds += seconds_since(t0);
      trace.instructions += rr.instructions;
    }
    std::vector<dim::sim::StepInfo> stream;
    {
      dim::sim::Machine timed(k.program);
      dim::sim::DecodeCache dc;
      uint64_t n = 0;
      const Clock::time_point t0 = Clock::now();
      while (n < budget) {
        ++n;
        if (dim::sim::step(timed.state(), timed.memory(), &dc).halted) break;
      }
      step.seconds += seconds_since(t0);
      step.units += n;
      dim::sim::Machine recorded(k.program);
      dim::sim::DecodeCache dc2;
      stream.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        stream.push_back(dim::sim::step(recorded.state(), recorded.memory(), &dc2));
      }
    }

    // bt: translator replay over the recorded stream into a private rcache
    // and predictor (branch outcomes train the predictor as the system
    // would).
    {
      dim::bt::ReconfigCache rc(cfg.cache_slots, cfg.cache_replacement);
      dim::bt::BimodalPredictor pred;
      dim::bt::Translator t(translator_params(cfg), &rc, &pred);
      const Clock::time_point t0 = Clock::now();
      for (const dim::sim::StepInfo& si : stream) {
        t.observe(si);
        if (si.is_branch) pred.update(si.pc, si.taken);
      }
      observe.seconds += seconds_since(t0);
      observe.units += stream.size();
      captures += t.stats().captures_started;
      inserted += t.stats().configs_inserted;
    }

    // accel: construction, then a budgeted run whose state feeds the rest.
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point t0 = Clock::now();
      dim::accel::AcceleratedSystem system(k.program, cfg);
      construct.seconds += seconds_since(t0);
      ++construct.units;
    }
    dim::accel::AcceleratedSystem system(k.program, cfg);
    const dim::accel::AccelStats st = system.run_until(budget);
    instructions += st.instructions;
    trace_ops += system.trace_cache().stats().ops_executed;
    dispatch_stops += system.trace_cache().stats().dispatch_stops;
    rc_hits += st.rcache_hits;
    rc_misses += st.rcache_misses;
    array_instr += st.array_instructions;
    activations += st.array_activations;
    const std::vector<dim::rra::Configuration> entries = system.rcache().export_entries();

    if (!entries.empty()) {
      // bt: rcache inserts into a 16-slot FIFO (evicting once full) and
      // lookups of every retired PC of the stream.
      const size_t reps = std::max<size_t>(1, 2000 / entries.size());
      std::vector<dim::rra::Configuration> copies;
      copies.reserve(reps * entries.size());
      for (size_t r = 0; r < reps; ++r) copies.insert(copies.end(), entries.begin(), entries.end());
      dim::bt::ReconfigCache small(16);
      Clock::time_point t0 = Clock::now();
      for (dim::rra::Configuration& c : copies) small.insert(std::move(c));
      insert.seconds += seconds_since(t0);
      insert.units += copies.size();

      dim::bt::ReconfigCache full(std::max(cfg.cache_slots, entries.size()));
      for (const dim::rra::Configuration& c : entries) full.insert(c);
      t0 = Clock::now();
      for (const dim::sim::StepInfo& si : stream) full.lookup(si.pc);
      lookup.seconds += seconds_since(t0);
      lookup.units += stream.size();

      // rra: the functional core and both timing models, replayed on the
      // mid-run architectural state.
      dim::sim::CpuState state = system.state();
      dim::mem::Memory memory = system.memory();
      const auto rowsync_model = dim::rra::make_execution_model(dim::rra::ExecModeParams{});
      dim::rra::ExecModeParams ep;
      ep.mode = dim::rra::ExecMode::kElastic;
      ep.fifo_capacity = 4;
      const auto elastic_model = dim::rra::make_execution_model(ep);
      const size_t act_reps = std::max<size_t>(1, 400 / entries.size());
      for (size_t r = 0; r < act_reps; ++r) {
        for (const dim::rra::Configuration& c : entries) {
          t0 = Clock::now();
          const dim::rra::ArrayExecOutcome o = dim::rra::execute_configuration(
              c, state, memory, nullptr, cfg.array_timing);
          core.seconds += seconds_since(t0);
          core.units += static_cast<uint64_t>(std::max(o.committed_ops, 1));
          t0 = Clock::now();
          rowsync_model->execute(c, state, memory, nullptr, cfg.array_timing, false);
          rowsync_exec.seconds += seconds_since(t0);
          ++rowsync_exec.units;
          t0 = Clock::now();
          elastic_model->execute(c, state, memory, nullptr, cfg.array_timing, false);
          elastic_exec.seconds += seconds_since(t0);
          ++elastic_exec.units;
        }
      }
      t0 = Clock::now();
      for (const dim::rra::Configuration& c : entries) dim::rra::elastic_admissible(c, 4);
      admit.seconds += seconds_since(t0);
      admit.units += entries.size();
    }

    // snap: snapshot codec and result-store round trip of the cell.
    for (int i = 0; i < 3; ++i) {
      Clock::time_point t0 = Clock::now();
      const std::vector<uint8_t> payload = dim::snap::encode_snapshot(system, k.program);
      encode.seconds += seconds_since(t0);
      ++encode.units;
      payload_bytes += payload.size();
      ++payloads;
      dim::accel::AcceleratedSystem restored(k.program, cfg);
      t0 = Clock::now();
      dim::snap::restore_snapshot_payload(restored, payload, k.program);
      restore.seconds += seconds_since(t0);
      ++restore.units;
    }
    {
      dim::accel::SweepPoint point;
      point.label = k.workload.name;
      point.program = &k.program;
      point.config = cfg;
      dim::accel::SweepResult result;
      result.label = point.label;
      result.accelerated = st;
      Clock::time_point t0 = Clock::now();
      store.store(point, false, result);
      store_save.seconds += seconds_since(t0);
      ++store_save.units;
      dim::accel::SweepResult loaded;
      t0 = Clock::now();
      const bool hit = store.load(point, false, loaded);
      store_load.seconds += seconds_since(t0);
      ++store_load.units;
      report.op(hit && loaded.accelerated.cycles == st.cycles, "store_round_trip");
    }

    // obs: the same budgeted run with no sink, a profiling sink and a
    // counting sink, alternated so drift hits both sides alike.
    for (int i = 0; i < 2; ++i) {
      plain_s += timed_accelerated_run(k, cfg, budget, nullptr);
      dim::obs::ProfilingSink profiler;
      profiled_s += timed_accelerated_run(k, cfg, budget, &profiler);
    }
    CountingSink counter;
    timed_accelerated_run(k, cfg, budget, &counter);
    events += counter.events;
    event_instr += st.instructions;

    // serve: the response writer on this cell's result.
    dim::serve::RunResponse resp;
    resp.accelerated = st;
    resp.has_baseline = true;
    resp.baseline = k.baseline;
    resp.halted = st.final_state.halted;
    dim::serve::RequestId id;
    id.text = "1";
    for (int i = 0; i < 20; ++i) {
      std::ostringstream out;
      const Clock::time_point t0 = Clock::now();
      dim::serve::write_run_response(out, id, resp);
      write.seconds += seconds_since(t0);
      ++write.units;
    }
  }
  std::filesystem::remove_all(store_dir);

  for (int r = 0; r < 5; ++r) {
    for (const std::string& line : request_lines) {
      const Clock::time_point t0 = Clock::now();
      const dim::serve::ParseOutcome parsed = dim::serve::parse_request(line);
      parse.seconds += seconds_since(t0);
      ++parse.units;
      if (r == 0) report.op(parsed.ok, "request_parse_failed");
    }
  }

  const double minstr = static_cast<double>(instructions) / 1e6;
  report.metric("work.generate_ms", generate.seconds * 1e3, "ms");
  report.metric("asm.assemble_ms", assemble.seconds * 1e3, "ms");
  report.metric("sim.trace_minstr_s", trace.minstr_s(), "Minstr/s");
  report.metric("sim.step_ns", step.per_unit(1e9), "ns");
  report.metric("sim.trace_op_share",
                instructions ? static_cast<double>(trace_ops) / instructions : 0, "ratio");
  report.metric("sim.dispatch_stops_per_minstr", minstr > 0 ? dispatch_stops / minstr : 0,
                "1/Minstr");
  report.metric("bt.observe_ns", observe.per_unit(1e9), "ns");
  report.metric("bt.capture_yield", captures ? static_cast<double>(inserted) / captures : 0,
                "ratio");
  report.metric("bt.rcache_insert_ns", insert.per_unit(1e9), "ns");
  report.metric("bt.rcache_lookup_ns", lookup.per_unit(1e9), "ns");
  report.metric("bt.rcache_hit_ratio",
                rc_hits + rc_misses ? static_cast<double>(rc_hits) / (rc_hits + rc_misses) : 0,
                "ratio");
  report.metric("rra.core_ns_per_op", core.per_unit(1e9), "ns");
  report.metric("rra.rowsync_exec_ns", rowsync_exec.per_unit(1e9), "ns");
  report.metric("rra.elastic_exec_ns", elastic_exec.per_unit(1e9), "ns");
  report.metric("rra.elastic_admit_us", admit.per_unit(1e6), "us");
  report.metric("rra.array_coverage",
                instructions ? static_cast<double>(array_instr) / instructions : 0, "ratio");
  report.metric("rra.ops_per_activation",
                activations ? static_cast<double>(array_instr) / activations : 0, "count");
  report.metric("accel.construct_us", construct.per_unit(1e6), "us");
  report.metric("obs.profile_overhead_pct", plain_s > 0 ? (profiled_s / plain_s - 1) * 100 : 0,
                "%");
  report.metric("obs.events_per_kinstr",
                event_instr ? static_cast<double>(events) / (event_instr / 1e3) : 0, "count");
  report.metric("snap.encode_us", encode.per_unit(1e6), "us");
  report.metric("snap.restore_us", restore.per_unit(1e6), "us");
  report.metric("snap.payload_kb",
                payloads ? static_cast<double>(payload_bytes) / payloads / 1024 : 0, "KiB");
  report.metric("snap.store_save_us", store_save.per_unit(1e6), "us");
  report.metric("snap.store_load_us", store_load.per_unit(1e6), "us");
  report.metric("serve.parse_us", parse.per_unit(1e6), "us");
  report.metric("serve.write_us", write.per_unit(1e6), "us");
}

}  // namespace pb
