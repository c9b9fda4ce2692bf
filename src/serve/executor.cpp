#include "serve/executor.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "fuzz/campaign.hpp"
#include "serve/batcher.hpp"
#include "snap/io.hpp"
#include "snap/snapshot.hpp"
#include "work/workload.hpp"

namespace dim::serve {

Executor::Executor(const std::string& store_dir, unsigned threads,
                   uint64_t checkpoint_interval)
    : threads_(threads),
      checkpoint_interval_(checkpoint_interval == 0 ? 1u << 20 : checkpoint_interval) {
  if (!store_dir.empty()) {
    store_ = std::make_unique<snap::ResultStore>(store_dir + "/cells");
  }
}

ExecutorCounters Executor::counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  ExecutorCounters c = counters_;
  if (store_ != nullptr) {
    c.has_store = true;
    c.store = store_->counters();
  }
  return c;
}

const asmblr::Program* Executor::resolve_program(const Job& job) {
  const Request& request = job.request;
  const std::string key =
      request.workload.empty()
          ? "src:" + std::to_string(std::hash<std::string>{}(request.source))
          : "wl:" + request.workload + ":" + std::to_string(request.scale);
  auto it = programs_.find(key);
  if (it != programs_.end()) return &it->second;
  std::ostringstream out;
  try {
    asmblr::Program program;
    if (!request.workload.empty()) {
      program =
          asmblr::assemble(work::make_workload(request.workload, request.scale).source);
    } else {
      program = asmblr::assemble(request.source);
    }
    return &programs_.emplace(key, std::move(program)).first->second;
  } catch (const std::invalid_argument& e) {
    write_error_response(out, request.id, kErrUnknownWorkload, e.what());
  } catch (const std::exception& e) {
    write_error_response(out, request.id, kErrBadRequest,
                         std::string("assembly failed: ") + e.what());
  }
  job.respond(out.str());
  return nullptr;
}

void Executor::run(const std::vector<Job>& batch) {
  // Partition: grid work (sweeps + unbudgeted runs) shares one SweepEngine
  // call; budgeted runs and fuzz campaigns execute directly. Unresolvable
  // requests answer here and drop out.
  struct GridItem {
    size_t job_index;
    BatchSlice slice;
  };
  std::vector<accel::SweepPoint> grid;
  std::vector<GridItem> grid_items;
  std::vector<size_t> direct_items;
  std::vector<size_t> fuzz_items;

  for (size_t i = 0; i < batch.size(); ++i) {
    const Request& req = batch[i].request;
    if (req.kind == RequestKind::kFuzz) {
      fuzz_items.push_back(i);
      continue;
    }
    if (req.kind == RequestKind::kRun && req.budget > 0) {
      direct_items.push_back(i);
      continue;
    }
    const asmblr::Program* program = resolve_program(batch[i]);
    if (program == nullptr) continue;
    BatchSlice slice;
    slice.begin = grid.size();
    std::vector<accel::SweepPoint> points = expand_points(req, *program);
    for (auto& p : points) grid.push_back(std::move(p));
    slice.end = grid.size();
    grid_items.push_back({i, slice});
  }

  if (!grid.empty()) {
    accel::SweepOptions opts;
    opts.threads = threads_;
    opts.result_cache = store_.get();
    std::vector<accel::SweepResult> results;
    bool engine_failed = false;
    std::string engine_error;
    try {
      results = accel::SweepEngine(opts).run(grid);
    } catch (const std::exception& e) {
      engine_failed = true;
      engine_error = e.what();
    }
    {
      std::lock_guard<std::mutex> lock(counters_mutex_);
      ++counters_.batches;
      counters_.batched_cells += grid.size();
    }
    for (const GridItem& gi : grid_items) {
      const Job& job = batch[gi.job_index];
      std::ostringstream out;
      if (engine_failed) {
        write_error_response(out, job.request.id, kErrInternal, engine_error);
      } else if (job.request.kind == RequestKind::kRun) {
        const accel::SweepResult& r = results[gi.slice.begin];
        RunResponse resp;
        resp.accelerated = r.accelerated;
        resp.has_baseline = r.has_baseline;
        resp.baseline = r.baseline;
        resp.transparent = r.transparent;
        resp.halted = !r.accelerated.hit_limit;
        write_run_response(out, job.request.id, resp);
      } else {
        write_sweep_response(out, job.request.id, split_slice(results, gi.slice));
      }
      job.respond(out.str());
    }
  }

  for (const size_t i : direct_items) {
    const asmblr::Program* program = resolve_program(batch[i]);
    if (program == nullptr) continue;
    execute_direct(batch[i], *program);
  }
  for (const size_t i : fuzz_items) execute_fuzz(batch[i]);
}

void Executor::execute_direct(const Job& job, const asmblr::Program& program) {
  const Request& req = job.request;
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.direct_runs;
  }
  const accel::SystemConfig config =
      config_for(req.shape, req.slots, req.speculation);

  std::optional<accel::AcceleratedSystem> system(std::in_place, program, config);
  RunResponse resp;
  resp.budget = req.budget;

  // Migration resume: a prior checkpoint's snapshot replaces simulator
  // state wholesale, so the finished response is byte-identical to a run
  // that never migrated. An absent file, a payload that fails to restore,
  // or a checkpoint past this budget means a cold start on a new system:
  // same bytes, more work. The last is a stale job-N.snap left by another
  // daemon (job ids restart at 1), not a prefix of this run.
  if (!job.checkpoint_path.empty()) {
    try {
      snap::restore_snapshot_payload(
          *system,
          snap::read_artifact_file(job.checkpoint_path, snap::ArtifactKind::kSnapshot),
          program);
      if (system->stats().instructions > req.budget) system.emplace(program, config);
    } catch (const snap::SnapshotError&) {
      system.emplace(program, config);
    }
  }

  // Budgeted execution: run_until checkpoint chunks bound how long a
  // cancellation can go unnoticed. Shutdown deliberately does NOT stop
  // the loop: admitted work drains to a complete response (the drain
  // promise), and a partial run would be nondeterministic anyway. Only an
  // explicit cancel cuts a run short. hit_limit from the machine's own
  // cap is surfaced unchanged; hit_budget is ours.
  accel::AccelStats stats;
  for (;;) {
    if (job.canceled && job.canceled()) {
      std::ostringstream out;
      write_error_response(out, req.id, kErrCanceled, "canceled at a checkpoint");
      job.respond(out.str());
      return;
    }
    const uint64_t done = system->stats().instructions;
    if (done >= req.budget) break;
    const uint64_t boundary = std::min(req.budget, done + checkpoint_interval_);
    stats = system->run_until(boundary);
    if (stats.final_state.halted || stats.hit_limit) break;
    if (stats.instructions == done) break;  // no forward progress: stop
    if (!job.checkpoint_path.empty() && stats.instructions < req.budget) {
      try {
        snap::write_artifact_file(job.checkpoint_path, snap::ArtifactKind::kSnapshot,
                                  snap::encode_snapshot(*system, program));
      } catch (const snap::SnapshotError&) {
        // Checkpointing is an optimization; a crash then restarts cold.
      }
    }
  }
  stats = system->stats();
  resp.accelerated = stats;
  resp.halted = stats.final_state.halted;
  resp.hit_budget =
      !resp.halted && stats.instructions >= req.budget && !stats.hit_limit;

  if (req.want_baseline) {
    // Budgeted baseline: same instruction allowance on the plain core.
    sim::MachineConfig machine = config.machine;
    machine.max_instructions = std::min(machine.max_instructions, req.budget);
    resp.baseline = accel::baseline_as_stats(program, machine);
    resp.has_baseline = true;
    // Two runs cut at the budget make no claim (inconclusive is not a
    // violation); a run that halted on one side only is divergent.
    resp.transparent = accel::compare_runs(resp.baseline, resp.accelerated).transparent();
  }

  std::ostringstream out;
  write_run_response(out, req.id, resp);
  job.respond(out.str());
}

void Executor::execute_fuzz(const Job& job) {
  const Request& req = job.request;
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.fuzz_campaigns;
  }
  fuzz::CampaignOptions opts;
  opts.seed_start = req.seed_start;
  opts.seeds = req.seeds;
  opts.threads = threads_;
  opts.matrix = req.matrix == "full" ? fuzz::full_matrix() : fuzz::quick_matrix();
  opts.shrink = false;  // serve reports counts; repro files are the CLI's job
  std::ostringstream out;
  try {
    const fuzz::CampaignResult result = fuzz::run_campaign(opts);
    FuzzResponse resp;
    resp.seeds_run = result.seeds_run;
    resp.divergent = result.divergent_seeds;
    resp.inconclusive = result.inconclusive_seeds;
    write_fuzz_response(out, req.id, resp);
  } catch (const std::exception& e) {
    write_error_response(out, req.id, kErrInternal, e.what());
  }
  job.respond(out.str());
}

}  // namespace dim::serve
