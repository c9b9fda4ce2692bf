#include "fuzz/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "accel/stats_io.hpp"
#include "accel/sweep.hpp"
#include "asm/assembler.hpp"

namespace dim::fuzz {

namespace {

// Stats-level divergence test used on sweep results (the detailed diff —
// byte-precise memory address, event context — comes from the oracle
// re-check of failing seeds). Must agree with oracle.cpp on what counts
// as a divergence.
bool stats_diverge(const accel::AccelStats& base, const accel::AccelStats& accel) {
  if (accel.hit_limit != base.hit_limit) return true;
  if (base.final_state.output != accel.final_state.output) return true;
  if (base.final_state.regs != accel.final_state.regs) return true;
  if (base.final_state.hi != accel.final_state.hi) return true;
  if (base.final_state.lo != accel.final_state.lo) return true;
  if (base.memory_hash != accel.memory_hash) return true;
  if (base.instructions != accel.instructions) return true;
  return false;
}

}  // namespace

const char* fault_injection_name(bt::FaultInjection fault) {
  switch (fault) {
    case bt::FaultInjection::kNone: return "none";
    case bt::FaultInjection::kAddiuImmOffByOne: return "addiu-imm";
    case bt::FaultInjection::kSubuSwapOperands: return "subu-swap";
  }
  return "unknown";
}

CampaignResult run_campaign(const CampaignOptions& options) {
  const std::vector<MatrixPoint> matrix =
      options.matrix.empty() ? full_matrix() : options.matrix;
  const int seeds = options.seeds;

  CampaignResult result;
  result.seed_start = options.seed_start;
  result.seeds_run = seeds;

  // Generate and assemble every seed's program up front; the sweep grid
  // references them by pointer.
  std::vector<FuzzProgram> sources(static_cast<size_t>(seeds));
  std::vector<asmblr::Program> programs(static_cast<size_t>(seeds));
  std::vector<bool> assembled(static_cast<size_t>(seeds), false);
  for (int s = 0; s < seeds; ++s) {
    sources[static_cast<size_t>(s)] =
        generate_program(options.seed_start + static_cast<uint64_t>(s), options.gen);
    try {
      programs[static_cast<size_t>(s)] =
          asmblr::assemble(sources[static_cast<size_t>(s)].render());
      assembled[static_cast<size_t>(s)] = true;
    } catch (const std::exception&) {
      ++result.inconclusive_seeds;
    }
  }

  sim::MachineConfig machine;
  machine.max_instructions = options.oracle.max_instructions;

  std::vector<accel::SweepPoint> points;
  std::vector<size_t> point_seed;  // grid row -> seed index
  points.reserve(static_cast<size_t>(seeds) * matrix.size());
  for (int s = 0; s < seeds; ++s) {
    if (!assembled[static_cast<size_t>(s)]) continue;
    for (const MatrixPoint& m : matrix) {
      accel::SweepPoint p;
      p.label = "seed" + std::to_string(options.seed_start + static_cast<uint64_t>(s)) +
                "/" + m.label;
      p.program = &programs[static_cast<size_t>(s)];
      p.config = m.config;
      p.config.machine = machine;
      p.config.fault = options.oracle.fault;
      p.run_baseline = true;
      points.push_back(std::move(p));
      point_seed.push_back(static_cast<size_t>(s));
    }
  }

  accel::SweepOptions sweep_options;
  sweep_options.threads = options.threads;
  const accel::SweepEngine engine(sweep_options);
  const std::vector<accel::SweepResult> sweep = engine.run(points);

  // Scan in grid (== seed) order; everything from here on is serial and a
  // pure function of the ordered results.
  int shrinks_done = 0;
  for (size_t i = 0; i < sweep.size();) {
    const size_t s = point_seed[i];
    bool divergent = false;
    bool inconclusive = false;
    for (; i < sweep.size() && point_seed[i] == s; ++i) {
      if (sweep[i].baseline.hit_limit) {
        inconclusive = true;
      } else if (stats_diverge(sweep[i].baseline, sweep[i].accelerated)) {
        divergent = true;
      }
    }
    if (inconclusive && !divergent) {
      ++result.inconclusive_seeds;
      continue;
    }
    if (!divergent) continue;
    ++result.divergent_seeds;
    if (static_cast<int>(result.failures.size()) >= options.max_reported_failures) {
      continue;
    }

    CampaignFailure failure;
    failure.seed = options.seed_start + static_cast<uint64_t>(s);
    failure.program = sources[s];
    failure.shrunk_program = failure.program;

    // Detailed diff (first divergent register / memory byte, event tail).
    const OracleResult detail =
        check_program(failure.program.render(), matrix, options.oracle);
    if (detail.divergence.found) failure.divergence = detail.divergence;

    if (options.shrink && shrinks_done < options.max_shrinks &&
        detail.divergence.found) {
      // Minimize against the diverging matrix point only — cheaper per
      // candidate, and the failure is preserved by construction.
      std::vector<MatrixPoint> failing_point;
      for (const MatrixPoint& m : matrix) {
        if (m.label == detail.divergence.point_label) failing_point.push_back(m);
      }
      const OracleOptions oracle = options.oracle;
      const FailurePredicate still_fails = [&](const FuzzProgram& candidate) {
        const OracleResult r = check_program(candidate.render(), failing_point, oracle);
        return r.divergence.found;
      };
      ShrinkResult shrunk = shrink(failure.program, still_fails);
      failure.shrunk = true;
      failure.shrunk_program = std::move(shrunk.program);
      failure.shrink_stats = shrunk.stats;
      ++shrinks_done;
      // Re-derive the report from the minimized program.
      const OracleResult after =
          check_program(failure.shrunk_program.render(), failing_point, options.oracle);
      if (after.divergence.found) failure.divergence = after.divergence;
    }
    result.failures.push_back(std::move(failure));
  }
  return result;
}

CampaignResult run_dispatch_campaign(const CampaignOptions& options) {
  const std::vector<MatrixPoint> matrix =
      options.matrix.empty() ? full_matrix() : options.matrix;
  const int seeds = options.seeds;

  CampaignResult result;
  result.seed_start = options.seed_start;
  result.seeds_run = seeds;

  std::vector<FuzzProgram> sources(static_cast<size_t>(seeds));
  for (int s = 0; s < seeds; ++s) {
    sources[static_cast<size_t>(s)] =
        generate_program(options.seed_start + static_cast<uint64_t>(s), options.gen);
  }

  // Each seed's verdict is independent and lands in its own slot, so the
  // aggregation below sees identical input for any worker count.
  std::vector<OracleResult> verdicts(static_cast<size_t>(seeds));
  std::atomic<int> next{0};
  unsigned threads =
      options.threads != 0 ? options.threads : std::thread::hardware_concurrency();
  threads = std::max(1u, std::min(threads, static_cast<unsigned>(std::max(seeds, 1))));
  {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (int s; (s = next.fetch_add(1)) < seeds;) {
          verdicts[static_cast<size_t>(s)] = check_dispatch_program(
              sources[static_cast<size_t>(s)].render(), matrix, options.oracle);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  int shrinks_done = 0;
  for (int s = 0; s < seeds; ++s) {
    const OracleResult& verdict = verdicts[static_cast<size_t>(s)];
    if (verdict.inconclusive) {
      ++result.inconclusive_seeds;
      continue;
    }
    if (!verdict.divergence.found) continue;
    ++result.divergent_seeds;
    if (static_cast<int>(result.failures.size()) >= options.max_reported_failures) {
      continue;
    }

    CampaignFailure failure;
    failure.seed = options.seed_start + static_cast<uint64_t>(s);
    failure.program = sources[static_cast<size_t>(s)];
    failure.shrunk_program = failure.program;
    failure.divergence = verdict.divergence;

    if (options.shrink && shrinks_done < options.max_shrinks) {
      // "machine" failures shrink against the machine comparison alone
      // (empty matrix); point failures against the one diverging point.
      std::vector<MatrixPoint> failing_point;
      for (const MatrixPoint& m : matrix) {
        if (m.label == verdict.divergence.point_label) failing_point.push_back(m);
      }
      const OracleOptions oracle = options.oracle;
      const FailurePredicate still_fails = [&](const FuzzProgram& candidate) {
        const OracleResult r =
            check_dispatch_program(candidate.render(), failing_point, oracle);
        return r.divergence.found;
      };
      ShrinkResult shrunk = shrink(failure.program, still_fails);
      failure.shrunk = true;
      failure.shrunk_program = std::move(shrunk.program);
      failure.shrink_stats = shrunk.stats;
      ++shrinks_done;
      const OracleResult after = check_dispatch_program(
          failure.shrunk_program.render(), failing_point, options.oracle);
      if (after.divergence.found) failure.divergence = after.divergence;
    }
    result.failures.push_back(std::move(failure));
  }
  return result;
}

void write_campaign_json(std::ostream& out, const CampaignResult& result) {
  out << "{\n";
  out << "  \"seed_start\": " << result.seed_start << ",\n";
  out << "  \"seeds_run\": " << result.seeds_run << ",\n";
  out << "  \"divergent_seeds\": " << result.divergent_seeds << ",\n";
  out << "  \"inconclusive_seeds\": " << result.inconclusive_seeds << ",\n";
  out << "  \"failures\": [";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    const CampaignFailure& f = result.failures[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\n";
    out << "      \"seed\": " << f.seed << ",\n";
    out << "      \"point\": \"" << accel::json_escape(f.divergence.point_label)
        << "\",\n";
    out << "      \"field\": \"" << divergence_field_name(f.divergence.field)
        << "\",\n";
    out << "      \"detail\": \"" << accel::json_escape(f.divergence.detail) << "\",\n";
    out << "      \"instructions\": " << f.program.instruction_count() << ",\n";
    out << "      \"shrunk\": " << (f.shrunk ? "true" : "false") << ",\n";
    out << "      \"shrunk_instructions\": " << f.shrunk_program.instruction_count()
        << ",\n";
    out << "      \"shrink_candidates_tried\": " << f.shrink_stats.candidates_tried
        << "\n";
    out << "    }";
  }
  out << "\n  ]\n}\n";
}

void write_repro_file(std::ostream& out, const CampaignFailure& failure,
                      const OracleOptions& oracle) {
  out << "# dimsim-fuzz reproducer\n";
  out << "# seed: " << failure.seed << "\n";
  out << "# matrix point: " << failure.divergence.point_label << "\n";
  out << "# divergence: " << divergence_field_name(failure.divergence.field) << " — "
      << failure.divergence.detail << "\n";
  out << "# fault injection: " << fault_injection_name(oracle.fault) << "\n";
  out << "# instructions: " << failure.shrunk_program.instruction_count()
      << (failure.shrunk
              ? " (shrunk from " + std::to_string(failure.program.instruction_count()) +
                    ")"
              : "")
      << "\n";
  if (!failure.divergence.recent_events.empty()) {
    out << "# recent events before divergence:\n";
    for (const obs::Event& e : failure.divergence.recent_events) {
      out << "#   " << obs::format_event(e) << "\n";
    }
  }
  out << "# replay: dimsim-fuzz --replay <this file>";
  if (oracle.fault != bt::FaultInjection::kNone) {
    out << " --inject-fault " << fault_injection_name(oracle.fault);
  }
  out << "\n\n";
  out << failure.shrunk_program.render();
}

}  // namespace dim::fuzz
