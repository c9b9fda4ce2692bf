#include "fuzz/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "accel/stats_io.hpp"

namespace dim::fuzz {

const char* fault_injection_name(bt::FaultInjection fault) {
  switch (fault) {
    case bt::FaultInjection::kNone: return "none";
    case bt::FaultInjection::kAddiuImmOffByOne: return "addiu-imm";
    case bt::FaultInjection::kSubuSwapOperands: return "subu-swap";
  }
  return "unknown";
}

CampaignResult run_campaign(const CampaignOptions& options, Oracle oracle) {
  const std::vector<MatrixPoint> matrix =
      options.matrix.empty() ? full_matrix() : options.matrix;
  const size_t seeds = static_cast<size_t>(std::max(options.seeds, 0));

  CampaignResult result;
  result.seed_start = options.seed_start;
  result.seeds_run = options.seeds;

  std::vector<FuzzProgram> sources(seeds);
  for (size_t s = 0; s < seeds; ++s) {
    sources[s] = generate_program(options.seed_start + s, options.gen);
  }

  // One oracle call per seed. Each verdict (or error) lands in its own
  // slot, so the serial pass below sees identical input for any worker
  // count, and the lowest seed's error is the one rethrown.
  std::vector<OracleResult> verdicts(seeds);
  std::vector<std::exception_ptr> errors(seeds);
  std::atomic<size_t> next{0};
  const auto worker = [&] {
    for (size_t s; (s = next.fetch_add(1)) < seeds;) {
      try {
        verdicts[s] = oracle(sources[s].render(), matrix, options.oracle);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    }
  };
  unsigned threads =
      options.threads != 0 ? options.threads : std::thread::hardware_concurrency();
  threads = static_cast<unsigned>(std::clamp<size_t>(threads, 1, std::max<size_t>(seeds, 1)));
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  int shrinks_done = 0;
  for (size_t s = 0; s < seeds; ++s) {
    const OracleResult& verdict = verdicts[s];
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
    failure.seed = options.seed_start + s;
    failure.program = sources[s];
    failure.shrunk_program = failure.program;
    failure.divergence = verdict.divergence;

    if (options.shrink && shrinks_done < options.max_shrinks) {
      // Minimize against the diverging matrix point only: cheaper per
      // candidate, and the failure is preserved by construction. No
      // point matches "machine", which leaves the Machine comparison.
      std::vector<MatrixPoint> failing_point;
      for (const MatrixPoint& m : matrix) {
        if (m.label == verdict.divergence.point_label) failing_point.push_back(m);
      }
      const FailurePredicate still_fails = [&](const FuzzProgram& candidate) {
        return oracle(candidate.render(), failing_point, options.oracle).divergence.found;
      };
      ShrinkResult shrunk = shrink(failure.program, still_fails);
      failure.shrunk = true;
      failure.shrunk_program = std::move(shrunk.program);
      failure.shrink_stats = shrunk.stats;
      ++shrinks_done;
      // Re-derive the report from the minimized program.
      const OracleResult after =
          oracle(failure.shrunk_program.render(), failing_point, options.oracle);
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
                      const OracleOptions& options, Oracle oracle) {
  out << "# dimsim-fuzz reproducer\n";
  out << "# seed: " << failure.seed << "\n";
  out << "# matrix point: " << failure.divergence.point_label << "\n";
  out << "# divergence: " << divergence_field_name(failure.divergence.field) << " — "
      << failure.divergence.detail << "\n";
  out << "# fault injection: " << fault_injection_name(options.fault) << "\n";
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
  if (oracle == check_dispatch_program) out << " --cmp-dispatch";
  if (options.fault != bt::FaultInjection::kNone) {
    out << " --inject-fault " << fault_injection_name(options.fault);
  }
  out << "\n\n";
  out << failure.shrunk_program.render();
}

}  // namespace dim::fuzz
