// Tests for the differential fuzzing subsystem (src/fuzz/): generator
// determinism and well-formedness, the transparency oracle, the
// delta-debugging shrinker's invariants, campaign thread-count invariance,
// and the fault-injection self-test (a deliberately buggy translator must
// be caught and minimized within a small seed budget).
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"
#include "obs/event.hpp"

namespace dim::fuzz {
namespace {

TEST(FuzzGenerator, DeterministicPerSeed) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const FuzzProgram a = generate_program(seed);
    const FuzzProgram b = generate_program(seed);
    EXPECT_EQ(a.render(), b.render()) << "seed " << seed;
    EXPECT_EQ(a.instruction_count(), b.instruction_count());
  }
}

TEST(FuzzGenerator, AdjacentSeedsProduceDistinctPrograms) {
  // Adjacent seeds are what campaigns use; they must not share a draw
  // stream (a previous generator bug handed every seed the same stream
  // shifted by one draw).
  for (uint64_t seed = 0; seed < 16; ++seed) {
    EXPECT_NE(generate_program(seed).render(), generate_program(seed + 1).render())
        << "seed " << seed;
  }
}

TEST(FuzzGenerator, EverySeedAssembles) {
  const int seeds = seed_budget(50);
  for (int s = 0; s < seeds; ++s) {
    const FuzzProgram p = generate_program(static_cast<uint64_t>(s));
    EXPECT_GT(p.instruction_count(), 0);
    EXPECT_NO_THROW(asmblr::assemble(p.render())) << "seed " << s;
  }
}

TEST(FuzzGenerator, SeedBudgetReadsEnvironment) {
  ::unsetenv("DIMSIM_FUZZ_SEEDS");
  EXPECT_EQ(seed_budget(42), 42);
  ::setenv("DIMSIM_FUZZ_SEEDS", "7", 1);
  EXPECT_EQ(seed_budget(42), 7);
  ::setenv("DIMSIM_FUZZ_SEEDS", "not-a-number", 1);
  EXPECT_EQ(seed_budget(42), 42);
  ::unsetenv("DIMSIM_FUZZ_SEEDS");
}

TEST(FuzzOracle, CleanSystemIsTransparent) {
  const int seeds = seed_budget(10);
  for (int s = 0; s < seeds; ++s) {
    const FuzzProgram p = generate_program(static_cast<uint64_t>(s));
    const OracleResult r = check_program(p.render(), quick_matrix());
    EXPECT_FALSE(r.inconclusive) << "seed " << s << ": " << r.inconclusive_reason;
    EXPECT_FALSE(r.divergence.found)
        << "seed " << s << " diverged at " << r.divergence.point_label << ": "
        << r.divergence.detail;
  }
}

TEST(FuzzOracle, RejectsUnassemblableSource) {
  const OracleResult r = check_program("this is not assembly", quick_matrix());
  EXPECT_TRUE(r.inconclusive);
  EXPECT_FALSE(r.divergence.found);
  EXPECT_FALSE(r.inconclusive_reason.empty());
}

TEST(FuzzOracle, MatrixAxes) {
  // 18 base points, each again with predication + residency (kLoop and
  // kAny alternating) and under elastic. The kAny points are the only ones
  // that keep configurations other than closed loops latched.
  const std::vector<MatrixPoint> full = full_matrix();
  ASSERT_EQ(full.size(), 54u);
  std::set<std::string> labels;
  int loop = 0, any = 0, elastic = 0;
  for (const MatrixPoint& p : full) {
    labels.insert(p.label);
    loop += p.config.residency == accel::Residency::kLoop;
    any += p.config.residency == accel::Residency::kAny;
    elastic += p.config.exec_mode.mode == rra::ExecMode::kElastic;
  }
  EXPECT_EQ(labels.size(), full.size());
  EXPECT_EQ(loop, 9);
  EXPECT_EQ(any, 9);
  EXPECT_EQ(elastic, 18);

  const std::vector<MatrixPoint> quick = quick_matrix();
  ASSERT_EQ(quick.size(), 8u);
  EXPECT_EQ(quick.back().config.residency, accel::Residency::kAny);
}

TEST(FuzzOracle, ReportsDivergenceWithContext) {
  // A planted translator bug must produce a structured report: the matrix
  // point, the diverging field, a both-values detail string.
  OracleOptions oracle;
  oracle.fault = bt::FaultInjection::kAddiuImmOffByOne;
  oracle.max_instructions = 300000;  // keep non-terminating candidates cheap
  bool found = false;
  for (int s = 0; s < 20 && !found; ++s) {
    const FuzzProgram p = generate_program(static_cast<uint64_t>(s));
    const OracleResult r = check_program(p.render(), quick_matrix(), oracle);
    if (r.inconclusive || !r.divergence.found) continue;
    found = true;
    EXPECT_NE(r.divergence.field, DivergenceField::kNone);
    EXPECT_FALSE(r.divergence.point_label.empty());
    EXPECT_FALSE(r.divergence.detail.empty());
    EXPECT_STRNE(divergence_field_name(r.divergence.field), "none");
    for (const obs::Event& e : r.divergence.recent_events) {
      EXPECT_FALSE(obs::format_event(e).empty());
    }
  }
  EXPECT_TRUE(found) << "planted addiu fault never detected in 20 seeds";
}

// Synthetic predicate for shrinker-invariant tests: cheap, deterministic,
// and satisfied by generated programs (the leaf subroutine contains xor).
bool contains_xor(const FuzzProgram& p) {
  for (const Stmt& s : p.stmts) {
    if (s.is_instruction && s.text.rfind("xor", 0) == 0) return true;
  }
  return false;
}

TEST(FuzzShrink, PreservesFailurePredicate) {
  const FuzzProgram failing = generate_program(3);
  ASSERT_TRUE(contains_xor(failing));
  const ShrinkResult r = shrink(failing, contains_xor);
  EXPECT_TRUE(contains_xor(r.program));
  EXPECT_LE(r.program.instruction_count(), failing.instruction_count());
  EXPECT_GT(r.stats.candidates_tried, 0);
}

TEST(FuzzShrink, ResultIsOneMinimal) {
  const FuzzProgram failing = generate_program(5);
  ASSERT_TRUE(contains_xor(failing));
  const ShrinkResult r = shrink(failing, contains_xor);
  // Removing any single remaining removable statement must break the
  // predicate — that is the ddmin postcondition.
  for (size_t i = 0; i < r.program.stmts.size(); ++i) {
    const Stmt& s = r.program.stmts[i];
    if (!s.removable || s.text.empty() || !s.is_instruction) continue;
    FuzzProgram candidate = r.program;
    candidate.stmts[i].text.clear();
    candidate.stmts[i].is_instruction = false;
    EXPECT_FALSE(contains_xor(candidate))
        << "statement " << i << " (" << s.text << ") is removable but survived";
  }
}

TEST(FuzzShrink, DeterministicForFixedInput) {
  const FuzzProgram failing = generate_program(7);
  ASSERT_TRUE(contains_xor(failing));
  const ShrinkResult a = shrink(failing, contains_xor);
  const ShrinkResult b = shrink(failing, contains_xor);
  EXPECT_EQ(a.program.render(), b.program.render());
  EXPECT_EQ(a.stats.candidates_tried, b.stats.candidates_tried);
  EXPECT_EQ(a.stats.candidates_accepted, b.stats.candidates_accepted);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
}

TEST(FuzzShrink, NonFailingInputReturnedUnchanged) {
  const FuzzProgram p = generate_program(11);
  const ShrinkResult r = shrink(p, [](const FuzzProgram&) { return false; });
  EXPECT_EQ(r.program.render(), p.render());
  EXPECT_EQ(r.stats.candidates_accepted, 0);
}

TEST(FuzzCampaign, CleanCampaignFindsNothing) {
  CampaignOptions options;
  options.seeds = seed_budget(15);
  options.matrix = quick_matrix();
  const CampaignResult r = run_campaign(options);
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.divergent_seeds, 0);
  EXPECT_TRUE(r.failures.empty());
  EXPECT_EQ(r.seeds_run, options.seeds);
}

TEST(FuzzCampaign, JsonIsThreadCountInvariant) {
  CampaignOptions options;
  options.seeds = seed_budget(15);
  options.matrix = quick_matrix();
  options.oracle.fault = bt::FaultInjection::kAddiuImmOffByOne;
  options.oracle.max_instructions = 300000;

  options.threads = 1;
  const CampaignResult one = run_campaign(options);
  options.threads = 4;
  const CampaignResult four = run_campaign(options);

  std::ostringstream json_one, json_four;
  write_campaign_json(json_one, one);
  write_campaign_json(json_four, four);
  EXPECT_EQ(json_one.str(), json_four.str());
  EXPECT_GT(one.divergent_seeds, 0) << "planted fault should diverge";
}

// The fault-injection self-test as a unit test: a deliberately buggy
// translator must be caught within a small seed budget and the failing
// program must shrink to a near-minimal reproducer that still fails.
TEST(FuzzCampaign, PlantedFaultIsFoundAndShrunk) {
  CampaignOptions options;
  options.seeds = seed_budget(10);
  options.matrix = quick_matrix();
  options.oracle.fault = bt::FaultInjection::kAddiuImmOffByOne;
  options.oracle.max_instructions = 300000;
  const CampaignResult r = run_campaign(options);
  ASSERT_GT(r.divergent_seeds, 0) << "planted translator bug not detected";
  ASSERT_FALSE(r.failures.empty());

  const CampaignFailure& f = r.failures.front();
  EXPECT_TRUE(f.shrunk);
  EXPECT_LE(f.shrunk_program.instruction_count(), 12)
      << "reproducer not minimal:\n"
      << f.shrunk_program.render();
  EXPECT_LT(f.shrunk_program.instruction_count(), f.program.instruction_count());

  // The minimized reproducer must still trigger the divergence on its own.
  const OracleResult again =
      check_program(f.shrunk_program.render(), options.matrix, options.oracle);
  EXPECT_TRUE(again.divergence.found);

  // And the repro file (header + program) must itself assemble and replay.
  std::ostringstream repro;
  write_repro_file(repro, f, options.oracle);
  EXPECT_NO_THROW(asmblr::assemble(repro.str()));
  const OracleResult replayed = check_program(repro.str(), options.matrix, options.oracle);
  EXPECT_TRUE(replayed.divergence.found);
}

TEST(FuzzCampaign, SubuSwapFaultIsDetectable) {
  // The second planted fault hits a rarer op; give it a larger budget but
  // skip shrinking to keep the test cheap.
  CampaignOptions options;
  options.seeds = seed_budget(60);
  options.matrix = quick_matrix();
  options.shrink = false;
  options.oracle.fault = bt::FaultInjection::kSubuSwapOperands;
  options.oracle.max_instructions = 300000;
  const CampaignResult r = run_campaign(options);
  EXPECT_GT(r.divergent_seeds, 0) << "planted subu fault not detected";
}

TEST(FuzzDispatch, CodePageStoresStayTransparent) {
  // The same-word code-store mode rewrites instructions with their own
  // values, so programs stay transparency-safe: the ordinary
  // accel-vs-baseline oracle must hold with the mode on. (Real SMC —
  // smc_patch_stores — legitimately breaks this oracle and is only legal
  // in dispatch campaigns.)
  GenOptions gen;
  gen.code_page_stores = true;
  const int seeds = seed_budget(10);
  for (int s = 0; s < seeds; ++s) {
    const FuzzProgram p = generate_program(static_cast<uint64_t>(s), gen);
    const OracleResult r = check_program(p.render(), quick_matrix());
    EXPECT_FALSE(r.inconclusive) << "seed " << s << ": " << r.inconclusive_reason;
    EXPECT_FALSE(r.divergence.found)
        << "seed " << s << " diverged at " << r.divergence.point_label << ": "
        << r.divergence.detail;
  }
}

TEST(FuzzDispatch, CampaignWithSmcIsCleanAndThreadInvariant) {
  // The merge gate for the superblock trace engine: fast vs slow dispatch
  // bit-identical, with both code-store modes on (including real SMC
  // patches). Also pins thread-count invariance of the dispatch campaign.
  CampaignOptions options;
  options.seeds = seed_budget(15);
  options.matrix = quick_matrix();
  options.gen.code_page_stores = true;
  options.gen.smc_patch_stores = true;

  options.threads = 1;
  const CampaignResult one = run_dispatch_campaign(options);
  EXPECT_TRUE(one.clean()) << one.divergent_seeds << " divergent seeds";
  EXPECT_EQ(one.inconclusive_seeds, 0);
  EXPECT_EQ(one.seeds_run, options.seeds);

  options.threads = 4;
  const CampaignResult four = run_dispatch_campaign(options);
  std::ostringstream json_one, json_four;
  write_campaign_json(json_one, one);
  write_campaign_json(json_four, four);
  EXPECT_EQ(json_one.str(), json_four.str());
}

TEST(FuzzDispatch, OracleRejectsUnassemblableSource) {
  const OracleResult r = check_dispatch_program("this is not assembly", quick_matrix());
  EXPECT_TRUE(r.inconclusive);
  EXPECT_FALSE(r.divergence.found);
}

// --- Hammock / predication axis ----------------------------------------------

TEST(FuzzGenerator, HammockModesAreDeterministicAndAssemble) {
  GenOptions gen;
  gen.hammocks = true;
  gen.nested_hammocks = true;
  const int seeds = seed_budget(30);
  for (int s = 0; s < seeds; ++s) {
    const FuzzProgram a = generate_program(static_cast<uint64_t>(s), gen);
    const FuzzProgram b = generate_program(static_cast<uint64_t>(s), gen);
    EXPECT_EQ(a.render(), b.render()) << "seed " << s;
    EXPECT_NO_THROW(asmblr::assemble(a.render())) << "seed " << s;
  }
}

TEST(FuzzGenerator, HammockModeActuallyEmitsHammocks) {
  // The mode must not be decorative: across a seed range, most seeds draw
  // at least one hammock piece (visible as the generator's ham/hjoin
  // labels), and base-mode programs never contain one.
  GenOptions ham;
  ham.hammocks = true;
  int with_hammock = 0;
  for (uint64_t s = 0; s < 40; ++s) {
    EXPECT_EQ(generate_program(s).render().find("ham"), std::string::npos)
        << "seed " << s << ": base mode emitted a hammock";
    if (generate_program(s, ham).render().find("hjoin") != std::string::npos) {
      ++with_hammock;
    }
  }
  EXPECT_GT(with_hammock, 10) << "hammock pieces drawn too rarely";
}

TEST(FuzzGenerator, HammockModeEmitsMergeEligibleDiamonds) {
  // Coverage gate for the whole axis: across the seed budget, the hammock
  // bait must actually drive the translator's merge path (not only the
  // fallback), observed as if-converted hammocks on a predication-enabled
  // system. A generator regression that stops emitting merge-eligible
  // shapes fails here rather than silently weakening the campaigns.
  GenOptions gen;
  gen.hammocks = true;
  gen.nested_hammocks = true;
  accel::SystemConfig cfg =
      accel::SystemConfig::with(rra::ArrayShape::config2(), 64, true);
  cfg.predication = true;
  cfg.residency = accel::Residency::kLoop;
  cfg.machine.max_instructions = 300000;
  const int seeds = seed_budget(20);
  uint64_t merged = 0;
  for (int s = 0; s < seeds; ++s) {
    const FuzzProgram p = generate_program(static_cast<uint64_t>(s), gen);
    const auto st = accel::run_accelerated(asmblr::assemble(p.render()), cfg);
    merged += st.hammocks_merged;
  }
  EXPECT_GT(merged, 0u) << "no seed produced a merge-eligible hammock";
}

TEST(FuzzOracle, HammockProgramsTransparentAcrossPredicationAxis) {
  // The widened matrix (quick_matrix carries predication+residency points)
  // against hammock-bait programs: merge, cap-fallback and nested-fallback
  // paths must all stay architecturally transparent.
  GenOptions gen;
  gen.hammocks = true;
  gen.nested_hammocks = true;
  const int seeds = seed_budget(10);
  for (int s = 0; s < seeds; ++s) {
    const FuzzProgram p = generate_program(static_cast<uint64_t>(s), gen);
    const OracleResult r = check_program(p.render(), quick_matrix());
    EXPECT_FALSE(r.inconclusive) << "seed " << s << ": " << r.inconclusive_reason;
    EXPECT_FALSE(r.divergence.found)
        << "seed " << s << " diverged at " << r.divergence.point_label << ": "
        << r.divergence.detail;
  }
}

TEST(FuzzDispatch, HammockCampaignCleanAndThreadInvariant) {
  // Fast-vs-slow dispatch with the hammock modes on top of both code-store
  // modes: cycle accounting of predicated configs and the residency latch
  // must be bit-identical across dispatch paths and thread counts.
  CampaignOptions options;
  options.seeds = seed_budget(15);
  options.matrix = quick_matrix();
  options.gen.hammocks = true;
  options.gen.nested_hammocks = true;
  options.gen.code_page_stores = true;
  options.gen.smc_patch_stores = true;

  options.threads = 1;
  const CampaignResult one = run_dispatch_campaign(options);
  EXPECT_TRUE(one.clean()) << one.divergent_seeds << " divergent seeds";
  EXPECT_EQ(one.inconclusive_seeds, 0);

  options.threads = 4;
  const CampaignResult four = run_dispatch_campaign(options);
  std::ostringstream json_one, json_four;
  write_campaign_json(json_one, one);
  write_campaign_json(json_four, four);
  EXPECT_EQ(json_one.str(), json_four.str());
}

}  // namespace
}  // namespace dim::fuzz
