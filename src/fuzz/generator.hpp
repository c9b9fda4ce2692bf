// Seeded structured program generator for the differential fuzzer.
//
// Programs are built from composable grammar pieces — straight ALU blocks
// over the full array-supported op set, nested counted loops, forward and
// backward branches, speculation bait (branches biased one way for most of
// a loop and flipping near the end, to exercise bimodal saturation,
// speculative extension and the misspeculation squash paths), mixed
// supported/unsupported ops (div splits a sequence), leaf calls (jal/jr
// boundaries), and load/store aliasing at mixed widths — driven by a
// deterministic PRNG, so a seed identifies a program forever.
//
// The output is a statement list, not flat text: every statement can carry
// a label and can be individually removed while keeping the program
// assemblable (labels survive removal so branch targets stay defined).
// That statement granularity is exactly what the delta-debugging shrinker
// (fuzz/shrink.hpp) minimizes over.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dim::fuzz {

// Deterministic PRNG (splitmix64). Unlike <random> distributions, every
// draw is fully specified here, so a seed reproduces the same program on
// any platform, compiler, and thread count.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  // Uniform in [lo, hi], inclusive. Requires lo <= hi.
  int range(int lo, int hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int>(next() % span);
  }

  bool chance(int percent) { return range(0, 99) < percent; }

 private:
  uint64_t state_;
};

// One assembly statement. `label` (when non-empty) is emitted as "label:"
// before the text and is never removed — only `text` is, so every subset
// of statements still assembles.
struct Stmt {
  std::string label;
  std::string text;        // one instruction or directive ("" = label only)
  bool removable = true;   // false: structural (entry, exit, .data, ...)
  bool is_instruction = true;  // false for directives/labels (size metric)
};

struct FuzzProgram {
  std::vector<Stmt> stmts;

  // Renders to assembler input (see asm/assembler.hpp syntax).
  std::string render() const;

  // Instruction statements with non-empty text — the size the shrinker
  // minimizes and the acceptance metric for reproducers.
  int instruction_count() const;
};

struct GenOptions {
  int min_pieces = 3;        // grammar pieces inside the outer loop
  int max_pieces = 7;
  int max_loop_depth = 2;    // counted loops nested inside the outer loop
  int buffer_bytes = 512;    // shared scratch buffer (aliasing playground)
  // Aliasing into the CODE pages. code_page_stores emits stores that
  // rewrite an instruction word with its own value — architecturally a
  // no-op, so it is safe for the accel-vs-baseline transparency oracle,
  // but it forces the host trace/decode caches through their
  // store-into-code and revalidation paths. smc_patch_stores goes further
  // and patches a site with a DIFFERENT donor instruction word; that is
  // real self-modifying code, which stale rcache configurations do not
  // revalidate against, so it is only legal in fast-vs-slow dispatch
  // campaigns (both sides share the rcache behavior, whatever it is).
  bool code_page_stores = false;
  bool smc_patch_stores = false;
  // Hammock bait for the if-conversion path: forward branches over short
  // arms shaped like what the translator merges under predication —
  // data-dependent conditions, arms with register writes, stores and
  // HI/LO traffic, both if-then and diamond (two arms joined by an
  // unconditional jump). Some draws deliberately exceed the arm cap or
  // plant a div, so the speculation fallback is exercised alongside the
  // merge. nested_hammocks additionally nests a hammock inside an arm
  // (the outer one must then fall back; the inner stays mergeable).
  bool hammocks = false;
  bool nested_hammocks = false;
  // Execution-mode bait (src/rra/exec_mode/). long_chains emits a serial
  // accumulator chain threaded through loads and multiplies with
  // independent filler ops between the links — under the elastic
  // personality the filler overtakes the chain through the per-row FIFOs
  // (and capacity-1 points backpressure hard), while row-sync pays the
  // full serial height. lane_divergence emits hammocks conditioned on the
  // parity of the innermost live loop counter, so the branch flips every
  // iteration and its bimodal counter never saturates: with predication
  // on, the hammock is always if-converted rather than speculated, and
  // back-to-back dispatches of one latched configuration see both
  // predicate outcomes.
  bool long_chains = false;
  bool lane_divergence = false;
};

// Deterministic: generate_program(s, o) is the same program forever.
FuzzProgram generate_program(uint64_t seed, const GenOptions& options = {});

// Scalable iteration budget for fuzz-style tests: the value of the
// DIMSIM_FUZZ_SEEDS environment variable when set to a positive integer,
// else `default_seeds`. Honored by test_differential, test_property and
// the fuzz campaign tests so CI cost stays fixed while a nightly or a
// developer can crank the budget without recompiling.
int seed_budget(int default_seeds);

}  // namespace dim::fuzz
