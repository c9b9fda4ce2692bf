#include "fuzz/generator.hpp"

#include <cstdlib>

namespace dim::fuzz {

std::string FuzzProgram::render() const {
  std::string out;
  for (const Stmt& s : stmts) {
    if (!s.label.empty()) {
      out += s.label;
      out += ":";
      if (!s.text.empty()) out += " ";
    } else if (!s.text.empty()) {
      out += "        ";
    }
    out += s.text;
    out += "\n";
  }
  return out;
}

int FuzzProgram::instruction_count() const {
  int n = 0;
  for (const Stmt& s : stmts) {
    if (s.is_instruction && !s.text.empty()) ++n;
  }
  return n;
}

int seed_budget(int default_seeds) {
  const char* env = std::getenv("DIMSIM_FUZZ_SEEDS");
  if (env == nullptr || *env == '\0') return default_seeds;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<int>(v) : default_seeds;
}

namespace {

// Register allocation (fixed by convention so grammar pieces compose):
//   $t0..$t7  ($8..$15)  random data pool
//   $s0       buffer base; $s4 second (aliasing) pointer into the buffer
//   $s1..$s3  inner-loop counters, indexed by nesting depth
//   $s5,$s6   leaf-subroutine accumulators
//   $s7       outer loop counter
//   $at       scratch (div operands, speculation-bait compares)
class Gen {
 public:
  Gen(Rng& rng, const GenOptions& options) : rng_(rng), options_(options) {
    // Kind menu for emit_piece. The base grammar occupies 0..7 and is drawn
    // with the same range() call it always used, so default options draw
    // the exact statement stream they always have (a seed identifies a
    // program forever); each enabled mode appends its entries.
    for (int k = 0; k <= 7; ++k) menu_.push_back(k);
    if (options.code_page_stores || options.smc_patch_stores) menu_.push_back(8);
    if (options.hammocks) menu_.push_back(9);
    if (options.nested_hammocks) menu_.push_back(10);
    if (options.long_chains) menu_.push_back(11);
    if (options.lane_divergence) menu_.push_back(12);
  }

  FuzzProgram run() {
    emit_prologue();
    const int pieces = rng_.range(options_.min_pieces, options_.max_pieces);
    for (int p = 0; p < pieces; ++p) emit_piece(/*depth=*/0);
    emit_epilogue();
    return std::move(program_);
  }

 private:
  std::string treg() { return "$" + std::to_string(rng_.range(8, 15)); }
  std::string label(const std::string& stem) {
    return stem + std::to_string(label_counter_++);
  }

  void instr(const std::string& text, bool removable = true) {
    program_.stmts.push_back(Stmt{"", text, removable, true});
  }
  void labeled(const std::string& name) {
    program_.stmts.push_back(Stmt{name, "", false, false});
  }
  void directive(const std::string& text) {
    program_.stmts.push_back(Stmt{"", text, false, false});
  }

  void emit_prologue() {
    directive(".data");
    program_.stmts.push_back(
        Stmt{"buf", ".space " + std::to_string(options_.buffer_bytes), false, false});
    directive(".text");
    labeled("main");
    instr("la $s0, buf");
    // Second pointer into the middle of the same buffer: $s4-relative
    // accesses alias $s0-relative ones at mixed widths.
    instr("la $s4, buf+" + std::to_string(rng_.range(0, options_.buffer_bytes / 4) & ~3));
    for (int r = 8; r <= 15; ++r) {
      instr("li $" + std::to_string(r) + ", " + std::to_string(rng_.range(-9999, 9999)));
    }
    // Leaf subroutine, jumped over on the way in (jal/jr boundaries split
    // DIM sequences; the leaf body itself is a translatable block).
    const std::string entry = label("entry");
    instr("b " + entry, /*removable=*/false);
    labeled("leaf");
    instr("addu $s5, $s5, " + treg());
    instr("xor $s6, $s5, " + treg());
    instr("sll $s5, $s5, 1");
    instr("jr $ra", /*removable=*/false);
    labeled(entry);
    // Code-page base for the self-aliasing pieces ($t9 is otherwise unused).
    if (options_.code_page_stores || options_.smc_patch_stores) {
      instr("la $t9, main", /*removable=*/false);
    }
    instr("li $s7, " + std::to_string(rng_.range(12, 40)));
    labeled("body");
  }

  void emit_epilogue() {
    instr("addiu $s7, $s7, -1");
    instr("bnez $s7, body");
    instr("move $a0, $zero");
    for (int r = 8; r <= 15; ++r) instr("addu $a0, $a0, $" + std::to_string(r));
    for (int r = 17; r <= 22; ++r) instr("addu $a0, $a0, $" + std::to_string(r));
    instr("li $v0, 1");
    instr("syscall");
    instr("li $v0, 10", /*removable=*/false);
    instr("syscall", /*removable=*/false);
  }

  void emit_piece(int depth) {
    switch (menu_[rng_.range(0, static_cast<int>(menu_.size()) - 1)]) {
      case 8: emit_code_store(); break;
      case 9: emit_hammock(/*nested=*/false); break;
      case 10: emit_hammock(/*nested=*/true); break;
      case 11: emit_long_chain(); break;
      case 12: emit_lane_divergence(depth); break;
      case 0: emit_alu_block(); break;
      case 1: emit_mult_block(); break;
      case 2: emit_div_block(); break;
      case 3: emit_mem_block(); break;
      case 4: emit_forward_branch(); break;
      case 5: emit_spec_bait(); break;
      case 6:
        if (depth < options_.max_loop_depth) {
          emit_counted_loop(depth);
        } else {
          emit_alu_block();
        }
        break;
      default: emit_leaf_call(); break;
    }
  }

  // Straight-line block drawing from the full array-supported ALU op set
  // (three-register, shift, and immediate forms).
  void emit_alu_block() {
    const int n = rng_.range(3, 10);
    for (int i = 0; i < n; ++i) {
      switch (rng_.range(0, 9)) {
        case 0: case 1: case 2: case 3: {
          static const char* kRRR[] = {"addu", "subu", "add",  "sub", "and",
                                       "or",   "xor",  "nor",  "slt", "sltu",
                                       "sllv", "srlv", "srav"};
          const char* op = kRRR[rng_.range(0, 12)];
          instr(std::string(op) + " " + treg() + ", " + treg() + ", " + treg());
          break;
        }
        case 4: case 5: {
          static const char* kShift[] = {"sll", "srl", "sra"};
          instr(std::string(kShift[rng_.range(0, 2)]) + " " + treg() + ", " + treg() +
                ", " + std::to_string(rng_.range(0, 31)));
          break;
        }
        case 6: case 7: {
          static const char* kSImm[] = {"addi", "addiu", "slti", "sltiu"};
          instr(std::string(kSImm[rng_.range(0, 3)]) + " " + treg() + ", " + treg() +
                ", " + std::to_string(rng_.range(-512, 511)));
          break;
        }
        case 8: {
          static const char* kUImm[] = {"andi", "ori", "xori"};
          instr(std::string(kUImm[rng_.range(0, 2)]) + " " + treg() + ", " + treg() +
                ", " + std::to_string(rng_.range(0, 65535)));
          break;
        }
        default:
          instr("lui " + treg() + ", " + std::to_string(rng_.range(0, 65535)));
          break;
      }
    }
  }

  void emit_mult_block() {
    instr(std::string(rng_.chance(50) ? "mult " : "multu ") + treg() + ", " + treg());
    if (rng_.chance(80)) instr("mflo " + treg());
    if (rng_.chance(50)) instr("mfhi " + treg());
  }

  // Division is unsupported by the array: DIM must split the sequence
  // around it and the halves must still be transparent.
  void emit_div_block() {
    instr("li $at, " + std::to_string(rng_.range(1, 500)));
    instr(std::string(rng_.chance(50) ? "div " : "divu ") + treg() + ", $at");
    instr("mflo " + treg());
    if (rng_.chance(40)) instr("mfhi " + treg());
  }

  // Loads and stores at mixed widths through two pointers into the same
  // buffer — sub-word stores under words, sign-extending reloads of bytes
  // a word store just wrote, and so on. Offsets are aligned per width.
  void emit_mem_block() {
    const int n = rng_.range(2, 8);
    const int span = options_.buffer_bytes / 2;  // $s4 sits mid-buffer
    for (int i = 0; i < n; ++i) {
      const std::string base = rng_.chance(60) ? "$s0" : "$s4";
      switch (rng_.range(0, 7)) {
        case 0:
          instr("sw " + treg() + ", " + std::to_string(rng_.range(0, span / 4 - 1) * 4) +
                "(" + base + ")");
          break;
        case 1:
          instr("sh " + treg() + ", " + std::to_string(rng_.range(0, span / 2 - 1) * 2) +
                "(" + base + ")");
          break;
        case 2:
          instr("sb " + treg() + ", " + std::to_string(rng_.range(0, span - 1)) + "(" +
                base + ")");
          break;
        case 3:
          instr("lw " + treg() + ", " + std::to_string(rng_.range(0, span / 4 - 1) * 4) +
                "(" + base + ")");
          break;
        case 4:
          instr(std::string(rng_.chance(50) ? "lh " : "lhu ") + treg() + ", " +
                std::to_string(rng_.range(0, span / 2 - 1) * 2) + "(" + base + ")");
          break;
        default:
          instr(std::string(rng_.chance(50) ? "lb " : "lbu ") + treg() + ", " +
                std::to_string(rng_.range(0, span - 1)) + "(" + base + ")");
          break;
      }
    }
  }

  void emit_forward_branch() {
    const std::string skip = label("skip");
    switch (rng_.range(0, 2)) {
      case 0:
        instr(std::string(rng_.chance(50) ? "beq " : "bne ") + treg() + ", " + treg() +
              ", " + skip);
        break;
      case 1: {
        static const char* kCmp[] = {"blez", "bgtz", "bltz", "bgez"};
        instr(std::string(kCmp[rng_.range(0, 3)]) + " " + treg() + ", " + skip);
        break;
      }
      default:
        instr("beqz " + treg() + ", " + skip);
        break;
    }
    const int filler = rng_.range(1, 4);
    for (int i = 0; i < filler; ++i) {
      instr("addiu " + treg() + ", " + treg() + ", " + std::to_string(rng_.range(1, 9)));
    }
    labeled(skip);
  }

  // Speculation bait: a branch on the outer counter that goes the same way
  // for almost every iteration (saturating the bimodal counter, so DIM
  // extends the configuration across it), then flips for the last few
  // (forcing misspeculation squash of the speculative block — which
  // deliberately contains a store).
  void emit_spec_bait() {
    const std::string skip = label("bait");
    instr("slti $at, $s7, " + std::to_string(rng_.range(2, 5)));
    instr(std::string(rng_.chance(50) ? "beqz" : "bnez") + " $at, " + skip);
    instr("addu " + treg() + ", " + treg() + ", " + treg());
    instr("sw " + treg() + ", " + std::to_string(rng_.range(0, 31) * 4) + "($s4)");
    instr("addiu " + treg() + ", " + treg() + ", 1");
    labeled(skip);
  }

  void emit_counted_loop(int depth) {
    const std::string counter = "$s" + std::to_string(depth + 1);
    const std::string top = label("loop");
    instr("li " + counter + ", " + std::to_string(rng_.range(2, 6)));
    labeled(top);
    const int inner = rng_.range(1, 2);
    for (int i = 0; i < inner; ++i) emit_piece(depth + 1);
    instr("addiu " + counter + ", " + counter + ", -1");
    instr("bnez " + counter + ", " + top);
  }

  void emit_leaf_call() { instr("jal leaf"); }

  // Hammock / diamond bait (see GenOptions::hammocks). The branch condition
  // is data-dependent (pool registers), so both arms execute across the
  // run and predicated write-back is exercised in both directions.
  void emit_hammock(bool nested) {
    const std::string arm2 = label("ham");
    const std::string join = label("hjoin");
    if (rng_.chance(70)) {
      instr(std::string(rng_.chance(50) ? "beq " : "bne ") + treg() + ", " + treg() +
            ", " + arm2);
    } else {
      static const char* kCmp[] = {"blez", "bgtz", "bltz", "bgez"};
      instr(std::string(kCmp[rng_.range(0, 3)]) + " " + treg() + ", " + arm2);
    }
    if (nested) {
      // A branch inside the arm: the arm scan rejects it, so the OUTER
      // hammock must fall back to speculation — while the inner one stays
      // mergeable on its own once retirement reaches it.
      emit_hammock(/*nested=*/false);
      labeled(arm2);
      return;
    }
    emit_hammock_arm();
    if (rng_.chance(50)) {
      // Diamond: both arms exist, joined by an unconditional jump that
      // if-conversion turns into a predicated join.
      instr("b " + join);
      labeled(arm2);
      emit_hammock_arm();
      labeled(join);
    } else {
      labeled(arm2);  // if-then: the branch target is the join
    }
  }

  // One hammock arm. Short arms (the common draw) fit the translator's
  // default cap; the long tail and the div draw force the fallback path.
  // mult/mflo pairs route predication through HI/LO, sw through the store
  // buffer suppression.
  void emit_hammock_arm() {
    const int n = rng_.chance(80) ? rng_.range(1, 3) : rng_.range(5, 7);
    for (int i = 0; i < n; ++i) {
      switch (rng_.range(0, 5)) {
        case 0:
          instr("addiu " + treg() + ", " + treg() + ", " +
                std::to_string(rng_.range(-64, 64)));
          break;
        case 1:
          instr("addu " + treg() + ", " + treg() + ", " + treg());
          break;
        case 2:
          instr("xor " + treg() + ", " + treg() + ", " + treg());
          break;
        case 3:
          instr("sw " + treg() + ", " + std::to_string(rng_.range(0, 31) * 4) +
                "($s0)");
          break;
        case 4:
          instr("mult " + treg() + ", " + treg());
          instr("mflo " + treg());
          break;
        default:
          if (rng_.chance(20)) {
            instr("li $at, " + std::to_string(rng_.range(1, 99)));
            instr("div " + treg() + ", $at");
            instr("mflo " + treg());
          } else {
            instr("lw " + treg() + ", " + std::to_string(rng_.range(0, 31) * 4) +
                  "($s4)");
          }
          break;
      }
    }
  }

  // Serial dependence chain bait (see GenOptions::long_chains). Every link
  // reads the accumulator written by the previous link — through the ALU,
  // the multiplier, or a store/load round-trip — so the chain's critical
  // path is its full length; the independent filler between links is what
  // an elastic array can slide past the chain while row-sync waits row by
  // row. The chain register is drawn from the pool, so the epilogue's
  // checksum over $t0..$t7 keeps the whole chain architecturally live.
  void emit_long_chain() {
    const std::string acc = treg();
    const int links = rng_.range(4, 8);
    for (int i = 0; i < links; ++i) {
      switch (rng_.range(0, 3)) {
        case 0:
          instr("addu " + acc + ", " + acc + ", " + treg());
          break;
        case 1:
          instr("xor " + acc + ", " + acc + ", " + treg());
          break;
        case 2:
          instr("mult " + acc + ", " + treg());
          instr("mflo " + acc);
          break;
        default: {
          const int off = rng_.range(0, 31) * 4;
          instr("sw " + acc + ", " + std::to_string(off) + "($s0)");
          instr("lw " + acc + ", " + std::to_string(off) + "($s0)");
          break;
        }
      }
      const int filler = rng_.range(1, 2);
      for (int f = 0; f < filler; ++f) {
        instr("addiu " + treg() + ", " + treg() + ", " +
              std::to_string(rng_.range(1, 9)));
      }
    }
  }

  // Lane-divergence bait (see GenOptions::lane_divergence): a hammock
  // conditioned on the PARITY of the innermost live loop counter, so the
  // branch flips direction on every iteration. Adjacent iterations of the
  // same configuration then take opposite arms, so one latched
  // configuration squashes a different arm on every dispatch. Data-driven
  // hammocks (--hammocks) often saturate into speculation instead.
  void emit_lane_divergence(int depth) {
    const std::string counter = depth > 0 ? "$s" + std::to_string(depth) : "$s7";
    const std::string arm2 = label("lane");
    const std::string join = label("ljoin");
    instr("andi $at, " + counter + ", 1");
    instr(std::string(rng_.chance(50) ? "beqz" : "bnez") + " $at, " + arm2);
    emit_hammock_arm();
    if (rng_.chance(50)) {
      instr("b " + join);
      labeled(arm2);
      emit_hammock_arm();
      labeled(join);
    } else {
      labeled(arm2);
    }
  }

  // Stores into the program's own code pages (see GenOptions). The
  // same-word rewrite loads an instruction word and stores it back
  // unchanged. The patch variant swaps two adjacent instruction words, a
  // site and its donor, every time it runs, then executes both; the two
  // do not commute (v+1 then v<<1, or v<<1 then v+1), so running either
  // from a stale trace changes the victim register.
  void emit_code_store() {
    if (options_.smc_patch_stores && rng_.chance(50)) {
      const std::string site = label("patch");
      const std::string t = treg();
      instr("la $at, " + site);
      instr("lw " + t + ", 0($at)");
      instr("lw $v1, 4($at)");
      instr("sw $v1, 0($at)");
      instr("sw " + t + ", 4($at)");
      const std::string victim = treg();
      labeled(site);
      instr("addiu " + victim + ", " + victim + ", 1");
      instr("sll " + victim + ", " + victim + ", 1");
    } else {
      const int off = rng_.range(0, 63) * 4;
      instr("lw $at, " + std::to_string(off) + "($t9)");
      instr("sw $at, " + std::to_string(off) + "($t9)");
    }
  }

  Rng& rng_;
  const GenOptions& options_;
  FuzzProgram program_;
  std::vector<int> menu_;  // emit_piece kind menu (see constructor)
  int label_counter_ = 0;
};

}  // namespace

FuzzProgram generate_program(uint64_t seed, const GenOptions& options) {
  // Decorrelate adjacent seeds (campaigns use 0,1,2,...): run the raw seed
  // through the splitmix output mix once, so consecutive seeds start at
  // unrelated points of the state orbit. Seeding the state with an affine
  // function of the seed instead would hand every seed the SAME draw
  // stream shifted by a few steps — overlapping programs and a collapsed
  // op distribution.
  Rng scramble(seed ^ 0xA5A5A5A55A5A5A5Aull);
  Rng rng(scramble.next());
  return Gen(rng, options).run();
}

}  // namespace dim::fuzz
