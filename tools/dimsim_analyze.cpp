// dimsim-analyze: DIM planning and observation.
//
// Static mode (default): walks the text segment of an assembled program,
// splits it into static basic blocks, runs the DIM placement over each
// block, and reports what the hardware would find: translatable fraction,
// rows needed, functional-unit pressure against a chosen array shape. The
// offline counterpart of the paper's §5.1 analysis — useful to size an
// array for a binary before running it.
//
// Dynamic mode (--events / --hot-configs): actually RUNS the program on
// the accelerated system with the configuration-lifecycle event stream
// attached (see docs/observability.md). --events FILE dumps the raw
// stream as JSON-lines; --hot-configs N prints the top-N configurations
// by array cycles with their full cycle breakdown (exec / reconfig /
// dcache / finalize / misspec — the components sum to each config's
// contribution to array_cycles).
//
// Snapshot mode (--snapshot FILE): human-readable dump of a persistence
// artifact written by the snap subsystem (docs/persistence.md) — a full
// snapshot gets its header, statistics, cached configurations (start PC,
// rows, ops) and predictor summary printed; corrupt files are reported
// with the loader's precise failure class.
//
// Usage: dimsim-analyze (file.s | --workload NAME) [--config 1|2|3]
//                       [--json] [--events FILE] [--hot-configs N]
//                       [--scale N]
//        dimsim-analyze --snapshot FILE
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "accel/stats_io.hpp"
#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "bt/translator.hpp"
#include "isa/decoder.hpp"
#include "obs/event.hpp"
#include "obs/profile.hpp"
#include "rra/array_shape.hpp"
#include "snap/io.hpp"
#include "snap/snapshot.hpp"
#include "work/workload.hpp"

namespace {

using dim::isa::Instr;
using dim::isa::Op;

struct BlockPlan {
  uint32_t start = 0;
  int instructions = 0;
  int translated = 0;
  int rows = 0;
  int alu = 0, mul = 0, mem = 0;
  bool cacheable = false;  // >3 translated instructions
};

constexpr const char* kUsage =
    "usage: dimsim-analyze (file.s | --workload NAME) [--config 1|2|3] "
    "[--json] [--events FILE] [--hot-configs N] [--scale N]\n"
    "       dimsim-analyze --snapshot FILE\n";

// Dumps one persistence artifact. The artifact kind is taken from the
// header, so snapshots and result-store cells both work.
int run_snapshot_dump(const std::string& path) {
  dim::snap::ArtifactKind kind;
  std::vector<uint8_t> payload;
  try {
    payload = dim::snap::read_artifact_file(path, &kind);
  } catch (const dim::snap::SnapshotError& e) {
    std::fprintf(stderr, "%s: rejected: %s\n", path.c_str(), e.what());
    return 1;
  }
  std::printf("%s: dimsim persistence artifact\n", path.c_str());
  std::printf("  format version %u, kind %s, payload %zu bytes, CRC-32 0x%08x\n\n",
              dim::snap::kFormatVersion, dim::snap::artifact_kind_name(kind),
              payload.size(), dim::snap::crc32(payload.data(), payload.size()));
  try {
    switch (kind) {
      case dim::snap::ArtifactKind::kSnapshot: {
        const dim::snap::SnapshotInfo info = dim::snap::inspect_snapshot(payload);
        std::printf("program hash       0x%016llx\n",
                    static_cast<unsigned long long>(info.program_hash));
        std::printf("system fingerprint 0x%016llx\n\n",
                    static_cast<unsigned long long>(info.system_fingerprint));
        std::printf("cpu: pc 0x%08x, %s, %zu output bytes\n", info.cpu.pc,
                    info.cpu.halted ? "halted" : "running", info.cpu.output.size());
        std::printf("memory: %zu pages (%zu KiB)\n", info.memory_pages,
                    info.memory_pages * 64);
        std::printf("run so far: %llu instructions, %llu cycles "
                    "(%llu processor + %llu array), %llu activations\n",
                    static_cast<unsigned long long>(info.stats.instructions),
                    static_cast<unsigned long long>(info.stats.cycles),
                    static_cast<unsigned long long>(info.stats.proc_cycles),
                    static_cast<unsigned long long>(info.stats.array_cycles),
                    static_cast<unsigned long long>(info.stats.array_activations));
        std::printf("predictor: %zu branches tracked, %zu saturated\n",
                    info.predictor_branches, info.predictor_saturated);
        std::printf("translator: %llu observed, %llu captures, %llu inserted, "
                    "%llu aborted, %llu extensions\n",
                    static_cast<unsigned long long>(
                        info.translator_stats.observed_instructions),
                    static_cast<unsigned long long>(
                        info.translator_stats.captures_started),
                    static_cast<unsigned long long>(
                        info.translator_stats.configs_inserted),
                    static_cast<unsigned long long>(
                        info.translator_stats.captures_aborted),
                    static_cast<unsigned long long>(
                        info.translator_stats.extensions_completed));
        if (info.capture_in_flight) {
          std::printf("in-flight capture at 0x%08x (%d ops placed)\n",
                      info.capture_pc, info.capture_ops);
        }
        std::printf("\nreconfiguration cache: %zu entries (oldest first), "
                    "%llu hits / %llu misses / %llu evictions\n",
                    info.rcache_entries.size(),
                    static_cast<unsigned long long>(info.rcache_counters.hits),
                    static_cast<unsigned long long>(info.rcache_counters.misses),
                    static_cast<unsigned long long>(info.rcache_counters.evictions));
        std::printf("  %-12s %-12s %5s %5s %4s\n", "start", "end", "ops", "rows", "bbs");
        for (const auto& e : info.rcache_entries) {
          std::printf("  0x%08x   0x%08x   %5d %5d %4d\n", e.start_pc, e.end_pc, e.ops,
                      e.rows_used, e.num_bbs);
        }
        return 0;
      }
      case dim::snap::ArtifactKind::kResultCell:
        std::printf("memoized sweep cell (see snap::ResultStore); keyed by the "
                    "filename, consumed by --result-store benches\n");
        return 0;
    }
  } catch (const dim::snap::SnapshotError& e) {
    std::fprintf(stderr, "%s: rejected: %s\n", path.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "%s: unknown artifact kind\n", path.c_str());
  return 1;
}

// Runs the program with a recording sink attached, dumps the stream and/or
// the per-configuration aggregation table.
int run_dynamic(const dim::asmblr::Program& program, const dim::rra::ArrayShape& shape,
                const std::string& events_path, int hot_configs, bool json) {
  dim::obs::RecordingSink sink;
  dim::accel::SystemConfig config;
  config.shape = shape;
  config.event_sink = &sink;
  const dim::accel::AccelStats stats = dim::accel::run_accelerated(program, config);

  if (!events_path.empty()) {
    std::ofstream out(events_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", events_path.c_str());
      return 1;
    }
    dim::obs::write_events_jsonl(out, sink.events());
    std::fprintf(stderr, "%zu events written to %s\n", sink.events().size(),
                 events_path.c_str());
  }

  dim::obs::ProfileTable table;
  table.add_all(sink.events());

  if (json) {
    std::cout << "{\n  \"stats\": {\n";
    dim::accel::write_json_fields(std::cout, stats, "    ");
    std::cout << "  },\n  \"profile\": ";
    std::ostringstream profile;
    dim::obs::write_profile_json(profile, table);
    std::cout << profile.str() << "}\n";
  } else {
    dim::accel::write_report(std::cout, stats);
    std::cout << "\nhot configurations (by array cycles):\n";
    dim::obs::write_profile_table(std::cout, table,
                                  hot_configs > 0 ? static_cast<size_t>(hot_configs) : 0);
  }

  // The aggregation invariant the table is useful for: per-config cycle
  // breakdowns sum to the run's total array cycles.
  if (table.total_array_cycles() != stats.array_cycles) {
    std::fprintf(stderr,
                 "cycle accounting mismatch: profile %llu != run %llu array cycles\n",
                 static_cast<unsigned long long>(table.total_array_cycles()),
                 static_cast<unsigned long long>(stats.array_cycles));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string workload;
  std::string events_path;
  std::string snapshot_path;
  int hot_configs = -1;  // -1 = not requested
  int config_id = 2;
  int scale = 1;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--config" && i + 1 < argc) {
      config_id = std::atoi(argv[++i]);
    } else if (arg == "--snapshot" && i + 1 < argc) {
      snapshot_path = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--events" && i + 1 < argc) {
      events_path = argv[++i];
    } else if (arg == "--hot-configs" && i + 1 < argc) {
      hot_configs = std::atoi(argv[++i]);
    } else if (arg == "--scale" && i + 1 < argc) {
      scale = std::atoi(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    } else {
      input = arg;
    }
  }
  if (!snapshot_path.empty()) return run_snapshot_dump(snapshot_path);
  if (input.empty() == workload.empty()) {  // exactly one source required
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  std::string source_text;
  if (!workload.empty()) {
    try {
      source_text = dim::work::make_workload(workload, scale).source;
      input = "workload:" + workload;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  } else {
    std::ifstream in(input);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", input.c_str());
      return 1;
    }
    std::stringstream source;
    source << in.rdbuf();
    source_text = source.str();
  }

  dim::asmblr::Program program;
  try {
    program = dim::asmblr::assemble(source_text);
  } catch (const dim::asmblr::AsmError& e) {
    std::fprintf(stderr, "%s: %s\n", input.c_str(), e.what());
    return 1;
  }

  const dim::rra::ArrayShape shape = config_id == 1   ? dim::rra::ArrayShape::config1()
                                     : config_id == 3 ? dim::rra::ArrayShape::config3()
                                                      : dim::rra::ArrayShape::config2();

  if (!events_path.empty() || hot_configs >= 0) {
    return run_dynamic(program, shape, events_path, hot_configs, json);
  }

  // Decode the text segment and find static basic-block leaders: the entry,
  // every branch/jump target, and every instruction after a control
  // transfer.
  const auto& text = program.segments[0];
  std::map<uint32_t, Instr> instrs;
  for (size_t off = 0; off + 4 <= text.bytes.size(); off += 4) {
    const uint32_t pc = text.base + static_cast<uint32_t>(off);
    const uint32_t word = static_cast<uint32_t>(text.bytes[off]) |
                          (static_cast<uint32_t>(text.bytes[off + 1]) << 8) |
                          (static_cast<uint32_t>(text.bytes[off + 2]) << 16) |
                          (static_cast<uint32_t>(text.bytes[off + 3]) << 24);
    instrs.emplace(pc, dim::isa::decode(word));
  }
  std::set<uint32_t> leaders = {program.entry};
  for (const auto& [pc, i] : instrs) {
    if (dim::isa::is_branch(i.op)) {
      leaders.insert(pc + 4 + (static_cast<uint32_t>(i.simm()) << 2));
      leaders.insert(pc + 4);
    } else if (dim::isa::is_jump(i.op)) {
      if (i.op == Op::kJ || i.op == Op::kJal) {
        leaders.insert(((pc + 4) & 0xF0000000u) | (i.target26 << 2));
      }
      leaders.insert(pc + 4);
    }
  }

  // Plan each static block with the DIM placement rules.
  dim::bt::TranslatorParams params;
  params.shape = shape;
  std::vector<BlockPlan> plans;
  int total_instr = 0, total_translated = 0, cacheable = 0;
  for (auto it = leaders.begin(); it != leaders.end(); ++it) {
    const uint32_t start = *it;
    if (instrs.find(start) == instrs.end()) continue;
    BlockPlan plan;
    plan.start = start;
    dim::bt::ConfigBuilder builder(start, params);
    for (uint32_t pc = start; instrs.count(pc) != 0; pc += 4) {
      if (pc != start && leaders.count(pc) != 0) break;  // next block
      const Instr& i = instrs.at(pc);
      ++plan.instructions;
      if (dim::isa::is_branch(i.op) || dim::isa::is_jump(i.op) ||
          i.op == Op::kSyscall || i.op == Op::kBreak || i.op == Op::kInvalid) {
        break;
      }
      if (builder.try_add(i, pc)) {
        ++plan.translated;
        switch (dim::isa::fu_kind(i.op)) {
          case dim::isa::FuKind::kMul: ++plan.mul; break;
          case dim::isa::FuKind::kLdSt: ++plan.mem; break;
          default: ++plan.alu; break;
        }
      }
    }
    const auto config = builder.finalize(0);
    plan.rows = config.rows_used;
    plan.cacheable = plan.translated >= params.min_instructions;
    total_instr += plan.instructions;
    total_translated += plan.translated;
    if (plan.cacheable) ++cacheable;
    plans.push_back(plan);
  }

  if (json) {
    std::printf("{\n  \"input\": \"%s\",\n  \"config\": %d,\n  \"lines\": %d,\n",
                input.c_str(), config_id, shape.lines);
    std::printf("  \"blocks\": [\n");
    for (size_t i = 0; i < plans.size(); ++i) {
      const BlockPlan& p = plans[i];
      std::printf("    {\"start\": %u, \"instructions\": %d, \"translated\": %d, "
                  "\"rows\": %d, \"alu\": %d, \"mul\": %d, \"mem\": %d, "
                  "\"cacheable\": %s}%s\n",
                  p.start, p.instructions, p.translated, p.rows, p.alu, p.mul, p.mem,
                  p.cacheable ? "true" : "false", i + 1 < plans.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"total_instructions\": %d,\n  \"total_translated\": %d,\n"
                "  \"cacheable_blocks\": %d\n}\n",
                total_instr, total_translated, cacheable);
    return 0;
  }

  std::printf("static DIM analysis of %s against configuration #%d (%d lines)\n\n",
              input.c_str(), config_id, shape.lines);
  std::printf("%-12s %6s %6s %5s %5s %5s %5s %10s\n", "block", "instr", "xlate", "rows",
              "alu", "mul", "mem", "cacheable");
  for (const BlockPlan& p : plans) {
    std::printf("0x%08x %6d %6d %5d %5d %5d %5d %10s\n", p.start, p.instructions,
                p.translated, p.rows, p.alu, p.mul, p.mem, p.cacheable ? "yes" : "-");
  }
  std::printf("\n%zu static blocks; %d/%d instructions translatable (%.1f%%); "
              "%d blocks cacheable (>3 instructions)\n",
              plans.size(), total_translated, total_instr,
              total_instr ? 100.0 * total_translated / total_instr : 0.0, cacheable);
  return 0;
}
