// dimsim command-line runner: execute a bundled MiBench-equivalent workload
// (or any MIPS assembly file) on the baseline core and the DIM-accelerated
// core, with full control over the paper's knobs.
//
// Usage:
//   run_workload [options] [workload-name | --asm file.s]
// Options:
//   --config 1|2|3|ideal   array shape (default 2)
//   --slots N              reconfiguration-cache slots (default 64)
//   --no-spec              disable speculation
//   --lru                  LRU replacement instead of the paper's FIFO
//   --scale N              workload scale factor (default 1)
//   --trace N              print the first N retired instructions
//   --json                 emit run statistics as JSON
//   --list                 list bundled workloads
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "accel/stats_io.hpp"
#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "sim/machine.hpp"
#include "sim/tracer.hpp"
#include "work/workload.hpp"

namespace {

int usage() {
  std::fprintf(stderr, "usage: run_workload [options] [workload-name | --asm file.s]\n"
                       "       run_workload --list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name = "crc32";
  std::string asm_file;
  int config_id = 2, scale = 1;
  size_t slots = 64;
  bool spec = true, lru = false, json = false;
  uint64_t trace_lines = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(usage());
      }
      return argv[++i];
    };
    if (arg == "--list") {
      for (const auto& n : dim::work::workload_names()) std::printf("%s\n", n.c_str());
      return 0;
    } else if (arg == "--config") {
      const std::string v = next();
      config_id = v == "ideal" ? 0 : std::atoi(v.c_str());
    } else if (arg == "--slots") {
      slots = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--no-spec") {
      spec = false;
    } else if (arg == "--lru") {
      lru = true;
    } else if (arg == "--scale") {
      scale = std::atoi(next());
    } else if (arg == "--trace") {
      trace_lines = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--asm") {
      asm_file = next();
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      name = arg;
    }
  }

  // --- assemble ---
  dim::asmblr::Program program;
  std::string label = name;
  try {
    if (!asm_file.empty()) {
      std::ifstream in(asm_file);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", asm_file.c_str());
        return 1;
      }
      std::stringstream ss;
      ss << in.rdbuf();
      program = dim::asmblr::assemble(ss.str());
      label = asm_file;
    } else {
      program = dim::asmblr::assemble(dim::work::make_workload(name, scale).source);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // --- baseline (with optional trace) ---
  dim::sim::Machine machine(program);
  dim::sim::TracerOptions topt;
  topt.max_lines = trace_lines;
  topt.show_registers = true;
  topt.show_memory = true;
  dim::sim::Tracer tracer(std::cout, topt);
  const dim::sim::RunResult base =
      trace_lines > 0
          ? machine.run([&](const dim::sim::StepInfo& info) {
              tracer.observe(info, machine.state());
            })
          : machine.run();

  // --- accelerated ---
  dim::rra::ArrayShape shape = dim::rra::ArrayShape::config2();
  if (config_id == 1) shape = dim::rra::ArrayShape::config1();
  if (config_id == 3) shape = dim::rra::ArrayShape::config3();
  if (config_id == 0) shape = dim::rra::ArrayShape::ideal();
  dim::accel::SystemConfig cfg = dim::accel::SystemConfig::with(shape, slots, spec);
  if (lru) cfg.cache_replacement = dim::bt::Replacement::kLru;

  const dim::accel::AccelStats st = dim::accel::run_accelerated(program, cfg);

  // --- report ---
  const bool transparent = base.state.output == st.final_state.output &&
                           base.memory_hash == st.memory_hash &&
                           base.state.reg_hash() == st.final_state.reg_hash();
  if (json) {
    dim::accel::write_json(std::cout, st, label);
  } else {
    std::printf("== %s ==\n", label.c_str());
    std::printf("output: '%s'\n", st.final_state.output.c_str());
    std::printf("baseline: %llu cycles | accelerated: %llu cycles | speedup %.2fx\n",
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(st.cycles),
                static_cast<double>(base.cycles) / static_cast<double>(st.cycles));
    std::ostringstream report;
    dim::accel::write_report(report, st);
    std::fputs(report.str().c_str(), stdout);
    std::printf("transparent: %s\n", transparent ? "yes" : "NO - BUG");
  }
  return transparent ? 0 : 1;
}
