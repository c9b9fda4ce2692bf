#include "fuzz/oracle.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <sstream>

#include "accel/stats_io.hpp"
#include "asm/assembler.hpp"
#include "sim/machine.hpp"

namespace dim::fuzz {

namespace {

std::string hex32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

std::string u64(uint64_t v) { return std::to_string(v); }

accel::SystemConfig make_config(const rra::ArrayShape& shape, size_t slots,
                                bt::Replacement policy, bool spec, int depth) {
  accel::SystemConfig c;
  c.shape = shape;
  c.cache_slots = slots;
  c.cache_replacement = policy;
  c.speculation = spec;
  c.max_spec_bbs = depth;
  return c;
}

void add_shape_points(std::vector<MatrixPoint>& out, const std::string& shape_label,
                      const rra::ArrayShape& shape) {
  struct CacheChoice {
    const char* label;
    size_t slots;
    bt::Replacement policy;
  };
  struct SpecChoice {
    const char* label;
    bool spec;
    int depth;
  };
  static const CacheChoice kCaches[] = {{"fifo4", 4, bt::Replacement::kFifo},
                                        {"lru64", 64, bt::Replacement::kLru}};
  static const SpecChoice kSpecs[] = {
      {"nospec", false, 3}, {"spec1", true, 1}, {"spec3", true, 3}};
  for (const CacheChoice& cache : kCaches) {
    for (const SpecChoice& spec : kSpecs) {
      MatrixPoint p;
      p.label = shape_label + "/" + cache.label + "/" + spec.label;
      p.config = make_config(shape, cache.slots, cache.policy, spec.spec, spec.depth);
      out.push_back(std::move(p));
    }
  }
}

}  // namespace

std::vector<MatrixPoint> full_matrix() {
  std::vector<MatrixPoint> out;
  add_shape_points(out, "shape1", rra::ArrayShape::config1());
  add_shape_points(out, "shape2", rra::ArrayShape::config2());
  add_shape_points(out, "tiny", rra::ArrayShape{6, 3, 1, 1});
  // The predication axis: every point again with if-conversion and loop
  // residency on. Residency alternates between closed loops only
  // ("…/pred", kLoop) and any fully-committed configuration ("…/pred-any",
  // kAny), so latched straight-line and hammock configurations are
  // exercised too. Residency is timing-only and predication must be
  // transparent, so every such point answers to the same oracles as its
  // base point.
  const size_t base_points = out.size();
  for (size_t i = 0; i < base_points; ++i) {
    MatrixPoint p = out[i];
    const bool any = i % 2 == 1;
    p.label += any ? "/pred-any" : "/pred";
    p.config.predication = true;
    p.config.residency = any ? accel::Residency::kAny : accel::Residency::kLoop;
    out.push_back(std::move(p));
  }
  // The execution-mode axis (src/rra/exec_mode/): every base point again
  // under the elastic personality, 54 points in total. Elastic shares the
  // functional core with row-sync, so it answers to the same architectural
  // oracles; only timing/stats may differ — and those must still agree
  // between slow and fast dispatch at the same point. Predication is on so
  // that the predicate-slot edges actually get exercised; capacities
  // alternate so both a backpressure-heavy (cap 1) and a relaxed (cap 4)
  // FIFO appear in the grid.
  for (size_t i = 0; i < base_points; ++i) {
    MatrixPoint p = out[i];
    p.label += "/elastic";
    p.config.predication = true;
    p.config.exec_mode.mode = rra::ExecMode::kElastic;
    p.config.exec_mode.fifo_capacity = (i % 2 == 0) ? 1 : 4;
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<MatrixPoint> quick_matrix() {
  std::vector<MatrixPoint> out;
  MatrixPoint p;
  p.label = "shape1/fifo4/spec3";
  p.config = make_config(rra::ArrayShape::config1(), 4, bt::Replacement::kFifo, true, 3);
  out.push_back(p);
  p.label = "shape2/lru64/nospec";
  p.config = make_config(rra::ArrayShape::config2(), 64, bt::Replacement::kLru, false, 3);
  out.push_back(p);
  p.label = "tiny/fifo4/spec1";
  p.config = make_config(rra::ArrayShape{6, 3, 1, 1}, 4, bt::Replacement::kFifo, true, 1);
  out.push_back(p);
  p.label = "shape2/lru64/spec3";
  p.config = make_config(rra::ArrayShape::config2(), 64, bt::Replacement::kLru, true, 3);
  out.push_back(p);
  p.label = "shape1/fifo4/spec3/pred";
  p.config = make_config(rra::ArrayShape::config1(), 4, bt::Replacement::kFifo, true, 3);
  p.config.predication = true;
  p.config.residency = accel::Residency::kLoop;
  out.push_back(p);
  p.label = "shape2/lru64/nospec/pred";
  p.config = make_config(rra::ArrayShape::config2(), 64, bt::Replacement::kLru, false, 3);
  p.config.predication = true;
  p.config.residency = accel::Residency::kLoop;
  out.push_back(p);
  p.label = "shape1/fifo4/spec3/elastic";
  p.config = make_config(rra::ArrayShape::config1(), 4, bt::Replacement::kFifo, true, 3);
  p.config.predication = true;
  p.config.exec_mode.mode = rra::ExecMode::kElastic;
  p.config.exec_mode.fifo_capacity = 1;
  out.push_back(p);
  p.label = "shape2/lru64/spec3/pred-any";
  p.config = make_config(rra::ArrayShape::config2(), 64, bt::Replacement::kLru, true, 3);
  p.config.predication = true;
  p.config.residency = accel::Residency::kAny;
  out.push_back(p);
  return out;
}

const char* divergence_field_name(DivergenceField field) {
  switch (field) {
    case DivergenceField::kNone: return "none";
    case DivergenceField::kTermination: return "termination";
    case DivergenceField::kOutput: return "output";
    case DivergenceField::kRegister: return "register";
    case DivergenceField::kHiLo: return "hi_lo";
    case DivergenceField::kMemory: return "memory";
    case DivergenceField::kRetiredCount: return "retired_count";
    case DivergenceField::kCycles: return "cycles";
    case DivergenceField::kStats: return "stats";
    case DivergenceField::kEvents: return "events";
  }
  return "unknown";
}

namespace {

// Architectural diff shared by the two dispatch comparisons ("slow" = no
// trace dispatch, "fast" = trace dispatch). Fills field/detail on the
// first mismatch; leaves kNone when the states agree.
void diff_cpu_state(const sim::CpuState& slow, const sim::CpuState& fast,
                    Divergence& d) {
  if (slow.halted != fast.halted) {
    d.field = DivergenceField::kTermination;
    d.detail = std::string("halted: slow ") + (slow.halted ? "true" : "false") +
               " vs fast " + (fast.halted ? "true" : "false");
    return;
  }
  if (slow.output != fast.output) {
    d.field = DivergenceField::kOutput;
    d.detail = "program output differs: slow \"" + slow.output + "\" vs fast \"" +
               fast.output + "\"";
    return;
  }
  for (size_t r = 0; r < slow.regs.size(); ++r) {
    if (slow.regs[r] != fast.regs[r]) {
      d.field = DivergenceField::kRegister;
      d.detail = "register $" + std::to_string(r) + ": slow " + hex32(slow.regs[r]) +
                 " vs fast " + hex32(fast.regs[r]);
      return;
    }
  }
  if (slow.pc != fast.pc) {
    d.field = DivergenceField::kRegister;
    d.detail = "pc: slow " + hex32(slow.pc) + " vs fast " + hex32(fast.pc);
    return;
  }
  if (slow.hi != fast.hi || slow.lo != fast.lo) {
    d.field = DivergenceField::kHiLo;
    d.detail = "hi/lo: slow " + hex32(slow.hi) + "/" + hex32(slow.lo) + " vs fast " +
               hex32(fast.hi) + "/" + hex32(fast.lo);
  }
}

void diff_memory(const mem::Memory& slow, const mem::Memory& fast, Divergence& d) {
  const auto addr = slow.first_difference(fast);
  if (addr.has_value()) {
    d.field = DivergenceField::kMemory;
    d.detail = "memory byte at " + hex32(*addr) + ": slow " + hex32(slow.read8(*addr)) +
               " vs fast " + hex32(fast.read8(*addr));
  }
}

// First differing line of two multi-line strings, for kStats details.
std::string first_line_diff(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return "(identical?)";
    if (!ga || !gb || la != lb) {
      return "slow `" + (ga ? la : std::string("<eof>")) + "` vs fast `" +
             (gb ? lb : std::string("<eof>")) + "`";
    }
  }
}

}  // namespace

OracleResult check_dispatch_program(const std::string& source,
                                    const std::vector<MatrixPoint>& matrix,
                                    const OracleOptions& options) {
  OracleResult result;

  asmblr::Program program;
  try {
    program = asmblr::assemble(source);
  } catch (const std::exception& e) {
    result.inconclusive = true;
    result.inconclusive_reason = std::string("assembly failed: ") + e.what();
    return result;
  }

  // Level 1: the plain Machine, slow vs fast. Both sides share the limit
  // and must cut at the same instruction, so hitting it is comparable.
  sim::MachineConfig slow_cfg;
  slow_cfg.max_instructions = options.max_instructions;
  slow_cfg.host_trace_dispatch = false;
  sim::MachineConfig fast_cfg = slow_cfg;
  fast_cfg.host_trace_dispatch = true;

  sim::Machine slow_machine(program, slow_cfg);
  sim::Machine fast_machine(program, fast_cfg);
  const sim::RunResult rs = slow_machine.run();
  const sim::RunResult rf = fast_machine.run();

  {
    Divergence d;
    d.point_label = "machine";
    diff_cpu_state(rs.state, rf.state, d);
    if (d.field == DivergenceField::kNone) {
      diff_memory(slow_machine.memory(), fast_machine.memory(), d);
    }
    if (d.field == DivergenceField::kNone && rs.instructions != rf.instructions) {
      d.field = DivergenceField::kRetiredCount;
      d.detail = "retired instructions: slow " + u64(rs.instructions) + " vs fast " +
                 u64(rf.instructions);
    }
    if (d.field == DivergenceField::kNone &&
        (rs.cycles != rf.cycles || rs.icache_misses != rf.icache_misses ||
         rs.dcache_misses != rf.dcache_misses)) {
      d.field = DivergenceField::kCycles;
      d.detail = "cycles/ic-misses/dc-misses: slow " + u64(rs.cycles) + "/" +
                 u64(rs.icache_misses) + "/" + u64(rs.dcache_misses) + " vs fast " +
                 u64(rf.cycles) + "/" + u64(rf.icache_misses) + "/" +
                 u64(rf.dcache_misses);
    }
    if (d.field == DivergenceField::kNone && rs.mem_accesses != rf.mem_accesses) {
      d.field = DivergenceField::kStats;
      d.detail = "memory accesses: slow " + u64(rs.mem_accesses) + " vs fast " +
                 u64(rf.mem_accesses);
    }
    if (d.field != DivergenceField::kNone) {
      d.found = true;
      result.divergence = std::move(d);
      return result;
    }
  }

  // Level 2: the accelerated system at every matrix point, slow vs fast —
  // stats counters via the (schema-complete) JSON form and the stamped
  // event stream, on top of the architectural diff.
  for (const MatrixPoint& point : matrix) {
    obs::RecordingSink slow_sink;
    obs::RecordingSink fast_sink;
    accel::SystemConfig slow_sys_cfg = point.config;
    slow_sys_cfg.machine = slow_cfg;
    slow_sys_cfg.event_sink = &slow_sink;
    slow_sys_cfg.fault_injection = options.fault;
    accel::SystemConfig fast_sys_cfg = slow_sys_cfg;
    fast_sys_cfg.machine = fast_cfg;
    fast_sys_cfg.event_sink = &fast_sink;

    accel::AcceleratedSystem slow_sys(program, slow_sys_cfg);
    accel::AcceleratedSystem fast_sys(program, fast_sys_cfg);
    const accel::AccelStats as = slow_sys.run();
    const accel::AccelStats af = fast_sys.run();

    Divergence d;
    d.point_label = point.label;
    diff_cpu_state(as.final_state, af.final_state, d);
    if (d.field == DivergenceField::kNone) {
      diff_memory(slow_sys.memory(), fast_sys.memory(), d);
    }
    if (d.field == DivergenceField::kNone && as.instructions != af.instructions) {
      d.field = DivergenceField::kRetiredCount;
      d.detail = "retired instructions: slow " + u64(as.instructions) + " vs fast " +
                 u64(af.instructions);
    }
    if (d.field == DivergenceField::kNone && as.cycles != af.cycles) {
      d.field = DivergenceField::kCycles;
      d.detail = "cycles: slow " + u64(as.cycles) + " vs fast " + u64(af.cycles);
    }
    if (d.field == DivergenceField::kNone) {
      std::ostringstream js;
      std::ostringstream jf;
      accel::write_json(js, as, "cmp");
      accel::write_json(jf, af, "cmp");
      if (js.str() != jf.str()) {
        d.field = DivergenceField::kStats;
        d.detail = "stats: " + first_line_diff(js.str(), jf.str());
      }
    }
    if (d.field == DivergenceField::kNone) {
      const std::vector<obs::Event>& es = slow_sink.events();
      const std::vector<obs::Event>& ef = fast_sink.events();
      if (es.size() != ef.size()) {
        d.field = DivergenceField::kEvents;
        d.detail = "event count: slow " + u64(es.size()) + " vs fast " +
                   u64(ef.size());
      } else {
        for (size_t k = 0; k < es.size(); ++k) {
          if (obs::format_event(es[k]) != obs::format_event(ef[k])) {
            d.field = DivergenceField::kEvents;
            d.detail = "event " + u64(k) + ": slow `" + obs::format_event(es[k]) +
                       "` vs fast `" + obs::format_event(ef[k]) + "`";
            break;
          }
        }
      }
    }

    if (d.field != DivergenceField::kNone) {
      d.found = true;
      const std::vector<obs::Event>& events = fast_sink.events();
      const size_t keep = std::min(options.event_context, events.size());
      d.recent_events.assign(events.end() - static_cast<ptrdiff_t>(keep), events.end());
      result.divergence = std::move(d);
      return result;
    }
  }
  return result;
}

OracleResult check_program(const std::string& source,
                           const std::vector<MatrixPoint>& matrix,
                           const OracleOptions& options) {
  OracleResult result;

  asmblr::Program program;
  try {
    program = asmblr::assemble(source);
  } catch (const std::exception& e) {
    result.inconclusive = true;
    result.inconclusive_reason = std::string("assembly failed: ") + e.what();
    return result;
  }

  sim::MachineConfig machine;
  machine.max_instructions = options.max_instructions;
  sim::Machine baseline(program, machine);
  const sim::RunResult base = baseline.run();
  if (base.hit_limit) {
    result.inconclusive = true;
    result.inconclusive_reason =
        "baseline hit the instruction limit (" + u64(machine.max_instructions) + ")";
    return result;
  }

  for (const MatrixPoint& point : matrix) {
    obs::RecordingSink sink;
    accel::SystemConfig config = point.config;
    config.machine = machine;
    config.event_sink = &sink;
    config.fault_injection = options.fault;
    accel::AcceleratedSystem system(program, config);
    const accel::AccelStats accel = system.run();

    Divergence d;
    d.point_label = point.label;
    if (accel.hit_limit) {
      // The baseline halted (checked above), so a limited accelerated run
      // IS an architecturally visible difference — it never terminates.
      d.field = DivergenceField::kTermination;
      d.detail = "baseline halted after " + u64(base.instructions) +
                 " instructions; accelerated still running at the limit (" +
                 u64(machine.max_instructions) + ")";
    } else if (base.state.output != accel.final_state.output) {
      d.field = DivergenceField::kOutput;
      d.detail = "program output differs: baseline \"" + base.state.output +
                 "\" vs accelerated \"" + accel.final_state.output + "\"";
    } else {
      for (size_t r = 0; r < base.state.regs.size(); ++r) {
        if (base.state.regs[r] != accel.final_state.regs[r]) {
          d.field = DivergenceField::kRegister;
          d.detail = "register $" + std::to_string(r) + ": baseline " +
                     hex32(base.state.regs[r]) + " vs accelerated " +
                     hex32(accel.final_state.regs[r]);
          break;
        }
      }
      if (d.field == DivergenceField::kNone &&
          (base.state.hi != accel.final_state.hi ||
           base.state.lo != accel.final_state.lo)) {
        d.field = DivergenceField::kHiLo;
        d.detail = "hi/lo: baseline " + hex32(base.state.hi) + "/" +
                   hex32(base.state.lo) + " vs accelerated " +
                   hex32(accel.final_state.hi) + "/" + hex32(accel.final_state.lo);
      }
      if (d.field == DivergenceField::kNone) {
        const auto addr = baseline.memory().first_difference(system.memory());
        if (addr.has_value()) {
          d.field = DivergenceField::kMemory;
          d.detail = "memory byte at " + hex32(*addr) + ": baseline " +
                     hex32(baseline.memory().read8(*addr)) + " vs accelerated " +
                     hex32(system.memory().read8(*addr));
        }
      }
      if (d.field == DivergenceField::kNone && base.instructions != accel.instructions) {
        d.field = DivergenceField::kRetiredCount;
        d.detail = "retired instructions: baseline " + u64(base.instructions) +
                   " vs accelerated " + u64(accel.instructions);
      }
    }

    if (d.field != DivergenceField::kNone) {
      d.found = true;
      const std::vector<obs::Event>& events = sink.events();
      const size_t keep = std::min(options.event_context, events.size());
      d.recent_events.assign(events.end() - static_cast<ptrdiff_t>(keep), events.end());
      result.divergence = std::move(d);
      return result;
    }
  }
  return result;
}

}  // namespace dim::fuzz
