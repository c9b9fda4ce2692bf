// Umbrella header: the full public API of the dimsim library.
//
//   #include "dimsim.hpp"
//
//   auto prog = dim::asmblr::assemble(source);
//   auto cfg  = dim::accel::SystemConfig::with(dim::rra::ArrayShape::config2(), 64, true);
//   auto run  = dim::accel::measure_speedup(prog, cfg);
//
// Layering (each header is also usable on its own):
//   isa/   -> asm/ -> mem/ -> sim/            (the MIPS substrate)
//   bt/    -> rra/ -> accel/                  (DIM + array + integration)
//   power/ , prof/ , work/                    (models, profiling, workloads)
#pragma once

#include "accel/stats.hpp"
#include "accel/stats_io.hpp"
#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "asm/program.hpp"
#include "bt/predictor.hpp"
#include "bt/rcache.hpp"
#include "bt/translator.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "isa/encoder.hpp"
#include "isa/instruction.hpp"
#include "isa/registers.hpp"
#include "mem/cache.hpp"
#include "mem/memory.hpp"
#include "power/area_model.hpp"
#include "power/power_model.hpp"
#include "prof/bb_profiler.hpp"
#include "rra/array_exec.hpp"
#include "rra/array_shape.hpp"
#include "rra/configuration.hpp"
#include "rra/datapath.hpp"
#include "sim/cpu_state.hpp"
#include "sim/executor.hpp"
#include "sim/machine.hpp"
#include "sim/pipeline.hpp"
#include "sim/tracer.hpp"
#include "work/workload.hpp"
