#include "snap/warmstart.hpp"

#include <utility>

#include "snap/codec.hpp"
#include "snap/io.hpp"

namespace dim::snap {
namespace {

struct WarmStartData {
  uint64_t program_hash = 0;
  uint64_t translation_fingerprint = 0;
  std::vector<rra::Configuration> entries;
};

WarmStartData parse_warm_start(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  WarmStartData d;
  d.program_hash = r.u64();
  d.translation_fingerprint = r.u64();
  configurations_fields(r, d.entries);
  if (!r.done()) r.fail("trailing bytes after configurations");
  return d;
}

}  // namespace

std::vector<uint8_t> encode_warm_start(const accel::AcceleratedSystem& system,
                                       const asmblr::Program& program) {
  Writer w;
  w.u64(program_hash(program));
  w.u64(translation_fingerprint(system.config()));
  configurations_fields(w, system.rcache().export_entries());
  return w.take();
}

void save_warm_start(std::ostream& out, const accel::AcceleratedSystem& system,
                     const asmblr::Program& program) {
  write_container(out, ArtifactKind::kWarmStart, encode_warm_start(system, program));
}

void save_warm_start_file(const std::string& path,
                          const accel::AcceleratedSystem& system,
                          const asmblr::Program& program) {
  write_artifact_file(path, ArtifactKind::kWarmStart,
                      encode_warm_start(system, program));
}

size_t load_warm_start_payload(accel::AcceleratedSystem& system,
                               const std::vector<uint8_t>& payload,
                               const asmblr::Program& program) {
  WarmStartData d = parse_warm_start(payload);
  if (d.program_hash != program_hash(program)) {
    throw SnapshotError(SnapErrc::kMismatch,
                        "warm-start file belongs to a different program image");
  }
  if (d.translation_fingerprint != translation_fingerprint(system.config())) {
    throw SnapshotError(
        SnapErrc::kMismatch,
        "warm-start file was translated under different translation knobs");
  }
  size_t loaded = 0;
  for (rra::Configuration& config : d.entries) {
    if (system.rcache().preload(std::move(config))) ++loaded;
  }
  return loaded;
}

size_t load_warm_start(accel::AcceleratedSystem& system, std::istream& in,
                       const asmblr::Program& program) {
  return load_warm_start_payload(
      system, read_container(in, ArtifactKind::kWarmStart), program);
}

size_t load_warm_start_file(accel::AcceleratedSystem& system,
                            const std::string& path,
                            const asmblr::Program& program) {
  return load_warm_start_payload(
      system, read_artifact_file(path, ArtifactKind::kWarmStart), program);
}

WarmStartInfo inspect_warm_start(const std::vector<uint8_t>& payload) {
  WarmStartData d = parse_warm_start(payload);
  WarmStartInfo info;
  info.program_hash = d.program_hash;
  info.translation_fingerprint = d.translation_fingerprint;
  info.entries.reserve(d.entries.size());
  for (const rra::Configuration& config : d.entries) {
    SnapshotRcacheEntry e;
    e.start_pc = config.start_pc;
    e.end_pc = config.end_pc;
    e.rows_used = config.rows_used;
    e.ops = static_cast<int>(config.ops.size());
    e.num_bbs = config.num_bbs;
    info.entries.push_back(e);
  }
  return info;
}

}  // namespace dim::snap
