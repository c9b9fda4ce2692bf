#include "snap/resultstore.hpp"

#include <filesystem>
#include <system_error>
#include <utility>

#include "snap/codec.hpp"
#include "snap/io.hpp"

namespace dim::snap {
namespace {

// True when the cell itself must contain a baseline: the worker would have
// computed one. A live point.baseline pointer is NOT part of the cell —
// the caller re-supplies it on every load.
bool wants_worker_baseline(const accel::SweepPoint& point) {
  return point.baseline == nullptr && point.run_baseline;
}

struct CellData {
  uint64_t key = 0;
  accel::AccelStats accelerated;
  bool has_baseline = false;
  accel::AccelStats baseline;
  bool has_profile = false;
  obs::ProfileTable profile;
};

CellData parse_cell(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  CellData d;
  r.u64(d.key);
  stats_fields(r, d.accelerated);
  r.boolean(d.has_baseline);
  if (d.has_baseline) stats_fields(r, d.baseline);
  // The verdict stays in the layout, but load derives it from the stats.
  bool stored_transparent = true;
  r.boolean(stored_transparent);
  r.boolean(d.has_profile);
  if (d.has_profile) profile_fields(r, d.profile);
  // Optional execution-mode counter block (accelerated stats only; a
  // baseline run never touches the array). Written only when some counter
  // is nonzero, so row-sync cells keep their v3 bytes; absent means all
  // zero.
  if (!r.done()) exec_stats_fields(r, d.accelerated);
  if (!r.done()) r.fail("trailing bytes after cell fields");
  return d;
}

}  // namespace

ResultStore::ResultStore(std::string directory) : directory_(std::move(directory)) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) {
    throw SnapshotError(SnapErrc::kIo, "cannot create result store directory " +
                                           directory_ + ": " + ec.message());
  }
}

uint64_t ResultStore::cell_key(const accel::SweepPoint& point,
                               bool collect_profiles) {
  Writer w;
  w.u64(kResultStoreCodeVersion);
  w.u64(program_hash(*point.program));
  w.u64(system_fingerprint(point.config));
  w.boolean(wants_worker_baseline(point));
  w.boolean(collect_profiles);
  return fnv1a64(w.bytes());
}

std::string ResultStore::cell_path(uint64_t key) const {
  static const char* hex = "0123456789abcdef";
  std::string name(16, '0');
  for (int i = 15; i >= 0; --i) {
    name[static_cast<size_t>(i)] = hex[key & 0xf];
    key >>= 4;
  }
  return directory_ + "/" + name + ".cell";
}

bool ResultStore::load(const accel::SweepPoint& point, bool collect_profiles,
                       accel::SweepResult& out) {
  const uint64_t key = cell_key(point, collect_profiles);
  const std::string path = cell_path(key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.misses;
    return false;
  }
  CellData cell;
  try {
    cell = parse_cell(read_artifact_file(path, ArtifactKind::kResultCell));
    if (cell.key != key) {
      throw SnapshotError(SnapErrc::kMismatch, "cell key disagrees with filename");
    }
  } catch (const SnapshotError&) {
    // Any unreadable cell — torn write from a crashed sweep, bit rot, a
    // colliding foreign file — is a miss, never an error: the worker just
    // recomputes (and store() rewrites the cell atomically).
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.corrupt_discards;
    ++counters_.misses;
    return false;
  }

  out.accelerated = cell.accelerated;
  out.has_baseline = cell.has_baseline;
  out.baseline = cell.baseline;
  out.has_profile = cell.has_profile;
  out.profile = std::move(cell.profile);
  // A live baseline is re-attached. Either way the verdict is derived from
  // the stats, exactly as the worker derives it; the stored flag is not
  // trusted.
  if (point.baseline != nullptr) {
    out.baseline = *point.baseline;
    out.has_baseline = true;
  }
  if (out.has_baseline) {
    out.transparent = accel::compare_runs(out.baseline, out.accelerated).transparent();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.hits;
  return true;
}

void ResultStore::store(const accel::SweepPoint& point, bool collect_profiles,
                        const accel::SweepResult& result) {
  const uint64_t key = cell_key(point, collect_profiles);
  Writer w;
  w.u64(key);
  stats_fields(w, result.accelerated);
  const bool store_baseline = wants_worker_baseline(point);
  w.boolean(store_baseline);
  if (store_baseline) stats_fields(w, result.baseline);
  w.boolean(result.transparent);
  w.boolean(result.has_profile);
  if (result.has_profile) profile_fields(w, result.profile);
  if (has_exec_stats(result.accelerated)) exec_stats_fields(w, result.accelerated);
  try {
    write_artifact_file(cell_path(key), ArtifactKind::kResultCell, w.bytes());
  } catch (const SnapshotError&) {
    // A cell that cannot be written (full disk, read-only store) costs only
    // the memo: the caller still gets its freshly computed result.
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.write_failures;
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.stores;
}

ResultStore::Counters ResultStore::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace dim::snap
