// On-disk container format shared by every persistence artifact: full
// system snapshots and sweep result-store cells. See docs/persistence.md
// for the byte-level layout.
//
// Both artifacts share one 20-byte header — magic, format version,
// artifact kind, payload size, payload CRC-32 — followed by a payload of
// fixed-width little-endian fields. The loader distinguishes six failure
// classes, each with its own error code, so corrupt files are diagnosable
// (and a bit-flip fuzzer can assert the loader never crashes):
//
//   kBadMagic     the file is not a dimsim persistence artifact at all
//   kBadVersion   the format version is not the one this build writes
//   kTruncated    the header or payload ends early
//   kCrcMismatch  the payload checksum does not match the header
//   kMalformed    the artifact kind is unknown, or the container is intact
//                 but a payload field is invalid
//   kMismatch     the artifact is valid but of another kind than asked
//                 for, or belongs to a different program / system
//                 configuration than the restore target
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace dim::snap {

// "DIMS" when the first four bytes are read as ASCII.
inline constexpr uint32_t kMagic = 0x534D4944u;

// Bumped whenever the payload layout of any artifact kind changes. The
// golden-format test (tests/test_snapshot.cpp) fails when serialized bytes
// change under an unchanged version, enforcing the bump.
inline constexpr uint16_t kFormatVersion = 3;

// Version component of every result-store cell key: bump to invalidate all
// memoized sweep cells when simulator *semantics* change without a format
// change (the cell layout itself is covered by kFormatVersion).
inline constexpr uint64_t kResultStoreCodeVersion = 1;

// Kind values never change. Kind 2 was the retired rcache warm-start file;
// readers now reject it as an unknown kind (kMalformed).
enum class ArtifactKind : uint16_t {
  kSnapshot = 1,    // full AcceleratedSystem state (checkpoint/resume)
  kResultCell = 3,  // one memoized SweepEngine grid cell
};

const char* artifact_kind_name(ArtifactKind kind);

enum class SnapErrc : uint8_t {
  kBadMagic,
  kBadVersion,
  kTruncated,
  kCrcMismatch,
  kMalformed,
  kMismatch,
  kIo,
};

const char* snap_errc_name(SnapErrc code);

class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapErrc code, const std::string& what)
      : std::runtime_error(std::string(snap_errc_name(code)) + ": " + what),
        code_(code) {}

  SnapErrc code() const { return code_; }

 private:
  SnapErrc code_;
};

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size` bytes.
uint32_t crc32(const void* data, size_t size);

}  // namespace dim::snap
