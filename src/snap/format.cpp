#include "snap/format.hpp"

namespace dim::snap {

const char* artifact_kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kSnapshot: return "snapshot";
    case ArtifactKind::kResultCell: return "result-cell";
  }
  return "unknown";
}

const char* snap_errc_name(SnapErrc code) {
  switch (code) {
    case SnapErrc::kBadMagic: return "bad magic";
    case SnapErrc::kBadVersion: return "version mismatch";
    case SnapErrc::kTruncated: return "truncated";
    case SnapErrc::kCrcMismatch: return "checksum mismatch";
    case SnapErrc::kMalformed: return "malformed payload";
    case SnapErrc::kMismatch: return "artifact mismatch";
    case SnapErrc::kIo: return "i/o error";
  }
  return "unknown error";
}

uint32_t crc32(const void* data, size_t size) {
  // Table generated on first use (reflected polynomial 0xEDB88320).
  static const auto table = [] {
    struct Table {
      uint32_t entry[256];
    } t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t.entry[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table.entry[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace dim::snap
