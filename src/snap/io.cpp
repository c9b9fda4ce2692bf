#include "snap/io.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <unistd.h>  // getpid: temp names must be unique across processes

namespace dim::snap {
namespace {

constexpr size_t kHeaderBytes = 20;

struct Header {
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t kind = 0;
  uint64_t payload_size = 0;
  uint32_t crc = 0;
};

std::vector<uint8_t> encode_header(const Header& h) {
  Writer w;
  w.u32(h.magic);
  w.u16(h.version);
  w.u16(h.kind);
  w.u64(h.payload_size);
  w.u32(h.crc);
  return w.take();
}

// Reads up to `n` bytes; returns the bytes actually available.
std::vector<uint8_t> read_up_to(std::istream& in, size_t n) {
  std::vector<uint8_t> buf;
  // Chunked: `n` may come from a corrupted size field, so never reserve it
  // up front — a bit-flipped 2^60 "payload size" must fail as truncation,
  // not as a bad_alloc.
  constexpr size_t kChunk = 1 << 16;
  while (buf.size() < n && in) {
    const size_t want = std::min(kChunk, n - buf.size());
    const size_t old = buf.size();
    buf.resize(old + want);
    in.read(reinterpret_cast<char*>(buf.data() + old),
            static_cast<std::streamsize>(want));
    buf.resize(old + static_cast<size_t>(in.gcount()));
    if (static_cast<size_t>(in.gcount()) < want) break;
  }
  return buf;
}

std::vector<uint8_t> read_validated(std::istream& in, ArtifactKind* kind_out,
                                    const ArtifactKind* expected_kind) {
  const std::vector<uint8_t> raw_header = read_up_to(in, kHeaderBytes);
  if (raw_header.size() < 4) {
    throw SnapshotError(SnapErrc::kTruncated,
                        "file shorter than the 4-byte magic");
  }
  Reader hr(raw_header);
  Header h;
  h.magic = hr.u32();
  if (h.magic != kMagic) {
    throw SnapshotError(SnapErrc::kBadMagic, "not a dimsim persistence artifact");
  }
  if (raw_header.size() < kHeaderBytes) {
    throw SnapshotError(SnapErrc::kTruncated, "header ends early");
  }
  h.version = hr.u16();
  if (h.version != kFormatVersion) {
    throw SnapshotError(SnapErrc::kBadVersion,
                        "format v" + std::to_string(h.version) + ", this build reads v" +
                            std::to_string(kFormatVersion));
  }
  h.kind = hr.u16();
  if (h.kind < 1 || h.kind > 3) {
    throw SnapshotError(SnapErrc::kMalformed,
                        "unknown artifact kind " + std::to_string(h.kind));
  }
  const ArtifactKind kind = static_cast<ArtifactKind>(h.kind);
  if (expected_kind != nullptr && kind != *expected_kind) {
    throw SnapshotError(SnapErrc::kMismatch,
                        std::string("expected a ") + artifact_kind_name(*expected_kind) +
                            ", found a " + artifact_kind_name(kind));
  }
  if (kind_out != nullptr) *kind_out = kind;
  h.payload_size = hr.u64();
  h.crc = hr.u32();

  std::vector<uint8_t> payload = read_up_to(in, h.payload_size);
  if (payload.size() < h.payload_size) {
    throw SnapshotError(SnapErrc::kTruncated,
                        "payload has " + std::to_string(payload.size()) + " of " +
                            std::to_string(h.payload_size) + " bytes");
  }
  if (crc32(payload.data(), payload.size()) != h.crc) {
    throw SnapshotError(SnapErrc::kCrcMismatch, "payload CRC-32 differs");
  }
  return payload;
}

}  // namespace

void write_container(std::ostream& out, ArtifactKind kind,
                     const std::vector<uint8_t>& payload) {
  Header h;
  h.magic = kMagic;
  h.version = kFormatVersion;
  h.kind = static_cast<uint16_t>(kind);
  h.payload_size = payload.size();
  h.crc = crc32(payload.data(), payload.size());
  const std::vector<uint8_t> header = encode_header(h);
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  if (!out) throw SnapshotError(SnapErrc::kIo, "write failed");
}

std::vector<uint8_t> read_container(std::istream& in, ArtifactKind expected_kind) {
  return read_validated(in, nullptr, &expected_kind);
}

std::vector<uint8_t> read_container(std::istream& in, ArtifactKind* kind_out) {
  return read_validated(in, kind_out, nullptr);
}

void write_artifact_file(const std::string& path, ArtifactKind kind,
                         const std::vector<uint8_t>& payload) {
  // Unique temp name per writer so concurrent stores to the same key never
  // interleave inside one temp file; rename() then publishes atomically.
  // The pid is part of the name because a counter alone is only unique
  // within one process — two processes (e.g. daemon workers sharing a
  // result-store directory) both start their counters at 0 and would open
  // the same temp file, publishing a torn mix of both payloads.
  static std::atomic<uint64_t> sequence{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<uint64_t>(getpid())) + "." +
                          std::to_string(sequence.fetch_add(1));
  std::error_code ec;
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw SnapshotError(SnapErrc::kIo, "cannot create " + tmp);
    write_container(out, kind, payload);
    // A short payload is still in the stream buffer here: only close()
    // reports whether it reached the file.
    out.close();
    if (!out) throw SnapshotError(SnapErrc::kIo, "cannot write " + tmp);
    std::filesystem::rename(tmp, path, ec);
    if (ec) throw SnapshotError(SnapErrc::kIo, "cannot rename into " + path);
  } catch (const SnapshotError&) {
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

std::vector<uint8_t> read_artifact_file(const std::string& path,
                                        ArtifactKind expected_kind) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SnapshotError(SnapErrc::kIo, "cannot open " + path);
  return read_container(in, expected_kind);
}

std::vector<uint8_t> read_artifact_file(const std::string& path,
                                        ArtifactKind* kind_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SnapshotError(SnapErrc::kIo, "cannot open " + path);
  return read_container(in, kind_out);
}

}  // namespace dim::snap
