// Minimal binary serialization for model checkpoints and deployable
// artifacts: named float blobs plus (since v2) a string metadata section and
// (since v3) a named raw-byte section for quantized weights, behind a magic
// header with explicit sizes. Formats (little endian):
//   v1: "SAGA" u32=1 u64_blob_count { u64_name_len bytes u64_float_count floats }*
//   v2: "SAGA" u32=2 u64_meta_count { u64_key_len bytes u64_val_len bytes }*
//              u64_blob_count { u64_name_len bytes u64_float_count floats }*
//   v3: v2 layout followed by
//              u64_byte_blob_count { u64_name_len bytes u64_byte_count bytes }*
// Readers accept all three versions (a v1 file is a manifest with no metadata
// or byte blobs) and reject anything newer with a clear error instead of
// misparsing it. Writers emit the oldest version that can represent the
// manifest — a manifest without byte blobs still serializes byte-identically
// to the v2 format, so pre-quantization files and fixtures never change.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace saga::util {

using NamedBlobs = std::map<std::string, std::vector<float>>;
using NamedByteBlobs = std::map<std::string, std::vector<std::int8_t>>;

/// A self-describing checkpoint: string key/value metadata (configs, task
/// names, format hints) alongside the named parameter blobs. The metadata
/// section is what makes a saved model loadable without out-of-band knowledge
/// of its architecture — see serve::Artifact for the main producer/consumer.
struct Manifest {
  std::map<std::string, std::string> metadata;
  NamedBlobs blobs;
  /// Raw int8 payloads (quantized weight matrices). Non-empty forces the v3
  /// on-disk format; empty keeps the file in the v2 layout.
  NamedByteBlobs byte_blobs;

  bool operator==(const Manifest&) const = default;

  /// Metadata value for `key`; throws std::runtime_error naming the key when
  /// absent (load-time validation reads required fields through this).
  const std::string& require(const std::string& key) const;
  /// Metadata value parsed as integer; throws on absence or garbage.
  std::int64_t require_int(const std::string& key) const;
  /// Metadata value parsed as double; throws on absence or garbage.
  double require_double(const std::string& key) const;
};

/// Writes blobs to `path` in the v1 format; throws std::runtime_error on I/O
/// failure. Kept for plain weight checkpoints with no metadata.
void save_blobs(const std::string& path, const NamedBlobs& blobs);

/// Writes `manifest` to `path` — v2 when `byte_blobs` is empty, v3 otherwise.
void save_manifest(const std::string& path, const Manifest& manifest);

/// Reads a v1 (empty metadata), v2, or v3 file; throws std::runtime_error
/// with a message naming the problem on bad magic, unsupported version or
/// truncation.
Manifest load_manifest(const std::string& path);

}  // namespace saga::util
