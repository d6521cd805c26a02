#include "util/serialize.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace saga::util {

namespace {

constexpr char kMagic[4] = {'S', 'A', 'G', 'A'};
constexpr std::uint32_t kVersionBlobs = 1;
constexpr std::uint32_t kVersionManifest = 2;
constexpr std::uint32_t kVersionByteBlobs = 3;

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void write_bytes(std::FILE* f, const void* data, std::size_t size) {
  if (std::fwrite(data, 1, size, f) != size) {
    throw std::runtime_error("serialize: short write");
  }
}

void read_bytes(std::FILE* f, void* data, std::size_t size) {
  if (std::fread(data, 1, size, f) != size) {
    throw std::runtime_error("serialize: short read (truncated or corrupt file)");
  }
}

template <typename T>
void write_pod(std::FILE* f, const T& value) {
  write_bytes(f, &value, sizeof(T));
}

template <typename T>
T read_pod(std::FILE* f) {
  T value;
  read_bytes(f, &value, sizeof(T));
  return value;
}

void write_string(std::FILE* f, const std::string& s) {
  write_pod<std::uint64_t>(f, s.size());
  write_bytes(f, s.data(), s.size());
}

/// Guards untrusted length fields: a section of `bytes` bytes cannot extend
/// past the end of a `file_size`-byte file, so a corrupt count fails here
/// with a clear error instead of a multi-GB allocation.
void check_length(std::uint64_t bytes, std::uint64_t file_size) {
  if (bytes > file_size) {
    throw std::runtime_error(
        "serialize: length field exceeds file size (truncated or corrupt "
        "file): claims " + std::to_string(bytes) + " bytes in a " +
        std::to_string(file_size) + "-byte file");
  }
}

std::string read_string(std::FILE* f, std::uint64_t file_size) {
  const auto len = read_pod<std::uint64_t>(f);
  check_length(len, file_size);
  std::string s(len, '\0');
  read_bytes(f, s.data(), len);
  return s;
}

void write_blobs_section(std::FILE* f, const NamedBlobs& blobs) {
  write_pod<std::uint64_t>(f, blobs.size());
  for (const auto& [name, values] : blobs) {
    write_string(f, name);
    write_pod<std::uint64_t>(f, values.size());
    write_bytes(f, values.data(), values.size() * sizeof(float));
  }
}

NamedBlobs read_blobs_section(std::FILE* f, std::uint64_t file_size) {
  const auto count = read_pod<std::uint64_t>(f);
  NamedBlobs blobs;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name = read_string(f, file_size);
    const auto float_count = read_pod<std::uint64_t>(f);
    check_length(float_count, file_size);  // also keeps the multiply exact
    check_length(float_count * sizeof(float), file_size);
    std::vector<float> values(float_count);
    read_bytes(f, values.data(), float_count * sizeof(float));
    blobs.emplace(std::move(name), std::move(values));
  }
  return blobs;
}

void write_byte_blobs_section(std::FILE* f, const NamedByteBlobs& blobs) {
  write_pod<std::uint64_t>(f, blobs.size());
  for (const auto& [name, bytes] : blobs) {
    write_string(f, name);
    write_pod<std::uint64_t>(f, bytes.size());
    write_bytes(f, bytes.data(), bytes.size());
  }
}

NamedByteBlobs read_byte_blobs_section(std::FILE* f, std::uint64_t file_size) {
  const auto count = read_pod<std::uint64_t>(f);
  NamedByteBlobs blobs;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name = read_string(f, file_size);
    const auto byte_count = read_pod<std::uint64_t>(f);
    check_length(byte_count, file_size);
    std::vector<std::int8_t> bytes(byte_count);
    read_bytes(f, bytes.data(), byte_count);
    blobs.emplace(std::move(name), std::move(bytes));
  }
  return blobs;
}

struct OpenedFile {
  FilePtr file;
  std::uint32_t version = 0;
  std::uint64_t size = 0;
};

/// Opens `path` and consumes the header, returning the file, its format
/// version, and its total size (the bound for untrusted length fields).
OpenedFile open_checked(const std::string& path) {
  OpenedFile opened;
  opened.file.reset(std::fopen(path.c_str(), "rb"));
  std::FILE* f = opened.file.get();
  if (f == nullptr) {
    throw std::runtime_error("serialize: cannot open for read: " + path);
  }
  const long size =
      std::fseek(f, 0, SEEK_END) == 0 ? std::ftell(f) : long{-1};
  if (size < 0) {
    // Better to fail fast than to bound length checks with a bogus size and
    // misreport a seek/tell problem as file corruption.
    throw std::runtime_error("serialize: cannot determine size of " + path);
  }
  opened.size = static_cast<std::uint64_t>(size);
  std::rewind(f);
  char magic[4];
  read_bytes(f, magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("serialize: bad magic in " + path +
                             " (not a Saga checkpoint)");
  }
  const auto version = read_pod<std::uint32_t>(f);
  if (version < kVersionBlobs || version > kVersionByteBlobs) {
    throw std::runtime_error("serialize: unsupported version " +
                             std::to_string(version) + " in " + path +
                             " (this build reads versions 1-3)");
  }
  opened.version = version;
  return opened;
}

/// Pushes buffered writes to the OS and surfaces deferred errors (ENOSPC
/// shows up here, not at fwrite) so save functions cannot report success
/// while leaving a truncated file behind. FileCloser's fclose stays the
/// cleanup of last resort.
void finish_write(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0 || std::ferror(f) != 0) {
    throw std::runtime_error("serialize: write failed (disk full?): " + path);
  }
}

/// Writes via `body` into path+".tmp", then renames over `path`, so the
/// destination is either the complete new file or untouched — a failed or
/// interrupted save never leaves a truncated checkpoint at the real path.
template <typename WriteBody>
void atomic_write(const std::string& path, const WriteBody& body) {
  const std::string tmp = path + ".tmp";
  try {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) {
      throw std::runtime_error("serialize: cannot open for write: " + tmp);
    }
    body(f.get());
    finish_write(f.get(), tmp);
    f.reset();  // close before rename
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw std::runtime_error("serialize: cannot move " + tmp + " to " + path);
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

}  // namespace

const std::string& Manifest::require(const std::string& key) const {
  const auto it = metadata.find(key);
  if (it == metadata.end()) {
    throw std::runtime_error("manifest: missing metadata key '" + key + "'");
  }
  return it->second;
}

std::int64_t Manifest::require_int(const std::string& key) const {
  const std::string& value = require(key);
  try {
    std::size_t consumed = 0;
    const std::int64_t parsed = std::stoll(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error("manifest: metadata key '" + key +
                             "' is not an integer: '" + value + "'");
  }
}

double Manifest::require_double(const std::string& key) const {
  const std::string& value = require(key);
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error("manifest: metadata key '" + key +
                             "' is not a number: '" + value + "'");
  }
}

void save_blobs(const std::string& path, const NamedBlobs& blobs) {
  atomic_write(path, [&](std::FILE* f) {
    write_bytes(f, kMagic, sizeof(kMagic));
    write_pod(f, kVersionBlobs);
    write_blobs_section(f, blobs);
  });
}

void save_manifest(const std::string& path, const Manifest& manifest) {
  // Emit the oldest version that can hold the manifest: byte blobs need v3,
  // everything else stays in the v2 layout so existing files (and the golden
  // fixtures guarding them) remain byte-identical.
  const std::uint32_t version =
      manifest.byte_blobs.empty() ? kVersionManifest : kVersionByteBlobs;
  atomic_write(path, [&](std::FILE* f) {
    write_bytes(f, kMagic, sizeof(kMagic));
    write_pod(f, version);
    write_pod<std::uint64_t>(f, manifest.metadata.size());
    for (const auto& [key, value] : manifest.metadata) {
      write_string(f, key);
      write_string(f, value);
    }
    write_blobs_section(f, manifest.blobs);
    if (version >= kVersionByteBlobs) {
      write_byte_blobs_section(f, manifest.byte_blobs);
    }
  });
}

Manifest load_manifest(const std::string& path) {
  const OpenedFile opened = open_checked(path);
  std::FILE* f = opened.file.get();
  Manifest manifest;
  if (opened.version >= kVersionManifest) {
    const auto meta_count = read_pod<std::uint64_t>(f);
    for (std::uint64_t i = 0; i < meta_count; ++i) {
      std::string key = read_string(f, opened.size);
      manifest.metadata.emplace(std::move(key), read_string(f, opened.size));
    }
  }
  manifest.blobs = read_blobs_section(f, opened.size);
  if (opened.version >= kVersionByteBlobs) {
    manifest.byte_blobs = read_byte_blobs_section(f, opened.size);
  }
  return manifest;
}

}  // namespace saga::util
