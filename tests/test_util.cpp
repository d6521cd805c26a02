#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace saga::util {
namespace {

TEST(SeedSplitter, ProducesDistinctStreams) {
  SeedSplitter splitter(42);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(seen.insert(splitter.next()).second);
}

TEST(SeedSplitter, DeterministicForSameRoot) {
  SeedSplitter a(7);
  SeedSplitter b(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(2);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 4);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 4);
    saw_lo |= v == 0;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GeometricClippedRespectsMax) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.geometric_clipped(0.2, 10);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 10);
  }
}

TEST(Rng, GeometricMeanRoughlyMatches) {
  Rng rng(4);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    total += static_cast<double>(rng.geometric_clipped(0.5, 1000));
  }
  EXPECT_NEAR(total / n, 2.0, 0.1);  // mean of Geo(0.5) = 1/p = 2
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(5);
  const auto p = rng.permutation(50);
  std::set<std::size_t> unique(p.begin(), p.end());
  EXPECT_EQ(unique.size(), 50U);
  EXPECT_EQ(*unique.begin(), 0U);
  EXPECT_EQ(*unique.rbegin(), 49U);
}

TEST(FastRng, Uniform01InRange) {
  FastRng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.uniform01();
    EXPECT_GE(v, 0.0F);
    EXPECT_LT(v, 1.0F);
  }
}

TEST(ThreadPool, ParallelForCoversRange) {
  std::vector<int> hits(1000, 0);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  std::atomic<int> count{0};
  parallel_for(0, 8, [&](std::size_t) {
    parallel_for(0, 8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

// A few microseconds of arithmetic the optimizer cannot drop.
void spin() {
  volatile double x = 1.0;
  for (int r = 0; r < 400; ++r) x = x * 1.000001 + 0.5;
}

// Overwrites the stack that a just-returned parallel_for frame occupied, so
// a worker still touching that frame's completion mutex or condition
// variable finds garbage there (and fails loudly) instead of a fresh frame
// that happens to hold valid objects at the same address.
[[gnu::noinline]] void scribble_stack() {
  volatile unsigned char junk[1024];
  for (auto& byte : junk) byte = 0xA5;
}

// Non-pool threads sharing the global pool at once — the Router pattern,
// where every shard's dispatcher runs its forward through the one pool.
// Each call must run every index exactly once, and no worker may touch a
// caller's completion state after that caller has returned. Each caller
// also works between calls, like a dispatcher between forwards, so pool
// workers go idle and are woken again for the next call.
TEST(ThreadPool, ConcurrentCallersRunEveryIndexOnce) {
  constexpr int kCallers = 4;
  constexpr int kCallsPerCaller = 20000;
  constexpr std::size_t kIndices = 4;
  std::atomic<int> bad_calls{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int call = 0; call < kCallsPerCaller; ++call) {
        std::array<std::atomic<int>, kIndices> hits{};
        ThreadPool::global().parallel_for(0, kIndices, [&](std::size_t i) {
          hits[i].fetch_add(1);
          spin();
        });
        for (const auto& h : hits) {
          if (h.load() != 1) {
            bad_calls.fetch_add(1);
            break;
          }
        }
        scribble_stack();
        spin();
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(bad_calls.load(), 0);
}

TEST(ThreadPool, PropagatesExceptions) {
  EXPECT_THROW(
      ThreadPool::global().parallel_for(
          0, 100, [](std::size_t i) { if (i == 50) throw std::runtime_error("boom"); }),
      std::runtime_error);
}

TEST(Serialize, RoundTripsBlobs) {
  const std::string path = std::filesystem::temp_directory_path() / "saga_blobs.bin";
  NamedBlobs blobs;
  blobs["a.weight"] = {1.0F, 2.5F, -3.0F};
  blobs["b.bias"] = {};
  blobs["c"] = std::vector<float>(1000, 0.25F);
  save_blobs(path, blobs);
  EXPECT_EQ(load_manifest(path).blobs, blobs);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsCorruptMagic) {
  const std::string path = std::filesystem::temp_directory_path() / "saga_bad.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("NOPE", f);
    std::fclose(f);
  }
  EXPECT_THROW(load_manifest(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, ManifestRoundTripsMetadataAndBlobs) {
  const std::string path =
      std::filesystem::temp_directory_path() / "saga_manifest.bin";
  Manifest manifest;
  manifest.metadata["format"] = "test";
  manifest.metadata["empty"] = "";
  manifest.metadata["count"] = "42";
  manifest.blobs["w"] = {1.0F, -2.0F};
  manifest.blobs["b"] = {};
  save_manifest(path, manifest);
  const Manifest loaded = load_manifest(path);
  EXPECT_EQ(loaded, manifest);
  std::filesystem::remove(path);
}

TEST(Serialize, ManifestReadsV1FilesAsEmptyMetadata) {
  const std::string path =
      std::filesystem::temp_directory_path() / "saga_manifest_v1.bin";
  NamedBlobs blobs;
  blobs["legacy"] = {3.0F};
  save_blobs(path, blobs);
  const Manifest loaded = load_manifest(path);
  EXPECT_TRUE(loaded.metadata.empty());
  EXPECT_EQ(loaded.blobs, blobs);
  std::filesystem::remove(path);
}

TEST(Serialize, ManifestRoundTripsByteBlobs) {
  const std::string path =
      std::filesystem::temp_directory_path() / "saga_manifest_v3.bin";
  Manifest manifest;
  manifest.metadata["format"] = "test";
  manifest.blobs["w"] = {1.0F, -2.0F};
  manifest.byte_blobs["w:q8"] = {-128, -1, 0, 1, 127};
  manifest.byte_blobs["empty"] = {};
  save_manifest(path, manifest);
  const Manifest loaded = load_manifest(path);
  EXPECT_EQ(loaded, manifest);
  std::filesystem::remove(path);
}

TEST(Serialize, EmptyByteBlobsKeepEmittingV2) {
  // The writer must emit the oldest version that can hold the manifest, so
  // fp32-only files stay readable by pre-v3 builds: no byte blobs -> the
  // version header says 2 and the file ends right after the float blobs
  // (no empty v3 section appended).
  const std::string path =
      std::filesystem::temp_directory_path() / "saga_v2_stable.bin";
  Manifest manifest = load_manifest(std::string(SAGA_TEST_DATA_DIR) +
                                    "/golden_v2.manifest");
  ASSERT_TRUE(manifest.byte_blobs.empty());
  save_manifest(path, manifest);

  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GE(bytes.size(), 8U);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, 2U);
  // A v3 copy of the same content grows by exactly one (empty) byte-blob
  // section; the v2 file must not carry those 8 count bytes.
  Manifest with_bytes = manifest;
  with_bytes.byte_blobs["b"] = {1};
  const std::string v3_path =
      std::filesystem::temp_directory_path() / "saga_v3_probe.bin";
  save_manifest(v3_path, with_bytes);
  const auto v3_size = std::filesystem::file_size(v3_path);
  // v3 overhead: u64 blob count + (u64 name len + "b" + u64 byte count + 1).
  EXPECT_EQ(v3_size, bytes.size() + 8 + (8 + 1 + 8 + 1));
  std::filesystem::remove(v3_path);
  std::filesystem::remove(path);
}

TEST(Serialize, GoldenV3FixtureStillLoads) {
  // Byte-level drift guard for the v3 (byte blob) section, mirroring the
  // v1/v2 fixtures below.
  const Manifest v3 =
      load_manifest(std::string(SAGA_TEST_DATA_DIR) + "/golden_v3.manifest");
  EXPECT_EQ(v3.require("format"), "saga.golden");
  EXPECT_EQ(v3.require("note"), "checked-in v3 fixture");
  EXPECT_EQ(v3.require_int("answer"), 42);
  const NamedBlobs expected_blobs{{"bias", {0.5F}},
                                  {"weight", {1.0F, -2.25F, 3.5F}}};
  EXPECT_EQ(v3.blobs, expected_blobs);
  const NamedByteBlobs expected_bytes{{"codes", {-128, -1, 0, 1, 127}},
                                      {"empty", {}}};
  EXPECT_EQ(v3.byte_blobs, expected_bytes);
}

TEST(Serialize, GoldenV1AndV2FixturesStillLoad) {
  // Checked-in byte-level fixtures (tests/data/): guards the "v1 stays
  // readable" promise against accidental format drift as the serve layer
  // evolves. If this fails, a serializer change broke an on-disk contract —
  // bump the version instead of mutating an existing one.
  const std::string dir = SAGA_TEST_DATA_DIR;
  const NamedBlobs expected_blobs{{"bias", {0.5F}},
                                  {"weight", {1.0F, -2.25F, 3.5F}}};

  const Manifest v1 = load_manifest(dir + "/golden_v1.manifest");
  EXPECT_TRUE(v1.metadata.empty());
  EXPECT_EQ(v1.blobs, expected_blobs);

  const Manifest v2 = load_manifest(dir + "/golden_v2.manifest");
  EXPECT_EQ(v2.require("format"), "saga.golden");
  EXPECT_EQ(v2.require("note"), "checked-in v2 fixture");
  EXPECT_EQ(v2.require_int("answer"), 42);
  EXPECT_EQ(v2.blobs, expected_blobs);
}

TEST(Serialize, RejectsUnsupportedVersion) {
  const std::string path =
      std::filesystem::temp_directory_path() / "saga_future.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const std::uint32_t version = 99;
    std::fwrite("SAGA", 1, 4, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fclose(f);
  }
  EXPECT_THROW(
      {
        try {
          load_manifest(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("unsupported version 99"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsTruncatedFile) {
  const std::string path =
      std::filesystem::temp_directory_path() / "saga_truncated.bin";
  Manifest manifest;
  manifest.metadata["key"] = "value";
  manifest.blobs["w"] = std::vector<float>(256, 1.0F);
  save_manifest(path, manifest);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 100);
  EXPECT_THROW(
      {
        try {
          load_manifest(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, ManifestRequireReportsMissingAndMalformedKeys) {
  Manifest manifest;
  manifest.metadata["n"] = "12";
  manifest.metadata["bad"] = "12abc";
  EXPECT_EQ(manifest.require("n"), "12");
  EXPECT_EQ(manifest.require_int("n"), 12);
  EXPECT_THROW(manifest.require("absent"), std::runtime_error);
  EXPECT_THROW(manifest.require_int("absent"), std::runtime_error);
  EXPECT_THROW(manifest.require_int("bad"), std::runtime_error);
}

TEST(Table, FormatsAlignedRows) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22.5"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22.5  |"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table table({"one", "two"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Env, FallsBackWhenUnset) {
  EXPECT_EQ(env_int("SAGA_TEST_UNSET_VAR", 42), 42);
  EXPECT_DOUBLE_EQ(env_double("SAGA_TEST_UNSET_VAR", 1.5), 1.5);
}

TEST(Env, ParsesSetValues) {
  ::setenv("SAGA_TEST_SET_VAR", "123", 1);
  EXPECT_EQ(env_int("SAGA_TEST_SET_VAR", 0), 123);
  ::unsetenv("SAGA_TEST_SET_VAR");
}

}  // namespace
}  // namespace saga::util
