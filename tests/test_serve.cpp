#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "harness/loadgen.hpp"
#include "models/backbone.hpp"
#include "models/classifier.hpp"
#include "serve/artifact.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "tensor/grad_mode.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace saga::serve {
namespace {

std::string temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() / name;
}

/// A tiny trained pipeline shared by the tests (training once keeps the
/// suite fast; every consumer copies the exported artifact).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(data::generate_dataset(data::hhar_like(48)));
    core::PipelineConfig config = core::fast_profile();
    config.backbone.hidden_dim = 24;
    config.backbone.num_blocks = 1;
    config.backbone.num_heads = 2;
    config.backbone.ff_dim = 48;
    config.classifier.gru_hidden = 16;
    config.finetune.epochs = 1;
    pipeline_ = new core::Pipeline(*dataset_, data::Task::kActivityRecognition,
                                   config);
    (void)pipeline_->run(core::Method::kNoPretrain, 0.5);
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static Artifact artifact() { return Artifact::from_pipeline(*pipeline_); }

  /// One dataset window as a flat [T*C] float vector.
  static std::vector<float> window(std::int64_t index) {
    const auto& samples = dataset_->samples;
    return samples[static_cast<std::size_t>(index) % samples.size()].values;
  }

  static data::Dataset* dataset_;
  static core::Pipeline* pipeline_;
};

data::Dataset* ServeTest::dataset_ = nullptr;
core::Pipeline* ServeTest::pipeline_ = nullptr;

// One non-finite sample poisons the whole window on every kernel: a
// paper-size fp32 Engine returns all-NaN logits for it, as the scalar
// kernels always did, instead of a finite (and confident) row. Only the
// logits are pinned; what label a NaN row maps to is a separate policy.
TEST(ServePoisonedWindow, NonFiniteSampleGivesAllNaNLogits) {
  util::SeedSplitter seeds(7);
  models::BackboneConfig backbone_config;  // the paper's model
  backbone_config.seed = seeds.next();
  models::ClassifierConfig classifier_config;
  classifier_config.seed = seeds.next();
  const models::LimuBertBackbone backbone(backbone_config);
  const models::GruClassifier classifier(classifier_config);
  Engine engine(Artifact::from_models(backbone, classifier,
                                      data::Task::kActivityRecognition));
  const std::int64_t values = engine.artifact().window_length() *
                              engine.artifact().channels();
  util::Rng rng(11);
  const Tensor clean = Tensor::randn({values}, rng);
  for (const float v : engine.predict(clean.data()).logits) {
    ASSERT_TRUE(std::isfinite(v));
  }
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const float poison : {std::nanf(""), kInf, -kInf}) {
    SCOPED_TRACE(poison);
    std::vector<float> window(clean.data().begin(), clean.data().end());
    window[window.size() / 2 + 1] = poison;
    const Prediction prediction = engine.predict(window);
    ASSERT_EQ(static_cast<std::int64_t>(prediction.logits.size()),
              engine.artifact().num_classes());
    for (std::size_t c = 0; c < prediction.logits.size(); ++c) {
      EXPECT_TRUE(std::isnan(prediction.logits[c])) << "logit " << c;
    }
  }
}

TEST_F(ServeTest, PipelineExportsAfterRun) {
  EXPECT_NO_THROW((void)pipeline_->trained());
  const Artifact a = artifact();
  EXPECT_EQ(a.task, data::Task::kActivityRecognition);
  EXPECT_EQ(a.window_length(), dataset_->window_length);
  EXPECT_EQ(a.channels(), dataset_->channels);
  EXPECT_EQ(a.num_classes(), dataset_->num_classes(a.task));
  EXPECT_FALSE(a.backbone_state.empty());
  EXPECT_FALSE(a.classifier_state.empty());
  EXPECT_NE(a.source.find("hhar"), std::string::npos);
}

TEST_F(ServeTest, UnrunPipelineRefusesExport) {
  core::Pipeline fresh(*dataset_, data::Task::kActivityRecognition,
                       core::fast_profile());
  EXPECT_THROW((void)fresh.trained(), std::runtime_error);
  EXPECT_THROW(Artifact::from_pipeline(fresh), std::runtime_error);
}

TEST_F(ServeTest, ArtifactRoundTripsThroughDisk) {
  const std::string path = temp_path("saga_artifact_roundtrip.bin");
  const Artifact original = artifact();
  original.save(path);
  const Artifact loaded = Artifact::load(path);
  std::filesystem::remove(path);

  EXPECT_EQ(loaded.task, original.task);
  EXPECT_EQ(loaded.source, original.source);
  EXPECT_EQ(loaded.backbone_state, original.backbone_state);
  EXPECT_EQ(loaded.classifier_state, original.classifier_state);
  EXPECT_EQ(loaded.backbone_config.hidden_dim, original.backbone_config.hidden_dim);
  EXPECT_EQ(loaded.classifier_config.num_classes,
            original.classifier_config.num_classes);
}

TEST_F(ServeTest, EngineMatchesDirectModelEvaluation) {
  const std::string path = temp_path("saga_artifact_engine.bin");
  export_artifact(*pipeline_, path);
  const Artifact loaded = Artifact::load(path);
  Engine engine(loaded);
  std::filesystem::remove(path);

  // The engine releases its weight blobs after building the models; only
  // metadata remains queryable through engine.artifact().
  EXPECT_TRUE(engine.artifact().backbone_state.empty());
  EXPECT_EQ(engine.artifact().num_classes(), loaded.num_classes());

  auto backbone = loaded.make_backbone();
  auto classifier = loaded.make_classifier();
  NoGradGuard no_grad;
  for (std::int64_t i = 0; i < 4; ++i) {
    const std::vector<float> w = window(i);
    const Prediction prediction = engine.predict(w);
    const Tensor direct = classifier.forward(backbone.encode(Tensor::from_data(
        {1, dataset_->window_length, dataset_->channels}, w)));
    ASSERT_EQ(prediction.logits.size(),
              static_cast<std::size_t>(direct.numel()));
    for (std::int64_t k = 0; k < direct.numel(); ++k) {
      // Bit-identical, not approximately equal: the serving path must not
      // perturb the model's arithmetic.
      EXPECT_EQ(prediction.logits[static_cast<std::size_t>(k)], direct.at(k));
    }
  }
}

TEST_F(ServeTest, MicroBatchedResultsAreBitIdenticalToSingle) {
  Engine batched(artifact(), {.max_batch_size = 8});
  Engine single(artifact(), {.max_batch_size = 1});

  std::vector<std::vector<float>> windows;
  for (std::int64_t i = 0; i < 12; ++i) windows.push_back(window(i));
  const auto grouped = batched.predict_batch(windows);
  ASSERT_EQ(grouped.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto alone = single.predict(windows[i]);
    EXPECT_EQ(grouped[i].label, alone.label);
    EXPECT_EQ(grouped[i].logits, alone.logits);
  }
  // predict_batch enqueues everything at once, so the dispatcher must have
  // coalesced at least some requests.
  EXPECT_GE(batched.stats().largest_batch, 2U);
  EXPECT_EQ(single.stats().largest_batch, 1U);
}

TEST_F(ServeTest, ConcurrentPredictionsAreCorrectAndComplete) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 24;
  constexpr std::int64_t kDistinct = 6;

  Engine engine(artifact(), {.max_batch_size = 8});
  // Reference answers via the same engine before the storm (single caller).
  std::vector<Prediction> expected;
  for (std::int64_t i = 0; i < kDistinct; ++i) {
    expected.push_back(engine.predict(window(i)));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kPerThread; ++r) {
        const auto i = static_cast<std::int64_t>((t + r) % kDistinct);
        const Prediction p = engine.predict(window(i));
        if (p.logits != expected[static_cast<std::size_t>(i)].logits ||
            p.label != expected[static_cast<std::size_t>(i)].label) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread + kDistinct);
  EXPECT_GE(stats.batches, 1U);
  EXPECT_LE(stats.largest_batch, 8U);
}

TEST_F(ServeTest, EngineRejectsWrongWindowSizeAndShutdown) {
  Engine engine(artifact());
  EXPECT_THROW(engine.predict(std::vector<float>(7)), std::invalid_argument);
  engine.shutdown();
  EXPECT_THROW(engine.predict(window(0)), std::runtime_error);
  engine.shutdown();  // idempotent
}

TEST_F(ServeTest, NormalizationStatsApplyAndRoundTrip) {
  Artifact a = artifact();
  const auto channels = static_cast<std::size_t>(a.channels());
  EXPECT_THROW(a.set_normalization({1.0F}, {1.0F}), std::runtime_error);
  EXPECT_THROW(a.set_normalization(std::vector<float>(channels, 0.0F),
                                   std::vector<float>(channels, 0.0F)),
               std::runtime_error);
  a.set_normalization(std::vector<float>(channels, 0.5F),
                      std::vector<float>(channels, 2.0F));

  const std::string path = temp_path("saga_artifact_norm.bin");
  a.save(path);
  const Artifact loaded = Artifact::load(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.norm_mean, a.norm_mean);
  EXPECT_EQ(loaded.norm_scale, a.norm_scale);

  // Engine applies (x - mean) / scale: feeding x' = x * scale + mean through
  // a normalizing engine must equal feeding x through an identity one.
  Engine normalizing(loaded);
  Engine identity(artifact());
  std::vector<float> shifted = window(0);
  for (float& v : shifted) v = v * 2.0F + 0.5F;
  const auto via_stats = normalizing.predict(shifted);
  const auto direct = identity.predict(window(0));
  ASSERT_EQ(via_stats.logits.size(), direct.logits.size());
  for (std::size_t k = 0; k < direct.logits.size(); ++k) {
    EXPECT_NEAR(via_stats.logits[k], direct.logits[k], 1e-4F);
  }
}

// ---- async submit() API: deadlines, priorities, backpressure, Router -----

TEST_F(ServeTest, SubmitWithDeadlinesAndPrioritiesIsBitIdentical) {
  // Whatever batching the deadline/priority knobs cause, results must be
  // bit-identical to the single-window greedy path.
  Engine single(artifact(), {.max_batch_size = 1});
  // warmup_forwards = 0: this test pins batching behaviour with sub-ms
  // deadlines under a queued backlog; a warm-seeded admission EWMA would
  // (correctly) reject those as hopeless on slow/sanitizer builds, which
  // the cold-start admission tests cover separately.
  Engine windowed(artifact(), {.max_batch_size = 8,
                               .batch_window_us = 20000,
                               .warmup_forwards = 0});

  std::vector<RequestOptions> options(4);
  options[1] = {.priority = Priority::kBulk};
  options[2] = {.deadline = std::chrono::microseconds(1000)};
  options[3] = {.priority = Priority::kBulk,
                .deadline = std::chrono::microseconds(500)};
  std::vector<ResponseHandle> handles;
  for (std::int64_t i = 0; i < 8; ++i) {
    handles.push_back(
        windowed.submit(window(i), options[static_cast<std::size_t>(i) % 4]));
  }
  for (std::int64_t i = 0; i < 8; ++i) {
    auto& handle = handles[static_cast<std::size_t>(i)];
    ASSERT_TRUE(handle.valid());
    const Prediction batched = handle.get();
    EXPECT_FALSE(handle.valid());  // one-shot: get() consumes the handle
    EXPECT_GE(handle.latency_ms(), 0.0);
    EXPECT_GE(handle.batch_index(), 1U);
    const Prediction alone = single.predict(window(i));
    EXPECT_EQ(batched.label, alone.label);
    EXPECT_EQ(batched.logits, alone.logits);
  }
  EXPECT_GE(windowed.stats().largest_batch, 2U);  // the window coalesced some
  EXPECT_EQ(windowed.stats().bulk_requests, 4U);
}

TEST_F(ServeTest, BatchWindowCoalescesSequentialSubmissions) {
  // With a batch window much longer than the submission skew, four handles
  // submitted one after another from a single thread must land in ONE
  // forward pass — the behaviour greedy dispatch cannot produce.
  Engine engine(artifact(),
                {.max_batch_size = 8, .batch_window_us = 250000});
  std::vector<ResponseHandle> handles;
  for (std::int64_t i = 0; i < 4; ++i) handles.push_back(engine.submit(window(i)));
  for (auto& handle : handles) {
    EXPECT_TRUE(handle.wait_for(std::chrono::microseconds(2000000)));
    ASSERT_TRUE(handle.ready());
    (void)handle.get();
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batches, 1U);
  EXPECT_EQ(stats.largest_batch, 4U);
  EXPECT_EQ(handles[0].batch_index(), handles[3].batch_index());
}

TEST_F(ServeTest, DeadlineOverridesBatchWindow) {
  // A 2-second batch window would stall a lone request; its 5 ms deadline
  // must force a much earlier launch.
  Engine engine(artifact(),
                {.max_batch_size = 8, .batch_window_us = 2000000});
  const auto start = std::chrono::steady_clock::now();
  const Prediction p = engine.predict(
      window(0), {.deadline = std::chrono::microseconds(5000)});
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(p.logits.empty());
  EXPECT_LT(elapsed_s, 1.0);  // far below the 2 s window, generous for CI
}

TEST_F(ServeTest, BoundedQueueRejectsCleanlyWhenFull) {
  // A long batch window keeps submissions queued, so the depth bound is hit
  // deterministically. Rejected submissions must throw QueueFullError and
  // enqueue nothing; accepted ones must still complete correctly on drain.
  Engine single(artifact(), {.max_batch_size = 1});
  Engine engine(artifact(), {.max_batch_size = 16,
                             .batch_window_us = 500000,
                             .max_queue_depth = 3});
  std::vector<ResponseHandle> accepted;
  for (std::int64_t i = 0; i < 3; ++i) accepted.push_back(engine.submit(window(i)));
  EXPECT_EQ(engine.queue_depth(), 3U);
  // The stats snapshot exposes the same gauge, captured with the counters.
  EXPECT_EQ(engine.stats().queue_depth, 3U);
  EXPECT_THROW((void)engine.submit(window(3)), QueueFullError);
  // predict_batch is all-or-nothing: no partial enqueue past the bound.
  EXPECT_THROW((void)engine.predict_batch({window(3), window(4)}),
               QueueFullError);
  EXPECT_EQ(engine.queue_depth(), 3U);
  EXPECT_EQ(engine.stats().rejected, 3U);

  engine.shutdown();  // drains the three accepted requests immediately
  for (std::int64_t i = 0; i < 3; ++i) {
    const Prediction p = accepted[static_cast<std::size_t>(i)].get();
    const Prediction expected = single.predict(window(i));
    EXPECT_EQ(p.label, expected.label);
    EXPECT_EQ(p.logits, expected.logits);
  }
  EXPECT_EQ(engine.queue_depth(), 0U);
  EXPECT_EQ(engine.stats().queue_depth, 0U);
}

TEST_F(ServeTest, HopelessDeadlineIsRejectedAtAdmission) {
  // Admission control: once the EWMA batch latency is primed and a backlog
  // of whole batches is queued ahead, a deadline shorter than the estimated
  // queueing delay is rejected at submit time with HopelessDeadlineError
  // (a QueueFullError subtype, so shed-load handling applies).
  Engine engine(artifact(), {.max_batch_size = 1});
  // Prime the estimate; get() returning guarantees the EWMA is recorded.
  (void)engine.predict(window(0));
  EXPECT_GT(engine.stats().ewma_batch_ms, 0.0);

  // Park a deep no-deadline backlog. max_batch_size 1 means every queued
  // request is a full batch ahead of any newcomer; the tiny model still
  // takes ~ms per pass, so the backlog outlives the submissions below.
  std::vector<ResponseHandle> parked;
  for (std::int64_t i = 0; i < 64; ++i) {
    parked.push_back(engine.submit(window(i), {.priority = Priority::kBulk}));
  }
  EXPECT_THROW((void)engine.submit(window(1),
                                   {.deadline = std::chrono::microseconds(1)}),
               HopelessDeadlineError);
  EXPECT_EQ(engine.stats().rejected_hopeless, 1U);
  EXPECT_EQ(engine.stats().rejected, 0U);  // disjoint from queue-bound rejects

  // A generous deadline is admitted against the same backlog and completes.
  ResponseHandle admitted = engine.submit(
      window(2), {.deadline = std::chrono::microseconds(60'000'000)});
  for (auto& handle : parked) (void)handle.get();
  (void)admitted.get();

  // With the backlog drained (< one full batch queued) even a 1 us deadline
  // is admitted: the expired-deadline batch-fill contract handles it.
  // (get() returns at promise fulfilment, slightly before the dispatcher
  // retires the batch from queue_depth — wait for the real zero.)
  while (engine.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NO_THROW((void)engine.predict(
      window(3), {.deadline = std::chrono::microseconds(1)}));
}

TEST_F(ServeTest, DeadlineAdmissionCanBeDisabled) {
  Engine engine(artifact(),
                {.max_batch_size = 1, .deadline_admission = false});
  (void)engine.predict(window(0));
  EXPECT_GT(engine.stats().ewma_batch_ms, 0.0);
  std::vector<ResponseHandle> parked;
  for (std::int64_t i = 0; i < 16; ++i) {
    parked.push_back(engine.submit(window(i), {.priority = Priority::kBulk}));
  }
  // Same hopeless shape as above, but admission control is off: accepted,
  // pulled forward by the expired-deadline contract, and served.
  EXPECT_NO_THROW((void)engine.predict(
      window(1), {.deadline = std::chrono::microseconds(1)}));
  EXPECT_EQ(engine.stats().rejected_hopeless, 0U);
  for (auto& handle : parked) (void)handle.get();
}

TEST_F(ServeTest, BulkBackfillIsPreemptedButNotStarved) {
  // max_batch_size 1 makes every request its own forward pass, so
  // batch_index exposes dispatch order. While the dispatcher chews an
  // occupier request, queue 1 bulk request and THEN 8 interactive ones:
  // the later-submitted interactive requests must preempt (run before) the
  // bulk one, but the anti-starvation guard must still serve the bulk
  // request after at most 3 bulk-free batches — NOT last, as a pure
  // priority queue would.
  constexpr std::uint64_t kOccupiers = 2;  // ~2 forward passes of slack for
                                           // the submissions below to stage
  Engine engine(artifact(), {.max_batch_size = 1});
  std::vector<ResponseHandle> occupiers;
  for (std::uint64_t i = 0; i < kOccupiers; ++i) {
    occupiers.push_back(engine.submit(window(0)));
  }
  ResponseHandle bulk =
      engine.submit(window(2), {.priority = Priority::kBulk});
  std::vector<ResponseHandle> interactive;
  for (int i = 0; i < 8; ++i) interactive.push_back(engine.submit(window(1)));

  for (auto& handle : occupiers) (void)handle.get();
  (void)bulk.get();
  std::uint64_t last_interactive = 0;
  for (auto& handle : interactive) {
    (void)handle.get();
    last_interactive = std::max(last_interactive, handle.batch_index());
  }
  // Preemption: the first interactive request, although submitted after the
  // bulk one, was dispatched before it. Guard against the (deschedule-only)
  // race where the dispatcher drained the occupiers before the interactive
  // submissions were staged — bulk then runs right after the occupiers with
  // nothing to preempt it, which is not a priority violation.
  const bool staged_in_time = bulk.batch_index() > kOccupiers + 1;
  if (staged_in_time) {
    EXPECT_LT(interactive.front().batch_index(), bulk.batch_index());
  }
  // Anti-starvation: bulk ran before the interactive backlog drained...
  EXPECT_LT(bulk.batch_index(), last_interactive);
  // ...specifically within the occupier batches + at most 3 bulk-free skips.
  EXPECT_LE(bulk.batch_index(), kOccupiers + 4);
  EXPECT_EQ(engine.stats().bulk_requests, 1U);
}

TEST_F(ServeTest, ExpiredDeadlineOverridesPriorityOrder) {
  // Once a kBulk request's deadline has expired, the next batch taken must
  // contain it AHEAD of queued interactive traffic — the deadline contract
  // beats the priority queue (without it, interactive arrivals could hold
  // an expired bulk request until the starvation rescue, 4 batches later).
  // Occupier batches keep the dispatcher busy while everything stages; the
  // bulk deadline (1 µs) is long expired by the time the next batch forms.
  constexpr std::uint64_t kOccupiers = 2;
  // warmup_forwards = 0: the 1 µs deadline below must reach the queue (this
  // test pins batch-fill order); a warm-seeded EWMA would reject it at
  // admission with occupiers ahead of it.
  Engine engine(artifact(), {.max_batch_size = 1, .warmup_forwards = 0});
  std::vector<ResponseHandle> occupiers;
  for (std::uint64_t i = 0; i < kOccupiers; ++i) {
    occupiers.push_back(engine.submit(window(0)));
  }
  ResponseHandle bulk = engine.submit(
      window(2), {.priority = Priority::kBulk,
                  .deadline = std::chrono::microseconds(1)});
  std::vector<ResponseHandle> interactive;
  for (int i = 0; i < 4; ++i) interactive.push_back(engine.submit(window(1)));

  (void)bulk.get();
  // First non-occupier batch, not rescued 3 batches later.
  EXPECT_LE(bulk.batch_index(), kOccupiers + 1);
  for (auto& handle : interactive) {
    (void)handle.get();
    EXPECT_GT(handle.batch_index(), bulk.batch_index());
  }
}

TEST_F(ServeTest, RouterServesConcurrentClientsCorrectly) {
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 12;
  constexpr std::int64_t kDistinct = 6;

  Router router(artifact(), {.shards = 2, .engine = {.max_batch_size = 4}});
  EXPECT_EQ(router.shards(), 2U);

  // Reference answers from a standalone engine built from the same bundle.
  Engine reference(artifact(), {.max_batch_size = 1});
  std::vector<Prediction> expected;
  for (std::int64_t i = 0; i < kDistinct; ++i) {
    expected.push_back(reference.predict(window(i)));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kPerThread; ++r) {
        const auto i = static_cast<std::int64_t>((t + r) % kDistinct);
        const Prediction p = router.predict(window(i));
        if (p.logits != expected[static_cast<std::size_t>(i)].logits ||
            p.label != expected[static_cast<std::size_t>(i)].label) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const EngineStats total = router.stats();
  EXPECT_EQ(total.requests, kThreads * kPerThread);
  // Least-depth + rotating tie-break must spread work across both shards.
  const auto per_shard = router.shard_stats();
  ASSERT_EQ(per_shard.size(), 2U);
  EXPECT_GT(per_shard[0].requests, 0U);
  EXPECT_GT(per_shard[1].requests, 0U);
  EXPECT_EQ(per_shard[0].requests + per_shard[1].requests, total.requests);

  router.shutdown();
  EXPECT_THROW((void)router.predict(window(0)), std::runtime_error);
}

TEST_F(ServeTest, ConfigValidationRejectsBadKnobs) {
  EXPECT_THROW(Engine(artifact(), {.max_batch_size = 0}),
               std::invalid_argument);
  EXPECT_THROW(Engine(artifact(), {.batch_window_us = -1}),
               std::invalid_argument);
  EXPECT_THROW(Engine(artifact(), {.max_queue_depth = 0}),
               std::invalid_argument);
  RouterConfig zero_shards;
  zero_shards.shards = 0;
  EXPECT_THROW(Router(artifact(), zero_shards), std::invalid_argument);
  Engine engine(artifact());
  EXPECT_THROW(
      (void)engine.submit(window(0),
                          {.deadline = std::chrono::microseconds(-5)}),
      std::invalid_argument);
  // A predict_batch group larger than the queue bound can never be admitted:
  // usage error (invalid_argument), not transient backpressure.
  Engine shallow(artifact(), {.max_batch_size = 4, .batch_window_us = 0,
                              .max_queue_depth = 2});
  EXPECT_THROW(
      (void)shallow.predict_batch({window(0), window(1), window(2)}),
      std::invalid_argument);
}

TEST_F(ServeTest, OpenLoopLoadGeneratorReportsLatencyAndRejections) {
  Engine engine(artifact(),
                {.max_batch_size = 8, .batch_window_us = 2000});
  LoadOptions load;
  load.clients = 2;
  load.per_client = 10;
  load.seed = 11;
  load.offered_rps = 400.0;  // well under tiny-model capacity
  const LoadReport report = run_load(engine, load);
  EXPECT_EQ(report.latencies_ms.size() + report.rejected, 20U);
  EXPECT_EQ(report.errors, 0U);
  EXPECT_TRUE(std::is_sorted(report.latencies_ms.begin(),
                             report.latencies_ms.end()));
  EXPECT_EQ(report.offered_rps, 400.0);
  EXPECT_GT(report.requests_per_second(), 0.0);
  EXPECT_NE(report.latency_summary().find("p99"), std::string::npos);
  EXPECT_NE(report.latency_summary().find("p99.9"), std::string::npos);
}

TEST(LoadReportQuantiles, SummaryIncludesTailQuantile) {
  LoadReport report;
  for (int i = 0; i < 2000; ++i) {
    report.latencies_ms.push_back(static_cast<double>(i) * 0.5);
  }
  // Nearest-rank over 2000 sorted samples: p99.9 lands on index 1998.
  EXPECT_DOUBLE_EQ(report.percentile_ms(0.999), 999.0);
  EXPECT_GE(report.percentile_ms(0.999), report.percentile_ms(0.99));
  EXPECT_LE(report.percentile_ms(0.999), report.percentile_ms(1.0));
  EXPECT_NE(report.latency_summary().find("p99.9"), std::string::npos);
}

TEST_F(ServeTest, LoadGeneratorCountsEveryRequest) {
  Engine engine(artifact(), {.max_batch_size = 4});
  LoadOptions load;
  load.clients = 3;
  load.per_client = 5;
  load.seed = 42;
  const LoadReport report = run_load(engine, load);
  EXPECT_EQ(report.latencies_ms.size(), 15U);
  EXPECT_TRUE(std::is_sorted(report.latencies_ms.begin(),
                             report.latencies_ms.end()));
  EXPECT_GT(report.requests_per_second(), 0.0);
  EXPECT_LE(report.percentile_ms(0.5), report.percentile_ms(1.0));
  EXPECT_EQ(engine.stats().requests, 15U);

  const LoadReport empty;  // zero-request edge: percentiles must not crash
  EXPECT_EQ(empty.percentile_ms(0.5), 0.0);
  EXPECT_EQ(empty.requests_per_second(), 0.0);
}

// ---- histogram metrics ---------------------------------------------------

TEST(ServeHistogram, BucketBoundariesFollowTheLogLayout) {
  // {min 1, growth 2, 5 buckets}: [0,1) [1,2) [2,4) [4,8) [8,inf).
  Histogram h(1.0, 2.0, 5);
  ASSERT_EQ(h.buckets(), 5U);
  EXPECT_DOUBLE_EQ(h.bucket_lower(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_lower(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(3), 8.0);
  EXPECT_DOUBLE_EQ(h.bucket_lower(4), 8.0);
  EXPECT_TRUE(std::isinf(h.bucket_upper(4)));
  EXPECT_THROW((void)h.bucket_upper(5), std::out_of_range);

  h.record(0.5);   // underflow bucket
  h.record(1.0);   // lower edge is inclusive: bucket 1, not 0
  h.record(2.0);   // bucket 2
  h.record(7.99);  // bucket 3
  h.record(8.0);   // overflow: upper edges are exclusive
  h.record(100.0);
  h.record(-3.0);  // negative clamps into the underflow bucket, never throws
  EXPECT_EQ(h.count(), 7U);
  EXPECT_EQ(h.bucket_count(0), 2U);
  EXPECT_EQ(h.bucket_count(1), 1U);
  EXPECT_EQ(h.bucket_count(2), 1U);
  EXPECT_EQ(h.bucket_count(3), 1U);
  EXPECT_EQ(h.bucket_count(4), 2U);
  EXPECT_DOUBLE_EQ(h.max_recorded(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 2.0 + 7.99 + 8.0 + 100.0 + 0.0);

  // Percentiles report the containing bucket's upper edge (biased high,
  // never low); the overflow bucket reports the exact max.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);   // rank 1 -> underflow bucket
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 4.0);   // rank 4 -> bucket 2
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);  // overflow -> exact max

  EXPECT_THROW(Histogram(0.0, 2.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 2.0, 2), std::invalid_argument);
}

TEST(ServeHistogram, MergeSumsCountsAndRejectsLayoutMismatch) {
  Histogram a = Histogram::latency_ms();
  Histogram b = Histogram::latency_ms();
  a.record(0.5);
  b.record(0.5);
  b.record(300.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3U);
  EXPECT_DOUBLE_EQ(a.max_recorded(), 300.0);
  EXPECT_DOUBLE_EQ(a.sum(), 301.0);

  Histogram depths = Histogram::depths();
  EXPECT_THROW(a.merge(depths), std::invalid_argument);

  // The layoutless default drops observations instead of throwing, so a
  // default-constructed EngineStats-like aggregate is harmless.
  Histogram empty;
  empty.record(1.0);
  EXPECT_EQ(empty.count(), 0U);
  EXPECT_EQ(empty.buckets(), 0U);

  // Empty percentile and format must not crash.
  EXPECT_DOUBLE_EQ(Histogram::latency_ms().percentile(0.99), 0.0);
  EXPECT_FALSE(a.format("batch latency", "ms").empty());
}

TEST(LoadReportQuantiles, PercentileEdgeCases) {
  // Empty report: every quantile is 0 (no crash, no NaN).
  const LoadReport empty;
  EXPECT_DOUBLE_EQ(empty.percentile_ms(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile_ms(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile_ms(1.0), 0.0);

  // Single sample: every quantile is that sample.
  LoadReport one;
  one.latencies_ms = {7.5};
  EXPECT_DOUBLE_EQ(one.percentile_ms(0.0), 7.5);
  EXPECT_DOUBLE_EQ(one.percentile_ms(0.5), 7.5);
  EXPECT_DOUBLE_EQ(one.percentile_ms(1.0), 7.5);

  // Multi-sample: q=0 is the minimum, q=1 the maximum (index clamped).
  LoadReport many;
  many.latencies_ms = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(many.percentile_ms(0.0), 1.0);
  EXPECT_DOUBLE_EQ(many.percentile_ms(1.0), 4.0);
  EXPECT_DOUBLE_EQ(many.percentile_ms(0.5), 3.0);
}

TEST_F(ServeTest, EngineStatsExportHistograms) {
  Engine engine(artifact(), {.max_batch_size = 4});
  (void)engine.predict_batch({window(0), window(1), window(2)});
  const EngineStats stats = engine.stats();
  // One forward pass of three windows: each distribution holds one sample.
  EXPECT_EQ(stats.batch_latency_ms_hist.count(), stats.batches);
  EXPECT_EQ(stats.batch_size_hist.count(), stats.batches);
  EXPECT_EQ(stats.queue_depth_hist.count(), stats.batches);
  EXPECT_GT(stats.batch_latency_ms_hist.max_recorded(), 0.0);
  EXPECT_DOUBLE_EQ(stats.batch_size_hist.max_recorded(),
                   static_cast<double>(stats.largest_batch));
}

// ---- stat aggregation and admission bugfixes -----------------------------

TEST(ServeAggregateStats, EwmaIsDepthWeightedMeanNotMax) {
  // Regression: the old Router::stats() reported max(ewma) across shards AS
  // the fleet ewma, so one slow shard masqueraded as the mean. Skew two
  // shards and check the weighted mean, with the worst kept separately.
  EngineStats fast;
  fast.ewma_batch_ms = 10.0;
  fast.queue_depth = 1;
  fast.requests = 100;
  EngineStats slow;
  slow.ewma_batch_ms = 100.0;
  slow.queue_depth = 9;
  slow.requests = 20;
  slow.largest_batch = 7;
  const EngineStats total = aggregate_stats({fast, slow});
  // Weights are depth+1: (2*10 + 10*100) / 12 = 85.
  EXPECT_DOUBLE_EQ(total.ewma_batch_ms, 85.0);
  EXPECT_DOUBLE_EQ(total.ewma_batch_ms_worst, 100.0);
  EXPECT_LT(total.ewma_batch_ms, 100.0);  // the regression assertion
  EXPECT_EQ(total.requests, 120U);
  EXPECT_EQ(total.queue_depth, 10U);
  EXPECT_EQ(total.largest_batch, 7U);

  // A shard with no estimate yet (ewma 0) is excluded from the mean rather
  // than dragging it toward zero.
  EngineStats cold;
  cold.queue_depth = 50;
  const EngineStats with_cold = aggregate_stats({fast, slow, cold});
  EXPECT_DOUBLE_EQ(with_cold.ewma_batch_ms, 85.0);
  EXPECT_DOUBLE_EQ(aggregate_stats({cold}).ewma_batch_ms, 0.0);
}

TEST_F(ServeTest, ColdEngineRejectsHopelessDeadlinesViaWarmupSeed) {
  // Regression: the admission gate only fires when ewma_batch_ms > 0, so a
  // cold engine used to admit arbitrarily hopeless deadlines until its
  // first real batch completed. The constructor's warmup forward now seeds
  // the estimate — without counting as traffic.
  Engine engine(artifact(), {.max_batch_size = 1});
  EngineStats cold = engine.stats();
  EXPECT_GT(cold.ewma_batch_ms, 0.0);  // seeded before any submission
  EXPECT_EQ(cold.requests, 0U);        // warmup is not traffic...
  EXPECT_EQ(cold.batches, 0U);
  EXPECT_EQ(cold.batch_latency_ms_hist.count(), 0U);  // ...anywhere

  // First burst against the cold engine: park a backlog, then submit a
  // 1 us deadline. Pre-fix this was admitted (and served hopelessly late);
  // now it is rejected at admission.
  std::vector<ResponseHandle> parked;
  for (std::int64_t i = 0; i < 32; ++i) {
    parked.push_back(engine.submit(window(i), {.priority = Priority::kBulk}));
  }
  EXPECT_THROW((void)engine.submit(window(1),
                                   {.deadline = std::chrono::microseconds(1)}),
               HopelessDeadlineError);
  EXPECT_EQ(engine.stats().rejected_hopeless, 1U);
  for (auto& handle : parked) (void)handle.get();
}

TEST_F(ServeTest, InitialEwmaSeedSkipsWarmup) {
  Engine engine(artifact(), {.max_batch_size = 1,
                             .warmup_forwards = 4,
                             .initial_ewma_batch_ms = 123.0});
  EXPECT_DOUBLE_EQ(engine.stats().ewma_batch_ms, 123.0);
  EXPECT_DOUBLE_EQ(engine.stats().ewma_batch_ms_worst, 123.0);
  EXPECT_THROW(Engine(artifact(), {.warmup_forwards = -1}),
               std::invalid_argument);
  EXPECT_THROW(Engine(artifact(), {.initial_ewma_batch_ms = -0.5}),
               std::invalid_argument);
}

TEST_F(ServeTest, TwoShardBackpressureFloodStaysConsistent) {
  // Regression companion for the stale-snapshot retry fix: flood a tiny
  // two-shard fleet from several threads. Every submission must either be
  // accepted (and later return a bit-correct result) or throw
  // QueueFullError — no deadlocks, no lost requests, and the re-ranked
  // retry keeps both shards in play.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 10;
  constexpr std::int64_t kDistinct = 3;
  Router router(artifact(), {.shards = 2,
                             .engine = {.max_batch_size = 1,
                                        .max_queue_depth = 2},
                             .work_stealing = false});
  Engine reference(artifact(), {.max_batch_size = 1});
  std::vector<Prediction> expected;
  for (std::int64_t i = 0; i < kDistinct; ++i) {
    expected.push_back(reference.predict(window(i)));
  }

  std::mutex collected_mutex;
  std::vector<std::pair<std::int64_t, ResponseHandle>> collected;
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kPerThread; ++r) {
        const auto i = static_cast<std::int64_t>((t + r) % kDistinct);
        try {
          ResponseHandle handle = router.submit(window(i));
          const std::lock_guard<std::mutex> lock(collected_mutex);
          collected.emplace_back(i, std::move(handle));
        } catch (const QueueFullError&) {
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(collected.size() + rejected.load(), kThreads * kPerThread);
  for (auto& [i, handle] : collected) {
    const Prediction p = handle.get();
    EXPECT_EQ(p.logits, expected[static_cast<std::size_t>(i)].logits);
  }
  const EngineStats total = router.stats();
  EXPECT_EQ(total.requests, collected.size());
  // Engine-side rejection counting is per-attempt (a request the retry
  // walked across both full shards counts once per shard), so the fleet
  // figure bounds the caller-visible rejections from below.
  EXPECT_GE(total.rejected + total.rejected_hopeless, rejected.load());
}

TEST_F(ServeTest, SubmitRanksShardsByLiveDepthNotStaleSnapshot) {
  // Deterministic version of the re-ranking contract: skew the queues via
  // the stealing seam, then check the next submission lands on the shard
  // that is empty NOW (a stale pre-skew snapshot would have sent it to the
  // other one). The long batch window parks everything; deadlines keep the
  // eventual drain prompt.
  Router router(artifact(), {.shards = 2,
                             .engine = {.max_batch_size = 8,
                                        .batch_window_us = 2'000'000},
                             .work_stealing = false});
  const RequestOptions deadline{.deadline = std::chrono::microseconds(500000)};
  std::vector<ResponseHandle> handles;
  for (std::int64_t i = 0; i < 4; ++i) {
    handles.push_back(router.submit(window(i), deadline));
  }
  // Least-depth routing spread the four submissions 2/2.
  EXPECT_EQ(router.shard(0)->pending_depth(), 2U);
  EXPECT_EQ(router.shard(1)->pending_depth(), 2U);

  // Skew: move shard 0's queue onto shard 1.
  router.shard(1)->inject_stolen(router.shard(0)->steal_pending(8));
  EXPECT_EQ(router.shard(0)->pending_depth(), 0U);
  EXPECT_EQ(router.shard(1)->pending_depth(), 4U);

  handles.push_back(router.submit(window(4), deadline));
  EXPECT_EQ(router.shard(0)->pending_depth(), 1U);  // routed by live depth

  router.shutdown();  // drains both shards immediately
  Engine reference(artifact(), {.max_batch_size = 1});
  for (std::int64_t i = 0; i < 5; ++i) {
    const Prediction p = handles[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(p.logits, reference.predict(window(i)).logits);
  }
}

// ---- cross-shard work stealing -------------------------------------------

TEST_F(ServeTest, StealPendingMovesRequestsBitIdentically) {
  // Mechanics at the Engine level: requests stolen out of a parked queue
  // and injected into a sibling serving the same artifact are fulfilled
  // bit-identically; donated/stolen counters record the move.
  Engine victim(artifact(), {.max_batch_size = 8,
                             .batch_window_us = 2'000'000});
  // max_batch 3 so the injected batch is full and dispatches immediately
  // (stolen requests keep their original launch_by stamps).
  Engine thief(artifact(), {.max_batch_size = 3});
  std::vector<ResponseHandle> handles;
  for (std::int64_t i = 0; i < 4; ++i) {
    handles.push_back(victim.submit(window(i)));
  }
  EXPECT_EQ(victim.pending_depth(), 4U);

  std::vector<detail::Request> moved = victim.steal_pending(3);
  ASSERT_EQ(moved.size(), 3U);  // oldest-first: windows 0, 1, 2
  EXPECT_EQ(victim.pending_depth(), 1U);
  EXPECT_EQ(victim.stats().donated, 3U);
  thief.inject_stolen(std::move(moved));

  Engine reference(artifact(), {.max_batch_size = 1});
  for (std::int64_t i = 0; i < 3; ++i) {
    const Prediction p = handles[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(p.logits, reference.predict(window(i)).logits);
  }
  EXPECT_EQ(thief.stats().stolen, 3U);
  EXPECT_EQ(thief.stats().requests, 3U);  // counted by the fulfilling engine
  victim.shutdown();  // drains the unstolen fourth request
  EXPECT_EQ(handles[3].get().logits, reference.predict(window(3)).logits);
  EXPECT_EQ(victim.stats().requests, 1U);

  // After shutdown both seams refuse: a draining engine keeps its queue,
  // and a stopped engine hands injected requests back to the caller.
  EXPECT_TRUE(victim.steal_pending(4).empty());
  thief.shutdown();
  std::vector<detail::Request> orphan;
  orphan.push_back(detail::Request{});
  EXPECT_THROW(thief.inject_stolen(std::move(orphan)), EngineStoppedError);
}

TEST_F(ServeTest, RouterWorkStealingRebalancesSkewedArrivals) {
  // Fleet-level wiring: park a backlog on shard 0 (long batch window, not
  // enough requests to fill a batch) and let shard 1's idle dispatcher
  // discover and steal it within a poll interval. The 50 ms deadlines
  // bound the test even if stealing were broken (shard 0 would then serve
  // everything itself at deadline expiry — and the stolen-counter
  // assertions below would fail, flagging the regression).
  Router router(artifact(), {.shards = 2,
                             .engine = {.max_batch_size = 16,
                                        .batch_window_us = 2'000'000},
                             .steal_threshold = 4,
                             .steal_poll_us = 200});
  Engine reference(artifact(), {.max_batch_size = 1});
  std::vector<ResponseHandle> handles;
  for (std::int64_t i = 0; i < 8; ++i) {
    handles.push_back(router.shard(0)->submit(
        window(i), {.deadline = std::chrono::microseconds(50000)}));
  }
  for (std::int64_t i = 0; i < 8; ++i) {
    const Prediction p = handles[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(p.logits, reference.predict(window(i)).logits);
  }
  const EngineStats total = router.stats();
  EXPECT_EQ(total.requests, 8U);
  EXPECT_GT(total.stolen, 0U);  // the idle shard picked up skewed work
  EXPECT_EQ(total.stolen, total.donated);  // conservation of moved requests
  const auto per_shard = router.shard_stats();
  EXPECT_EQ(per_shard[1].stolen, total.stolen);
  EXPECT_EQ(per_shard[0].donated, total.donated);
}

// ---- artifact hot-swap ---------------------------------------------------

TEST_F(ServeTest, HotSwapServesInFlightRequestsOnTheOldVersion) {
  // The zero-drop/zero-misroute contract: requests admitted before the
  // swap are fulfilled bit-identically to the OLD version, requests after
  // it to the NEW one. The long batch window parks the pre-swap requests
  // so the cutover provably finds them still queued.
  const Artifact v1 = artifact();
  Artifact v2 = artifact();
  // A visible version change with identical shapes: shift one output bias.
  v2.classifier_state["output.bias"][0] += 1.0F;

  Engine ref1(v1, {.max_batch_size = 1});
  Engine ref2(v2, {.max_batch_size = 1});
  ASSERT_NE(ref1.predict(window(0)).logits, ref2.predict(window(0)).logits);

  // warmup_forwards = 0 so the EWMA-carry assertions below can tell a
  // carried estimate apart from a fresh warmup seed.
  Router router(v1, {.shards = 2,
                     .engine = {.max_batch_size = 8,
                                .batch_window_us = 2'000'000,
                                .warmup_forwards = 0}});
  EXPECT_EQ(router.artifact_generation(), 0U);
  // Real traffic primes the per-shard EWMAs; the 5 ms deadlines force a
  // launch well before the 2 s batch window, one request per shard
  // (least-depth + rotation alternates on an idle fleet).
  const RequestOptions prompt{.deadline = std::chrono::microseconds(5000)};
  (void)router.predict(window(0), prompt);
  (void)router.predict(window(1), prompt);

  std::vector<ResponseHandle> pre_swap;
  for (std::int64_t i = 0; i < 6; ++i) {
    pre_swap.push_back(router.submit(window(i)));
  }
  EXPECT_GT(router.queue_depth(), 0U);  // parked behind the batch window

  router.swap_artifact(v2);
  EXPECT_EQ(router.artifact_generation(), 1U);

  // Every pre-swap request was drained by the old engines during the
  // cutover: nothing dropped, nothing served by the new version.
  for (std::int64_t i = 0; i < 6; ++i) {
    const Prediction p = pre_swap[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(p.logits, ref1.predict(window(i)).logits);
  }

  // The replacements carried the admission estimate: no traffic yet, no
  // warmup configured, EWMA still positive.
  for (const EngineStats& s : router.shard_stats()) {
    EXPECT_EQ(s.batches, 0U);
    EXPECT_GT(s.ewma_batch_ms, 0.0);
  }

  // Post-swap traffic is served by the new version.
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(router.predict(window(i), prompt).logits,
              ref2.predict(window(i)).logits);
  }
}

TEST_F(ServeTest, HotSwapUnderConcurrentTrafficNeverDropsOrMixesVersions) {
  const Artifact v1 = artifact();
  Artifact v2 = artifact();
  v2.classifier_state["output.bias"][0] += 1.0F;
  Engine ref1(v1, {.max_batch_size = 1});
  Engine ref2(v2, {.max_batch_size = 1});
  const std::vector<float> expected_v1 = ref1.predict(window(0)).logits;
  const std::vector<float> expected_v2 = ref2.predict(window(0)).logits;

  Router router(v1, {.shards = 2, .engine = {.max_batch_size = 4}});
  std::atomic<int> v1_results{0};
  std::atomic<int> v2_results{0};
  std::atomic<int> anomalies{0};
  std::thread client([&] {
    for (int r = 0; r < 40; ++r) {
      const std::vector<float> logits = router.predict(window(0)).logits;
      if (logits == expected_v1) {
        v1_results.fetch_add(1);
      } else if (logits == expected_v2) {
        v2_results.fetch_add(1);
      } else {
        anomalies.fetch_add(1);  // dropped/misrouted/mixed-version result
      }
    }
  });
  router.swap_artifact(v2);
  client.join();

  // Every request completed with exactly one version's bit pattern, and
  // the post-join probe confirms the fleet finished on v2. (Per-shard
  // counters retire with their engines, so no fleet-total assertion here.)
  EXPECT_EQ(anomalies.load(), 0);
  EXPECT_EQ(v1_results.load() + v2_results.load(), 40);
  EXPECT_EQ(router.predict(window(0)).logits, expected_v2);
}

TEST_F(ServeTest, HotSwapRejectsIncompatibleArtifactAndKeepsServing) {
  const Artifact v1 = artifact();
  Engine ref1(v1, {.max_batch_size = 1});
  Router router(v1, {.shards = 2, .engine = {.max_batch_size = 4}});

  Artifact wrong_shape = artifact();
  wrong_shape.backbone_config.max_seq_len += 8;  // window_length mismatch
  EXPECT_THROW(router.swap_artifact(wrong_shape), std::invalid_argument);
  EXPECT_EQ(router.artifact_generation(), 0U);
  // The running fleet is untouched and still serves v1.
  EXPECT_EQ(router.predict(window(0)).logits, ref1.predict(window(0)).logits);

  router.shutdown();
  EXPECT_THROW(router.swap_artifact(v1), EngineStoppedError);
  EXPECT_THROW((void)router.submit(window(0)), EngineStoppedError);
}

// ---- bursty open-loop load generation ------------------------------------

TEST_F(ServeTest, BurstyLoadGeneratorConservesRequestsAndFillsHistogram) {
  Engine engine(artifact(), {.max_batch_size = 8, .batch_window_us = 2000});
  LoadOptions load;
  load.clients = 2;
  load.per_client = 12;
  load.seed = 7;
  load.offered_rps = 300.0;
  load.arrival = Arrival::kBursty;
  load.burst_period_s = 0.1;
  load.burst_duty = 0.25;
  load.burst_peak = 3.0;
  const LoadReport report = run_load(engine, load);
  EXPECT_EQ(report.latencies_ms.size() + report.rejected, 24U);
  EXPECT_EQ(report.errors, 0U);
  EXPECT_EQ(report.latency_hist.count(), report.latencies_ms.size());
  if (!report.latencies_ms.empty()) {
    EXPECT_DOUBLE_EQ(report.latency_hist.max_recorded(),
                     report.percentile_ms(1.0));
  }
}

TEST_F(ServeTest, LoadOptionsValidationRejectsContradictoryArrivals) {
  Engine engine(artifact(), {.max_batch_size = 4});
  LoadOptions bad;
  bad.clients = 1;
  bad.per_client = 1;
  bad.arrival = Arrival::kPoisson;  // open-loop without a rate
  EXPECT_THROW((void)run_load(engine, bad), std::invalid_argument);
  bad.arrival = Arrival::kBursty;
  EXPECT_THROW((void)run_load(engine, bad), std::invalid_argument);
  bad.offered_rps = 100.0;
  bad.burst_duty = 1.5;
  EXPECT_THROW((void)run_load(engine, bad), std::invalid_argument);
  bad.burst_duty = 0.5;
  bad.burst_peak = 0.5;  // bursts must be at least the mean rate
  EXPECT_THROW((void)run_load(engine, bad), std::invalid_argument);
  bad.burst_peak = 3.0;  // peak * duty = 1.5 > 1: off rate would go negative
  EXPECT_THROW((void)run_load(engine, bad), std::invalid_argument);
  bad.burst_period_s = 0.0;
  bad.burst_peak = 2.0;
  EXPECT_THROW((void)run_load(engine, bad), std::invalid_argument);
}

// ---- error paths: malformed files and config/weight mismatches ----------

TEST_F(ServeTest, LoadRejectsTruncatedFile) {
  const std::string path = temp_path("saga_artifact_truncated.bin");
  artifact().save(path);
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_THROW(
      {
        try {
          Artifact::load(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

TEST_F(ServeTest, LoadRejectsNonArtifactCheckpoint) {
  const std::string path = temp_path("saga_artifact_plain.bin");
  util::save_blobs(path, {{"weights", {1.0F, 2.0F}}});
  EXPECT_THROW(
      {
        try {
          Artifact::load(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("not a serve artifact"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

TEST_F(ServeTest, LoadRejectsChannelCountMismatch) {
  const std::string path = temp_path("saga_artifact_badchan.bin");
  artifact().save(path);
  // save() validates, so inject the config/weight drift into the file.
  util::Manifest manifest = util::load_manifest(path);
  manifest.metadata["backbone.input_channels"] = "9";
  util::save_manifest(path, manifest);
  EXPECT_THROW(
      {
        try {
          Artifact::load(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("channel count mismatch"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

TEST_F(ServeTest, LoadRejectsClassCountMismatch) {
  const std::string path = temp_path("saga_artifact_badclass.bin");
  artifact().save(path);
  util::Manifest manifest = util::load_manifest(path);
  manifest.metadata["classifier.num_classes"] =
      std::to_string(artifact().num_classes() + 2);
  util::save_manifest(path, manifest);
  EXPECT_THROW(
      {
        try {
          Artifact::load(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("class count mismatch"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

TEST_F(ServeTest, LoadRejectsDegenerateModelConfig) {
  const std::string path = temp_path("saga_artifact_badheads.bin");
  artifact().save(path);
  util::Manifest manifest = util::load_manifest(path);
  manifest.metadata["backbone.num_heads"] = "0";  // would SIGFPE in attention
  util::save_manifest(path, manifest);
  EXPECT_THROW(Artifact::load(path), std::runtime_error);

  manifest.metadata["backbone.num_heads"] = "7";  // does not divide hidden_dim
  util::save_manifest(path, manifest);
  EXPECT_THROW(
      {
        try {
          Artifact::load(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("not divisible by num_heads"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

TEST_F(ServeTest, LoadRejectsUnsupportedArtifactVersion) {
  const std::string path = temp_path("saga_artifact_badver.bin");
  artifact().save(path);
  util::Manifest manifest = util::load_manifest(path);
  manifest.metadata["artifact_version"] = "99";
  util::save_manifest(path, manifest);
  EXPECT_THROW(
      {
        try {
          Artifact::load(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("unsupported artifact_version"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace saga::serve
