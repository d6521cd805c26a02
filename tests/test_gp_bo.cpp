#include <gtest/gtest.h>

#include <cmath>

#include "bo/gp.hpp"
#include "bo/lws.hpp"
#include "util/rng.hpp"

namespace saga::bo {
namespace {

TEST(GaussianProcess, InterpolatesTrainingPoints) {
  GaussianProcess::Options options;
  options.noise_variance = 1e-8;
  options.median_heuristic = false;
  options.length_scale = 0.5;
  GaussianProcess gp(options);
  const std::vector<std::vector<double>> x{{0.0}, {0.5}, {1.0}};
  const std::vector<double> y{1.0, -1.0, 2.0};
  gp.fit(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto pred = gp.predict(x[i]);
    EXPECT_NEAR(pred.mean, y[i], 1e-3);
    EXPECT_LT(pred.stddev, 0.05);
  }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData) {
  GaussianProcess::Options options;
  options.median_heuristic = false;
  options.length_scale = 0.2;
  GaussianProcess gp(options);
  gp.fit({{0.0}, {0.1}}, {0.0, 0.1});
  const auto near = gp.predict({0.05});
  const auto far = gp.predict({3.0});
  EXPECT_LT(near.stddev, far.stddev);
  // Far from data the posterior reverts to the (centered) prior mean.
  EXPECT_NEAR(far.mean, 0.05, 1e-3);
}

TEST(GaussianProcess, PriorBeforeFit) {
  GaussianProcess gp;
  const auto pred = gp.predict({0.3, 0.3});
  EXPECT_EQ(pred.mean, 0.0);
  EXPECT_NEAR(pred.stddev, 1.0, 1e-9);
}

TEST(GaussianProcess, RecoversSmoothFunction) {
  GaussianProcess::Options options;
  options.noise_variance = 1e-6;
  GaussianProcess gp(options);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 10; ++i) {
    const double t = i / 10.0;
    x.push_back({t});
    y.push_back(std::sin(3.0 * t));
  }
  gp.fit(x, y);
  for (double t = 0.05; t < 1.0; t += 0.1) {
    const auto pred = gp.predict({t});
    EXPECT_NEAR(pred.mean, std::sin(3.0 * t), 0.05) << "at " << t;
  }
}

TEST(GaussianProcess, ValidatesInputs) {
  GaussianProcess gp;
  EXPECT_THROW(gp.fit({}, {}), std::invalid_argument);
  EXPECT_THROW(gp.fit({{1.0}}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(gp.fit({{1.0}, {1.0, 2.0}}, {1.0, 2.0}), std::invalid_argument);
  GaussianProcess::Options bad;
  bad.length_scale = -1.0;
  EXPECT_THROW(GaussianProcess{bad}, std::invalid_argument);
}

TEST(ExpectedImprovement, ZeroStddevIsReluOfDelta) {
  EXPECT_EQ(expected_improvement(0.5, 0.0, 0.7), 0.0);
  EXPECT_NEAR(expected_improvement(0.9, 0.0, 0.7), 0.2, 1e-12);
}

TEST(ExpectedImprovement, UncertaintyAddsValue) {
  // Equal means: higher stddev must give higher EI (paper Eq. 9's second term).
  const double low = expected_improvement(0.5, 0.01, 0.6);
  const double high = expected_improvement(0.5, 0.3, 0.6);
  EXPECT_GT(high, low);
  EXPECT_GE(low, 0.0);
}

TEST(ExpectedImprovement, MonotoneInMean) {
  EXPECT_GT(expected_improvement(0.9, 0.1, 0.5),
            expected_improvement(0.6, 0.1, 0.5));
}

TEST(SimplexWeights, SumToOneAndNonNegative) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto w = sample_simplex_weights(seed);
    double total = 0.0;
    for (const double v : w) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Lws, FindsMaximumOfKnownFunction) {
  // Performance peaks when weights concentrate on component 2; LWS should
  // find a clearly better point than the average random trial.
  auto objective = [](const TaskWeights& w) { return w[2]; };
  LwsConfig config;
  config.budget = 6;
  config.initial_random = 3;
  config.candidate_pool = 300;
  config.seed = 5;
  const auto result = search_weights(objective, config);
  EXPECT_GT(result.best_performance, 0.55);  // E[max component] of a few random draws
  EXPECT_EQ(result.best_weights[2], result.best_performance);
  EXPECT_EQ(result.history.size(), 9U);
}

TEST(Lws, FindsGoodRegionOfSmoothObjective) {
  // Smooth bump centred at (0.1, 0.2, 0.3, 0.4) with maximum 1.0. At a
  // 7-evaluation budget BO cannot be expected to dominate random search in
  // 4-D (that comparison is statistically a coin flip); the robust property
  // is that every run lands well inside the bump's basin.
  auto objective = [](const TaskWeights& w) {
    const TaskWeights target{0.1, 0.2, 0.3, 0.4};
    double d2 = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      d2 += (w[i] - target[i]) * (w[i] - target[i]);
    }
    return std::exp(-8.0 * d2);
  };

  double total = 0.0;
  for (int t = 0; t < 5; ++t) {
    LwsConfig config;
    config.budget = 5;
    config.initial_random = 2;
    config.seed = 100 + static_cast<std::uint64_t>(t);
    const auto result = search_weights(objective, config);
    total += result.best_performance;
    EXPECT_GT(result.best_performance, 0.12) << "seed " << t;  // basin floor
    // The reported best must be consistent with its own history.
    double best_seen = -1.0;
    for (const auto& trial : result.history) {
      best_seen = std::max(best_seen, trial.performance);
    }
    EXPECT_DOUBLE_EQ(result.best_performance, best_seen);
  }
  EXPECT_GT(total / 5.0, 0.35);  // robust across seeds
}

TEST(Lws, HistoryRecordsEveryTrial) {
  int calls = 0;
  auto objective = [&](const TaskWeights&) { return 0.1 * ++calls; };
  LwsConfig config;
  config.budget = 3;
  config.initial_random = 2;
  const auto result = search_weights(objective, config);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(result.history.size(), 5U);
  EXPECT_NEAR(result.best_performance, 0.5, 1e-9);
}

TEST(Lws, EarlyStopsWithPatience) {
  auto objective = [](const TaskWeights&) { return 0.5; };  // flat: never improves
  LwsConfig config;
  config.budget = 50;
  config.initial_random = 2;
  config.patience = 2;
  const auto result = search_weights(objective, config);
  EXPECT_LE(result.history.size(), 2U + 2U);
}

TEST(Lws, ValidatesArguments) {
  EXPECT_THROW(search_weights(nullptr, {}), std::invalid_argument);
  LwsConfig bad;
  bad.budget = 0;
  EXPECT_THROW(search_weights([](const TaskWeights&) { return 0.0; }, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace saga::bo
