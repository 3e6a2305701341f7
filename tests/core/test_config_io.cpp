#include "v2v/core/config_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace v2v {
namespace {

TEST(ConfigIo, RoundTripNonDefaultValues) {
  V2VConfig config;
  config.seed = 777;
  config.walk.walks_per_vertex = 42;
  config.walk.walk_length = 99;
  config.walk.bias = walk::StepBias::kEdgeWeight;
  config.walk.temporal = true;
  config.walk.time_window = 2.5;
  config.walk.threads = 3;
  config.walk.grain = 25;
  config.walk.streaming = true;
  config.train.dimensions = 123;
  config.train.window = 7;
  config.train.architecture = embed::Architecture::kSkipGram;
  config.train.objective = embed::Objective::kHierarchicalSoftmax;
  config.train.negative = 9;
  config.train.epochs = 17;
  config.train.min_epochs = 4;
  config.train.convergence_tol = 0.05;
  config.train.initial_lr = 0.0125;
  config.train.subsample = 1e-4;
  config.train.threads = 2;
  config.train.grain = 50;
  config.kmeans.threads = 5;
  config.kmeans.restarts = 21;
  config.kmeans.assign = ml::KMeansAssign::kNormCached;

  std::stringstream buffer;
  save_config(config, buffer);
  const V2VConfig loaded = load_config(buffer);

  EXPECT_EQ(loaded.seed, 777u);
  EXPECT_EQ(loaded.walk.walks_per_vertex, 42u);
  EXPECT_EQ(loaded.walk.walk_length, 99u);
  EXPECT_EQ(loaded.walk.bias, walk::StepBias::kEdgeWeight);
  EXPECT_TRUE(loaded.walk.temporal);
  EXPECT_DOUBLE_EQ(loaded.walk.time_window, 2.5);
  EXPECT_EQ(loaded.walk.threads, 3u);
  EXPECT_EQ(loaded.walk.grain, 25u);
  EXPECT_TRUE(loaded.walk.streaming);
  EXPECT_EQ(loaded.train.dimensions, 123u);
  EXPECT_EQ(loaded.train.window, 7u);
  EXPECT_EQ(loaded.train.architecture, embed::Architecture::kSkipGram);
  EXPECT_EQ(loaded.train.objective, embed::Objective::kHierarchicalSoftmax);
  EXPECT_EQ(loaded.train.negative, 9u);
  EXPECT_EQ(loaded.train.epochs, 17u);
  EXPECT_EQ(loaded.train.min_epochs, 4u);
  EXPECT_DOUBLE_EQ(loaded.train.convergence_tol, 0.05);
  EXPECT_DOUBLE_EQ(loaded.train.initial_lr, 0.0125);
  EXPECT_DOUBLE_EQ(loaded.train.subsample, 1e-4);
  EXPECT_EQ(loaded.train.threads, 2u);
  EXPECT_EQ(loaded.train.grain, 50u);
  EXPECT_EQ(loaded.kmeans.threads, 5u);
  EXPECT_EQ(loaded.kmeans.restarts, 21u);
  EXPECT_EQ(loaded.kmeans.assign, ml::KMeansAssign::kNormCached);
}

TEST(ConfigIo, TopLevelStreamingKeyIsRejected) {
  // The default config round-trips on the in-RAM path.
  std::stringstream defaults;
  save_config(V2VConfig{}, defaults);
  EXPECT_FALSE(load_config(defaults).walk.streaming);
  // Files saved before walk.streaming carried a top-level `streaming`
  // key; it is now an unknown key, reported with its line.
  std::stringstream old("seed = 3\nstreaming = 1\n");
  try {
    (void)load_config(old);
    ADD_FAILURE() << "top-level streaming key was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("config line 2: unknown key 'streaming'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigIo, RefreshKeysAreRejected) {
  // Files saved while V2VConfig carried a refresh block have these keys;
  // they are now unknown keys, reported with their line.
  for (const std::string key : {"refresh.epochs", "refresh.initial_lr",
                                "refresh.compact_min_delta",
                                "refresh.compact_ratio"}) {
    std::stringstream old("seed = 3\n" + key + " = 1\n");
    try {
      (void)load_config(old);
      ADD_FAILURE() << key << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("config line 2: unknown key '" +
                                           key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigIo, KMeansAssignModeParses) {
  for (const auto mode : {ml::KMeansAssign::kNaive, ml::KMeansAssign::kNormCached,
                          ml::KMeansAssign::kHamerly}) {
    std::stringstream buffer;
    buffer << "kmeans.assign = " << ml::assign_mode_name(mode) << "\n";
    EXPECT_EQ(load_config(buffer).kmeans.assign, mode);
  }
  std::stringstream bad("kmeans.assign = elkanish\n");
  EXPECT_THROW((void)load_config(bad), std::runtime_error);
}

TEST(ConfigIo, MissingKeysKeepDefaults) {
  std::stringstream buffer("train.dimensions = 64\n");
  const V2VConfig loaded = load_config(buffer);
  EXPECT_EQ(loaded.train.dimensions, 64u);
  const V2VConfig defaults;
  EXPECT_EQ(loaded.train.window, defaults.train.window);
  EXPECT_EQ(loaded.walk.walk_length, defaults.walk.walk_length);
}

TEST(ConfigIo, CommentsAndBlankLinesIgnored) {
  std::stringstream buffer("# header\n\nseed = 5 # trailing\n");
  EXPECT_EQ(load_config(buffer).seed, 5u);
}

TEST(ConfigIo, UnknownKeyThrows) {
  std::stringstream buffer("walk.bogus = 1\n");
  EXPECT_THROW((void)load_config(buffer), std::runtime_error);
}

TEST(ConfigIo, MalformedLineThrows) {
  std::stringstream buffer("just some words\n");
  EXPECT_THROW((void)load_config(buffer), std::runtime_error);
}

TEST(ConfigIo, BadValueThrows) {
  {
    std::stringstream buffer("train.dimensions = banana\n");
    EXPECT_THROW((void)load_config(buffer), std::runtime_error);
  }
  {
    std::stringstream buffer("walk.bias = sideways\n");
    EXPECT_THROW((void)load_config(buffer), std::runtime_error);
  }
  {
    std::stringstream buffer("train.architecture = transformer\n");
    EXPECT_THROW((void)load_config(buffer), std::runtime_error);
  }
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW((void)load_config_file("/no/such/config"), std::runtime_error);
}

}  // namespace
}  // namespace v2v
