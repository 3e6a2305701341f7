#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "v2v/obs/export.hpp"
#include "v2v/obs/metrics.hpp"

namespace v2v::obs {
namespace {

/// A registry exercising every instrument kind plus a two-level stage tree.
void populate(MetricsRegistry& registry) {
  registry.counter("walk.walks").add(5000);
  registry.counter("train.examples").add(123456789);
  registry.gauge("walk.walks_per_sec").set(81234.5);
  registry.gauge("train.lr.final").set(0.0125);
  Histogram& hist = registry.histogram("train.epoch_seconds", {0.0, 10.0, 20});
  for (int i = 1; i <= 10; ++i) hist.record(static_cast<double>(i) / 2.0);
  Series& series = registry.series("train.epoch_loss");
  series.append(1.5);
  series.append(0.75);
  {
    const ScopedTimer pipeline(registry, "learn_embedding");
    { const ScopedTimer walk(registry, "walk"); }
    { const ScopedTimer train(registry, "train"); }
  }
}

TEST(ObsJson, ParsesPrimitivesAndContainers) {
  const JsonValue doc = parse_json(
      R"({"a": 1.5, "b": [true, null, "x\ny"], "empty": {}, "neg": -3e2})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("a").number, 1.5);
  ASSERT_TRUE(doc.at("b").is_array());
  ASSERT_EQ(doc.at("b").array.size(), 3u);
  EXPECT_TRUE(doc.at("b").array[0].boolean);
  EXPECT_TRUE(doc.at("b").array[1].is_null());
  EXPECT_EQ(doc.at("b").array[2].string, "x\ny");
  EXPECT_TRUE(doc.at("empty").is_object());
  EXPECT_TRUE(doc.at("empty").object.empty());
  EXPECT_DOUBLE_EQ(doc.at("neg").number, -300.0);
}

TEST(ObsJson, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json("nul"), std::runtime_error);
  EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
}

// Regression for a fuzz-lane finding: the parser recursed once per nesting
// level, so "[[[[..." gave attacker-controlled native-stack growth (the
// serve HTTP shim feeds it network bytes). Depth is now capped at 128.
TEST(ObsJson, RejectsPathologicalNestingWithoutOverflow) {
  const std::string deep_array(100000, '[');
  EXPECT_THROW(parse_json(deep_array), std::runtime_error);
  std::string deep_object;
  for (int i = 0; i < 100000; ++i) deep_object += "{\"a\":";
  EXPECT_THROW(parse_json(deep_object), std::runtime_error);
  // Documents inside the cap still parse.
  std::string nested;
  for (int i = 0; i < 100; ++i) nested += '[';
  nested += '1';
  for (int i = 0; i < 100; ++i) nested += ']';
  EXPECT_TRUE(parse_json(nested).is_array());
}

TEST(ObsJson, EscapesRoundTrip) {
  MetricsRegistry registry;
  registry.counter("weird\"name\nwith\ttabs").add(1);
  const JsonValue doc = parse_json(to_json(registry));
  EXPECT_DOUBLE_EQ(doc.at("counters").at("weird\"name\nwith\ttabs").number, 1.0);
}

TEST(ObsExport, JsonRoundTripPreservesEveryInstrument) {
  MetricsRegistry registry;
  populate(registry);
  const auto snap = registry.snapshot();

  const JsonValue doc = parse_json(to_json(registry));
  EXPECT_EQ(doc.at("schema").string, "v2v.metrics.v1");

  // Counters: exact integers.
  EXPECT_DOUBLE_EQ(doc.at("counters").at("walk.walks").number, 5000.0);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("train.examples").number, 123456789.0);

  // Gauges: doubles are serialized with max_digits10 → exact round-trip.
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("walk.walks_per_sec").number, 81234.5);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("train.lr.final").number, 0.0125);

  // Histogram: count, quantiles, and the bucket vector survive.
  const JsonValue& hist = doc.at("histograms").at("train.epoch_seconds");
  EXPECT_DOUBLE_EQ(hist.at("count").number, 10.0);
  const HistogramSnapshot& expect_hist = snap.histograms.at("train.epoch_seconds");
  EXPECT_DOUBLE_EQ(hist.at("p50").number, expect_hist.p50);
  EXPECT_DOUBLE_EQ(hist.at("p95").number, expect_hist.p95);
  EXPECT_DOUBLE_EQ(hist.at("p99").number, expect_hist.p99);
  ASSERT_EQ(hist.at("buckets").array.size(), expect_hist.buckets.size());
  for (std::size_t b = 0; b < expect_hist.buckets.size(); ++b) {
    EXPECT_DOUBLE_EQ(hist.at("buckets").array[b].number,
                     static_cast<double>(expect_hist.buckets[b]));
  }

  // Series: exact values in order.
  const JsonValue& series = doc.at("series").at("train.epoch_loss");
  ASSERT_EQ(series.array.size(), 2u);
  EXPECT_DOUBLE_EQ(series.array[0].number, 1.5);
  EXPECT_DOUBLE_EQ(series.array[1].number, 0.75);

  // Stage tree: names, nesting, call counts.
  const JsonValue& stages = doc.at("stages");
  EXPECT_EQ(stages.at("name").string, "run");
  ASSERT_EQ(stages.at("children").array.size(), 1u);
  const JsonValue& pipeline = stages.at("children").array[0];
  EXPECT_EQ(pipeline.at("name").string, "learn_embedding");
  EXPECT_DOUBLE_EQ(pipeline.at("calls").number, 1.0);
  ASSERT_EQ(pipeline.at("children").array.size(), 2u);
  EXPECT_EQ(pipeline.at("children").array[0].at("name").string, "walk");
  EXPECT_EQ(pipeline.at("children").array[1].at("name").string, "train");
}

TEST(ObsExport, WriteJsonFileRoundTrips) {
  MetricsRegistry registry;
  populate(registry);
  const auto path =
      (std::filesystem::temp_directory_path() / "v2v_obs_roundtrip.json").string();
  write_json_file(registry, path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue doc = parse_json(buffer.str());
  EXPECT_EQ(doc.at("schema").string, "v2v.metrics.v1");
  EXPECT_DOUBLE_EQ(doc.at("counters").at("walk.walks").number, 5000.0);
  std::remove(path.c_str());
}

TEST(ObsExport, WriteJsonFileThrowsOnBadPath) {
  MetricsRegistry registry;
  EXPECT_THROW(write_json_file(registry, "/nonexistent-dir/x/y.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace v2v::obs
