// Stream-mode scenarios: schema round trip, digest compatibility with the
// closed modes (the "stream" block and arrival seeds exist only in stream
// mode), validation, and end-to-end reproducibility across thread budgets.
#include <gtest/gtest.h>

#include <string>

#include "exp/manifest.hpp"
#include "exp/run.hpp"
#include "exp/scenario.hpp"

namespace radiocast::exp {
namespace {

constexpr const char* kStreamSpec = R"({
  "id": "t_stream",
  "mode": "stream",
  "topology": { "family": "geometric", "n": 16, "seed": 5, "radius": 0.5 },
  "seeds": 2,
  "seed_base": 300,
  "audit": true,
  "telemetry": true,
  "stream": {
    "rate": [0.5, 2.0],
    "process": "poisson",
    "buffer": [8],
    "policy": ["drop_new", "backpressure"],
    "batch_capacity": 8,
    "horizon_epochs": 3,
    "saturation_window": 2,
    "saturation_min_growth": 4
  }
})";

TEST(StreamScenario, ParsesStreamBlock) {
  const ScenarioSpec s = parse_scenario(kStreamSpec);
  EXPECT_EQ(s.mode, "stream");
  EXPECT_EQ(s.stream.rate, (std::vector<double>{0.5, 2.0}));
  EXPECT_EQ(s.stream.process, "poisson");
  EXPECT_EQ(s.stream.buffer, (std::vector<std::uint32_t>{8}));
  EXPECT_EQ(s.stream.policy,
            (std::vector<std::string>{"drop_new", "backpressure"}));
  EXPECT_EQ(s.stream.batch_capacity, 8u);
  EXPECT_EQ(s.stream.horizon_epochs, 3u);
  EXPECT_EQ(s.stream.saturation_window, 2u);
  EXPECT_EQ(s.stream.saturation_min_growth, 4u);
}

TEST(StreamScenario, RoundTripIsAFixedPoint) {
  const ScenarioSpec s1 = parse_scenario(kStreamSpec);
  const std::string canonical = serialize_scenario(s1);
  const ScenarioSpec s2 = parse_scenario(canonical);
  EXPECT_EQ(serialize_scenario(s2), canonical);
}

TEST(StreamScenario, StreamBlockOnlyLegalInStreamMode) {
  // A "stream" key under any other mode is a spec error, not a silently
  // ignored block — this is what lets closed-mode canonical forms (and
  // therefore every pinned digest) stay free of stream keys.
  EXPECT_THROW(parse_scenario(R"({"id":"x","stream":{"rate":[1.0]}})"),
               JsonError);
  EXPECT_THROW(
      parse_scenario(
          R"({"id":"x","mode":"dynamic","dynamic":{"load":[1.0]},"stream":{"rate":[1.0]}})"),
      JsonError);
}

TEST(StreamScenario, ClosedModeCanonicalFormHasNoStreamKeys) {
  // Digest-compatibility guarantee: adding the stream layer must not move
  // a byte in any closed-mode spec serialization.
  const ScenarioSpec kb = parse_scenario(R"({"id": "x"})");
  EXPECT_EQ(serialize_scenario(kb).find("stream"), std::string::npos);
  const ScenarioSpec dyn =
      parse_scenario(R"({"id":"x","mode":"dynamic","dynamic":{"load":[0.5]}})");
  EXPECT_EQ(serialize_scenario(dyn).find("stream"), std::string::npos);
  // And the stream canonical form does carry the block.
  const ScenarioSpec st = parse_scenario(kStreamSpec);
  EXPECT_NE(serialize_scenario(st).find("\"stream\""), std::string::npos);
}

TEST(StreamScenario, ValidationCatchesBadValues) {
  const auto with = [](const std::string& body) {
    return R"({"id":"x","mode":"stream","stream":{)" + body + "}}";
  };
  EXPECT_THROW(parse_scenario(with(R"("rate":[0.0])")), JsonError);
  EXPECT_THROW(parse_scenario(with(R"("rate":[32.0])")), JsonError);
  EXPECT_THROW(parse_scenario(with(R"("process":"uniform")")), JsonError);
  EXPECT_THROW(parse_scenario(with(R"("policy":["tail_drop"])")), JsonError);
  EXPECT_THROW(parse_scenario(with(R"("buffer":[0])")), JsonError);
  EXPECT_THROW(parse_scenario(with(R"("horizon_epochs":0)")), JsonError);
  EXPECT_THROW(parse_scenario(with(R"("saturation_window":0)")), JsonError);
  EXPECT_THROW(parse_scenario(with(R"("rates":[1.0])")), JsonError);  // unknown key
  // Closed-run ablation axes do not exist here.
  EXPECT_THROW(parse_scenario(R"({"id":"x","mode":"stream","loss":[0.1]})"),
               JsonError);
  EXPECT_THROW(
      parse_scenario(R"({"id":"x","mode":"stream","collision_detection":[true]})"),
      JsonError);
  EXPECT_THROW(
      parse_scenario(
          R"({"id":"x","mode":"stream","telemetry":{"enabled":true,"flight_paths":true}})"),
      JsonError);
  // Defaults alone are a valid stream scenario.
  EXPECT_NO_THROW(parse_scenario(R"({"id":"x","mode":"stream"})"));
}

TEST(StreamScenario, ArrivalSeedStreamIsDisjointFromClosedStreams) {
  // arrival_seed gets its own offset lane: for any realistic trial count
  // it collides with none of the placement / run / fault formulas, so the
  // closed modes keep drawing exactly the numbers they always drew.
  const ScenarioSpec s = parse_scenario(kStreamSpec);
  EXPECT_EQ(arrival_seed(s, 0), 300u + 777u);
  EXPECT_EQ(arrival_seed(s, 4), 300u + 777u + 4u);
  for (int t = 0; t < 64; ++t) {
    EXPECT_NE(arrival_seed(s, t), placement_seed(s, t));
    EXPECT_NE(arrival_seed(s, t), run_seed(s, t));
    EXPECT_NE(arrival_seed(s, t), fault_seed(s, t));
  }
}

TEST(StreamScenario, RunIsByteIdenticalAcrossThreads) {
  ScenarioSpec spec = parse_scenario(kStreamSpec);
  spec.threads = 1;
  const ScenarioOutcome base = run_scenario(spec);
  spec.threads = 4;
  const ScenarioOutcome threaded = run_scenario(spec);
  EXPECT_EQ(json_serialize(base.results), json_serialize(threaded.results));
  EXPECT_EQ(manifest_digest(base.manifest), manifest_digest(threaded.manifest));
  EXPECT_EQ(base.telemetry, threaded.telemetry);
  ASSERT_FALSE(base.telemetry.empty());
}

TEST(StreamScenario, ManifestCarriesArrivalSeedsOnlyInStreamMode) {
  const ScenarioOutcome st = run_scenario(parse_scenario(kStreamSpec));
  const JsonObject& grid =
      st.manifest.as_object().find("seed_grid")->as_object();
  const JsonValue* arrival = grid.find("arrival_seeds");
  ASSERT_NE(arrival, nullptr);
  ASSERT_EQ(arrival->as_array().size(), 2u);
  EXPECT_EQ(arrival->as_array()[0].as_uint(), 300u + 777u);

  const ScenarioOutcome kb = run_scenario(parse_scenario(R"({
    "id": "t_closed", "algos": ["coded"], "k": [4], "seeds": 1,
    "topology": { "family": "geometric", "n": 16, "seed": 5, "radius": 0.5 }
  })"));
  const JsonObject& kb_grid =
      kb.manifest.as_object().find("seed_grid")->as_object();
  EXPECT_EQ(kb_grid.find("arrival_seeds"), nullptr);
}

TEST(StreamScenario, AuditedCellsReportNoViolations) {
  const ScenarioOutcome out = run_scenario(parse_scenario(kStreamSpec));
  EXPECT_TRUE(out.audit_violations.empty());
}

}  // namespace
}  // namespace radiocast::exp
