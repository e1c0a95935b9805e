// Scenario spec parsing: round-trip, strict unknown-key rejection,
// validation, and the derived seed grid.
#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include <string>

#include "graph/generators.hpp"

namespace radiocast::exp {
namespace {

constexpr const char* kFullSpec = R"({
  "id": "t1",
  "title": "a title",
  "claim": "a claim",
  "mode": "kbroadcast",
  "topology": { "family": "geometric", "n": 32, "seed": 9, "radius": 0.4 },
  "knowledge": { "mode": "padded", "poly_power": 1.5, "d_factor": 2.0 },
  "placement": ["random", "spread_even"],
  "payload_bytes": 8,
  "algos": ["coded", "uncoded"],
  "k": [4, 16],
  "loss": [0.0, 0.1],
  "collision_detection": [false, true],
  "seeds": 2,
  "seed_base": 77,
  "max_rounds": 1000,
  "audit": true,
  "report": { "pivot": "algo", "values": ["r_per_pkt"], "ratio": "uncoded/coded:r_per_pkt" }
})";

TEST(Scenario, ParsesFullSpec) {
  const ScenarioSpec s = parse_scenario(kFullSpec);
  EXPECT_EQ(s.id, "t1");
  EXPECT_EQ(s.topology.family, "geometric");
  EXPECT_EQ(s.topology.n, 32u);
  EXPECT_DOUBLE_EQ(s.topology.radius, 0.4);
  EXPECT_EQ(s.knowledge.mode, "padded");
  EXPECT_EQ(s.placement, (std::vector<std::string>{"random", "spread_even"}));
  EXPECT_EQ(s.algos, (std::vector<std::string>{"coded", "uncoded"}));
  EXPECT_EQ(s.k, (std::vector<std::uint32_t>{4, 16}));
  EXPECT_EQ(s.loss, (std::vector<double>{0.0, 0.1}));
  EXPECT_EQ(s.collision_detection, (std::vector<bool>{false, true}));
  EXPECT_EQ(s.seeds, 2);
  EXPECT_EQ(s.seed_base, 77u);
  EXPECT_TRUE(s.audit);
  EXPECT_EQ(s.report.pivot, "algo");
  EXPECT_EQ(s.report.ratio, "uncoded/coded:r_per_pkt");
}

TEST(Scenario, RoundTripParseSerializeParse) {
  const ScenarioSpec s1 = parse_scenario(kFullSpec);
  const std::string canonical = serialize_scenario(s1);
  const ScenarioSpec s2 = parse_scenario(canonical);
  // The canonical form is a fixed point: serializing again is byte-equal.
  EXPECT_EQ(serialize_scenario(s2), canonical);
  EXPECT_EQ(scenario_to_json(s1), scenario_to_json(s2));
}

TEST(Scenario, MinimalSpecGetsDefaults) {
  const ScenarioSpec s = parse_scenario(R"({"id": "mini"})");
  EXPECT_EQ(s.mode, "kbroadcast");
  EXPECT_EQ(s.topology.family, "geometric");
  EXPECT_EQ(s.placement, std::vector<std::string>{"random"});
  EXPECT_EQ(s.algos, std::vector<std::string>{"coded"});
  EXPECT_EQ(s.k, std::vector<std::uint32_t>{16});
  EXPECT_EQ(s.seeds, 3);
  // Serialization materializes every default explicitly.
  const std::string canonical = serialize_scenario(s);
  EXPECT_NE(canonical.find("\"payload_bytes\": 16"), std::string::npos) << canonical;
}

TEST(Scenario, ScalarAxesPromoteToSingletonLists) {
  const ScenarioSpec s = parse_scenario(R"({"id": "x", "k": 8, "algos": "seq_bgi"})");
  EXPECT_EQ(s.k, std::vector<std::uint32_t>{8});
  EXPECT_EQ(s.algos, std::vector<std::string>{"seq_bgi"});
  const ScenarioSpec s2 = parse_scenario(R"({"id": "x", "loss": 0.05})");
  EXPECT_EQ(s2.loss, std::vector<double>{0.05});
}

TEST(Scenario, KnowledgeStringShorthand) {
  const ScenarioSpec s = parse_scenario(R"({"id": "x", "knowledge": "padded"})");
  EXPECT_EQ(s.knowledge.mode, "padded");
}

TEST(Scenario, RejectsUnknownTopLevelKey) {
  EXPECT_THROW(parse_scenario(R"({"id": "x", "kk": [4]})"), JsonError);
  try {
    parse_scenario(R"({"id": "x", "seed": 3})");  // typo for seed_base
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
  }
  EXPECT_THROW(parse_scenario(R"({"id": "x", "shards": 2})"), JsonError);  // not a key
}

TEST(Scenario, RejectsUnknownNestedKeys) {
  EXPECT_THROW(parse_scenario(R"({"id":"x","topology":{"radius":0.3,"nn":4}})"),
               JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","knowledge":{"mode":"exact","pow":2}})"),
               JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","report":{"pivots":"algo"}})"), JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","dynamic":{"loads":[1.0]}})"), JsonError);
}

TEST(Scenario, ValidationCatchesBadValues) {
  EXPECT_THROW(parse_scenario(R"({"id": ""})"), JsonError);           // id required
  EXPECT_THROW(parse_scenario(R"({"id": "a b"})"), JsonError);        // id charset
  EXPECT_THROW(parse_scenario(R"({"id":"x","mode":"warp"})"), JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","algos":["quantum"]})"), JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","placement":["center"]})"), JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","k":[0]})"), JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","loss":[1.5]})"), JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","seeds":0})"), JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","topology":{"family":"moebius"}})"),
               JsonError);
}

TEST(Scenario, RejectsTopologiesTooSmallForTheirFamily) {
  const auto error = [](const std::string& topology) {
    try {
      parse_scenario(R"({"id":"x","topology":)" + topology + "}");
    } catch (const JsonError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // Families whose shape make_named derives from n need n >= 4 (barbell:
  // two 3-cliques, n >= 6); the error names the family and its minimum.
  for (const std::string& family : graph::named_families()) {
    const std::uint32_t min_n = graph::named_min_nodes(family);
    const std::string too_small = R"({"family":")" + family + R"(","n":)" +
                                  std::to_string(min_n - 1) + "}";
    EXPECT_NE(error(too_small).find("topology.n must be >= " + std::to_string(min_n) +
                                    " for family \"" + family + "\""),
              std::string::npos)
        << too_small;
    EXPECT_EQ(error(R"({"family":")" + family + R"(","n":)" + std::to_string(min_n) + "}"),
              "");
  }
  EXPECT_NE(error(R"({"family":"path","n":3})"), "");
  EXPECT_NE(error(R"({"family":"barbell","n":5})"), "");
  EXPECT_NE(error(R"({"family":"barbell","n":4})"), "");
  // An explicit shape knob bypasses make_named, so only n >= 2 applies.
  EXPECT_EQ(error(R"({"family":"geometric","n":3,"radius":0.9})"), "");
  EXPECT_EQ(error(R"({"family":"gnp","n":2,"p":0.9})"), "");
  EXPECT_EQ(error(R"({"family":"cluster_chain","n":3,"clique_size":2})"), "");
  EXPECT_NE(error(R"({"family":"geometric","n":1,"radius":0.9})"), "");
}

TEST(Scenario, RejectsClosedRunsWhoseHeldPacketsCannotFit) {
  const auto error = [](const std::string& fields) {
    try {
      parse_scenario(R"({"id":"x","topology":{"family":"path","n":5},)" + fields + "}");
    } catch (const JsonError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // 5 nodes * 4e9 packets * (16 + 8) bytes = 447 GiB of held packets.
  const std::string big = error(R"("k":[4, 4000000000])");
  EXPECT_NE(big.find("held packets need about 447"), std::string::npos) << big;
  EXPECT_NE(big.find("64 GiB pre-flight limit"), std::string::npos) << big;
  // The floor is n * max(k) * (payload_bytes + 8): the largest k that fits
  // passes, one more packet per node does not.
  const std::uint64_t fit = kMaxHeldPacketBytes / (5 * (100 + 8));
  EXPECT_EQ(error(R"("payload_bytes":100,"k":[)" + std::to_string(fit) + "]"), "");
  EXPECT_NE(error(R"("payload_bytes":100,"k":[)" + std::to_string(fit + 1) + "]"), "");
  // Open-system modes size their batches per epoch; the check is closed-run only.
  EXPECT_EQ(error(R"("mode":"stream","k":[4000000000])"), "");
}

TEST(Scenario, FaultAndAuditAxesRequirePipelineAlgos) {
  // seq_bgi/gossip run through run_algo, which has no fault/CD/audit taps;
  // silently dropping those axes would fabricate results.
  EXPECT_THROW(parse_scenario(R"({"id":"x","algos":["seq_bgi"],"loss":[0.1]})"),
               JsonError);
  EXPECT_THROW(
      parse_scenario(R"({"id":"x","algos":["gossip"],"collision_detection":[true]})"),
      JsonError);
  EXPECT_THROW(parse_scenario(R"({"id":"x","algos":["seq_bgi"],"audit":true})"),
               JsonError);
  // ...but the same axes are fine on the pipelines.
  EXPECT_NO_THROW(parse_scenario(R"({"id":"x","algos":["coded"],"loss":[0.1]})"));
}

TEST(Scenario, ThreadsIsExcludedFromCanonicalForm) {
  // threads is an execution knob: two runs differing only in thread budget
  // must produce identical spec digests.
  ScenarioSpec a = parse_scenario(R"({"id": "x"})");
  ScenarioSpec b = a;
  b.threads = 7;
  EXPECT_EQ(serialize_scenario(a), serialize_scenario(b));
}

TEST(Scenario, EngineKnobParsesValidatesAndSerializes) {
  // "engine" survives only as the constant "scalar": the canonical form
  // always carries it, so spec digests made when the spec could name a
  // second kernel stay valid.
  const std::string plain = serialize_scenario(parse_scenario(R"({"id": "x"})"));
  EXPECT_NE(plain.find(R"("engine": "scalar")"), std::string::npos) << plain;
  EXPECT_EQ(serialize_scenario(parse_scenario(R"({"id":"x","engine":"scalar"})")), plain);
  EXPECT_EQ(serialize_scenario(parse_scenario(plain)), plain);
  // Any other value, including the retired bit-parallel kernel, is refused.
  for (const char* spec : {R"({"id":"x","engine":"bitset"})",
                           R"({"id":"x","engine":"vector"})",
                           R"({"id":"x","mode":"stream","engine":"bitset"})"}) {
    try {
      parse_scenario(spec);
      ADD_FAILURE() << "accepted " << spec;
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find(R"(only "scalar" exists)"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Scenario, RejectsTopologiesWithTooManyExpectedEdges) {
  const auto error = [](const std::string& topology, const std::string& rest = "") {
    try {
      parse_scenario(R"({"id":"x","topology":)" + topology + rest + "}");
    } catch (const JsonError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const auto over = [&](const std::string& topology, const std::string& rest = "") {
    return error(topology, rest).find("topology expects about") != std::string::npos;
  };
  // G(100000, 0.5) expects 0.5 * 100000 * 99999 / 2 edges.
  const std::string gnp = error(R"({"family":"gnp","n":100000,"p":0.5})");
  EXPECT_NE(gnp.find("topology expects about 2499975000 edges"), std::string::npos) << gnp;
  EXPECT_NE(gnp.find(std::to_string(kMaxExpectedEdges) + "-edge pre-flight limit"),
            std::string::npos)
      << gnp;
  // p * n(n-1)/2 at p = 1: n = 46341 has 1073720970 <= 2^30 pairs, n = 46342
  // has 1073767311 > 2^30.
  EXPECT_EQ(error(R"({"family":"gnp","n":46341,"p":1.0})"), "");
  EXPECT_TRUE(over(R"({"family":"gnp","n":46342,"p":1.0})"));
  // Geometric with an explicit radius: n(n-1)/2 * min(1, pi r^2), in every mode.
  EXPECT_TRUE(over(R"({"family":"geometric","n":100000,"radius":0.5})"));
  EXPECT_TRUE(over(R"({"family":"geometric","n":50000,"radius":2.0})", R"(,"mode":"stream")"));
  EXPECT_EQ(error(R"({"family":"geometric","n":46341,"radius":2.0})"), "");
  // The default-shape families derive sparse graphs from n alone.
  EXPECT_EQ(error(R"({"family":"gnp","n":100000})"), "");
  EXPECT_EQ(error(R"({"family":"geometric","n":100000})"), "");
  // The radiobench workload shapes (pipeline, coding, stream) stay valid.
  EXPECT_EQ(error(R"({"family":"geometric","n":2000,"radius":0.06})", R"(,"k":[64])"), "");
  EXPECT_EQ(error(R"({"family":"geometric","n":128,"radius":0.21})",
                  R"(,"k":[1024],"payload_bytes":1024)"),
            "");
  EXPECT_EQ(error(R"({"family":"geometric","n":256,"radius":0.14})",
                  R"(,"mode":"stream","stream":{"rate":[0.5]})"),
            "");
}

TEST(Scenario, RejectsDenseNamedShapesOverTheEdgeLimit) {
  const auto error = [](const std::string& family, std::uint32_t n) {
    try {
      parse_scenario(R"({"id":"x","topology":{"family":")" + family +
                     R"(","n":)" + std::to_string(n) + "}}");
    } catch (const JsonError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // complete: n(n-1)/2 edges; n = 46341 fits 2^30, n = 46342 does not.
  const std::string complete = error("complete", 100000);
  EXPECT_NE(complete.find("topology expects about 4999950000 edges"), std::string::npos)
      << complete;
  EXPECT_EQ(error("complete", 46341), "");
  EXPECT_NE(error("complete", 46342), "");
  // barbell: two cliques of n/4 plus the joining path. n = 131071 builds
  // 1073709060 edges, n = 131072 builds 1073774593 > 2^30.
  EXPECT_EQ(error("barbell", 100000), "");
  EXPECT_EQ(error("barbell", 131071), "");
  const std::string barbell = error("barbell", 131072);
  EXPECT_NE(barbell.find("topology expects about 1073774593 edges"), std::string::npos)
      << barbell;
}

TEST(Scenario, SeedGridIsPureFunctionOfSeedBase) {
  const ScenarioSpec s = parse_scenario(R"({"id": "x", "seed_base": 1000})");
  // Formulas are pinned to the historical bench_util ones.
  EXPECT_EQ(placement_seed(s, 0), 1000u);
  EXPECT_EQ(placement_seed(s, 2), 1000u + 17u * 2u);
  EXPECT_EQ(run_seed(s, 3), 1000u + 1000u + 3u);
  EXPECT_EQ(fault_seed(s, 1), 1000u + 555u + 1u);
}

}  // namespace
}  // namespace radiocast::exp
