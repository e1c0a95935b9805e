#include "exp/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <numbers>

#include "graph/generators.hpp"
#include "stream/arrivals.hpp"
#include "stream/queue.hpp"

namespace radiocast::exp {

namespace {

/// Rejects members of `obj` outside `allowed`; `ctx` prefixes the error.
void reject_unknown_keys(const JsonObject& obj, std::string_view ctx,
                         std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : obj.members()) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw JsonError(std::string(ctx) + ": unknown key \"" + key + "\"");
    }
  }
}

std::string path(std::string_view ctx, std::string_view key) {
  return std::string(ctx) + "." + std::string(key);
}

template <typename T, typename Fn>
void opt(const JsonObject& obj, std::string_view ctx, std::string_view key, T& out,
         Fn&& get) {
  const JsonValue* v = obj.find(key);
  if (v != nullptr) out = get(*v, path(ctx, key));
}

void opt_string(const JsonObject& o, std::string_view ctx, std::string_view key,
                std::string& out) {
  opt(o, ctx, key, out,
      [](const JsonValue& v, const std::string& p) { return v.as_string(p); });
}
void opt_u32(const JsonObject& o, std::string_view ctx, std::string_view key,
             std::uint32_t& out) {
  opt(o, ctx, key, out, [](const JsonValue& v, const std::string& p) {
    const std::uint64_t x = v.as_uint(p);
    if (x > UINT32_MAX) throw JsonError(p + ": value too large");
    return static_cast<std::uint32_t>(x);
  });
}
void opt_u64(const JsonObject& o, std::string_view ctx, std::string_view key,
             std::uint64_t& out) {
  opt(o, ctx, key, out,
      [](const JsonValue& v, const std::string& p) { return v.as_uint(p); });
}
void opt_int(const JsonObject& o, std::string_view ctx, std::string_view key, int& out) {
  opt(o, ctx, key, out, [](const JsonValue& v, const std::string& p) {
    const std::int64_t x = v.as_int(p);
    if (x < INT32_MIN || x > INT32_MAX) throw JsonError(p + ": value out of range");
    return static_cast<int>(x);
  });
}
void opt_double(const JsonObject& o, std::string_view ctx, std::string_view key,
                double& out) {
  opt(o, ctx, key, out,
      [](const JsonValue& v, const std::string& p) { return v.as_double(p); });
}
void opt_bool(const JsonObject& o, std::string_view ctx, std::string_view key, bool& out) {
  opt(o, ctx, key, out,
      [](const JsonValue& v, const std::string& p) { return v.as_bool(p); });
}

/// String list that may be empty (report.values / report.columns — these
/// are presentation hints, not grid axes).
void opt_string_list(const JsonObject& o, std::string_view ctx, std::string_view key,
                     std::vector<std::string>& out) {
  const JsonValue* v = o.find(key);
  if (v == nullptr) return;
  const std::string p = path(ctx, key);
  out.clear();
  if (v->is_string()) {
    out.push_back(v->as_string(p));
    return;
  }
  for (const JsonValue& e : v->as_array(p)) out.push_back(e.as_string(p));
}

/// Array-or-scalar axis: "k": 16 and "k": [16, 32] both parse.
template <typename T, typename Fn>
void opt_axis(const JsonObject& o, std::string_view ctx, std::string_view key,
              std::vector<T>& out, Fn&& get) {
  const JsonValue* v = o.find(key);
  if (v == nullptr) return;
  const std::string p = path(ctx, key);
  out.clear();
  if (v->is_array()) {
    if (v->as_array().empty()) throw JsonError(p + ": axis must not be empty");
    std::size_t i = 0;
    for (const JsonValue& e : v->as_array()) {
      out.push_back(get(e, p + "[" + std::to_string(i) + "]"));
      ++i;
    }
  } else {
    out.push_back(get(*v, p));
  }
}

TopologySpec parse_topology(const JsonValue& v, std::string_view ctx) {
  const JsonObject& o = v.as_object(ctx);
  reject_unknown_keys(o, ctx, {"family", "n", "seed", "radius", "p", "clique_size"});
  TopologySpec t;
  opt_string(o, ctx, "family", t.family);
  opt_u32(o, ctx, "n", t.n);
  opt_u64(o, ctx, "seed", t.seed);
  opt_double(o, ctx, "radius", t.radius);
  opt_double(o, ctx, "p", t.p);
  opt_u32(o, ctx, "clique_size", t.clique_size);
  return t;
}

KnowledgeSpec parse_knowledge(const JsonValue& v, std::string_view ctx) {
  KnowledgeSpec k;
  if (v.is_string()) {  // shorthand: "knowledge": "exact"
    k.mode = v.as_string(ctx);
    return k;
  }
  const JsonObject& o = v.as_object(ctx);
  reject_unknown_keys(o, ctx, {"mode", "poly_power", "d_factor"});
  opt_string(o, ctx, "mode", k.mode);
  opt_double(o, ctx, "poly_power", k.poly_power);
  opt_double(o, ctx, "d_factor", k.d_factor);
  return k;
}

ReportSpec parse_report(const JsonValue& v, std::string_view ctx) {
  const JsonObject& o = v.as_object(ctx);
  reject_unknown_keys(o, ctx, {"pivot", "values", "ratio", "columns"});
  ReportSpec r;
  opt_string(o, ctx, "pivot", r.pivot);
  opt_string_list(o, ctx, "values", r.values);
  opt_string(o, ctx, "ratio", r.ratio);
  opt_string_list(o, ctx, "columns", r.columns);
  return r;
}

TelemetrySpec parse_telemetry(const JsonValue& v, std::string_view ctx) {
  TelemetrySpec t;
  if (v.is_bool()) {  // shorthand: "telemetry": true
    t.enabled = v.as_bool(ctx);
    return t;
  }
  const JsonObject& o = v.as_object(ctx);
  reject_unknown_keys(o, ctx,
                      {"enabled", "flight_paths", "ledger_rounds", "max_flight_events"});
  opt_bool(o, ctx, "enabled", t.enabled);
  opt_bool(o, ctx, "flight_paths", t.flight_paths);
  opt_u64(o, ctx, "ledger_rounds", t.ledger_rounds);
  opt_u64(o, ctx, "max_flight_events", t.max_flight_events);
  return t;
}

StreamSpec parse_stream(const JsonValue& v, std::string_view ctx) {
  const JsonObject& o = v.as_object(ctx);
  reject_unknown_keys(o, ctx,
                      {"rate", "process", "buffer", "policy", "batch_capacity",
                       "horizon_epochs", "saturation_window",
                       "saturation_min_growth"});
  StreamSpec s;
  opt_axis(o, ctx, "rate", s.rate,
           [](const JsonValue& e, const std::string& p) { return e.as_double(p); });
  opt_string(o, ctx, "process", s.process);
  opt_axis(o, ctx, "buffer", s.buffer,
           [](const JsonValue& e, const std::string& p) {
             const std::uint64_t x = e.as_uint(p);
             if (x > UINT32_MAX) throw JsonError(p + ": value too large");
             return static_cast<std::uint32_t>(x);
           });
  opt_axis(o, ctx, "policy", s.policy,
           [](const JsonValue& e, const std::string& p) { return e.as_string(p); });
  opt_u32(o, ctx, "batch_capacity", s.batch_capacity);
  opt_u32(o, ctx, "horizon_epochs", s.horizon_epochs);
  opt_u32(o, ctx, "saturation_window", s.saturation_window);
  opt_u64(o, ctx, "saturation_min_growth", s.saturation_min_growth);
  return s;
}

DynamicSpec parse_dynamic(const JsonValue& v, std::string_view ctx) {
  const JsonObject& o = v.as_object(ctx);
  reject_unknown_keys(o, ctx, {"load", "batch_capacity", "arrival_epochs"});
  DynamicSpec d;
  opt_axis(o, ctx, "load", d.load,
           [](const JsonValue& e, const std::string& p) { return e.as_double(p); });
  opt_u32(o, ctx, "batch_capacity", d.batch_capacity);
  opt_u32(o, ctx, "arrival_epochs", d.arrival_epochs);
  return d;
}

JsonValue axis_to_json(const std::vector<std::string>& a) {
  std::vector<JsonValue> out(a.begin(), a.end());
  return JsonValue(std::move(out));
}
JsonValue axis_to_json(const std::vector<std::uint32_t>& a) {
  std::vector<JsonValue> out;
  for (const std::uint32_t v : a) out.emplace_back(static_cast<std::uint64_t>(v));
  return JsonValue(std::move(out));
}
JsonValue axis_to_json(const std::vector<double>& a) {
  std::vector<JsonValue> out;
  for (const double v : a) out.emplace_back(v);
  return JsonValue(std::move(out));
}
JsonValue axis_to_json(const std::vector<bool>& a) {
  std::vector<JsonValue> out;
  for (const bool v : a) out.emplace_back(v);
  return JsonValue(std::move(out));
}

}  // namespace

ScenarioSpec parse_scenario(std::string_view json_text) {
  const JsonValue doc = json_parse(json_text);
  const JsonObject& o = doc.as_object("scenario");
  reject_unknown_keys(
      o, "scenario",
      {"id", "title", "claim", "mode", "topology", "knowledge", "placement",
       "payload_bytes", "algos", "k", "loss", "collision_detection", "seeds",
       "seed_base", "max_rounds", "audit", "engine", "threads", "telemetry",
       "dynamic", "stream", "report"});

  ScenarioSpec s;
  opt_string(o, "scenario", "id", s.id);
  opt_string(o, "scenario", "title", s.title);
  opt_string(o, "scenario", "claim", s.claim);
  opt_string(o, "scenario", "mode", s.mode);
  if (const JsonValue* v = o.find("topology"))
    s.topology = parse_topology(*v, "scenario.topology");
  if (const JsonValue* v = o.find("knowledge"))
    s.knowledge = parse_knowledge(*v, "scenario.knowledge");
  opt_axis(o, "scenario", "placement", s.placement,
           [](const JsonValue& e, const std::string& p) { return e.as_string(p); });
  opt_u32(o, "scenario", "payload_bytes", s.payload_bytes);
  opt_axis(o, "scenario", "algos", s.algos,
           [](const JsonValue& e, const std::string& p) { return e.as_string(p); });
  opt_axis(o, "scenario", "k", s.k, [](const JsonValue& e, const std::string& p) {
    const std::uint64_t x = e.as_uint(p);
    if (x > UINT32_MAX) throw JsonError(p + ": value too large");
    return static_cast<std::uint32_t>(x);
  });
  opt_axis(o, "scenario", "loss", s.loss,
           [](const JsonValue& e, const std::string& p) { return e.as_double(p); });
  opt_axis(o, "scenario", "collision_detection", s.collision_detection,
           [](const JsonValue& e, const std::string& p) { return e.as_bool(p); });
  opt_int(o, "scenario", "seeds", s.seeds);
  opt_u64(o, "scenario", "seed_base", s.seed_base);
  opt_u64(o, "scenario", "max_rounds", s.max_rounds);
  opt_bool(o, "scenario", "audit", s.audit);
  std::string engine = kEngineName;
  opt_string(o, "scenario", "engine", engine);
  if (engine != kEngineName)
    throw JsonError("scenario.engine: only \"scalar\" exists (got \"" + engine + "\")");
  opt_int(o, "scenario", "threads", s.threads);
  if (const JsonValue* v = o.find("telemetry"))
    s.telemetry = parse_telemetry(*v, "scenario.telemetry");
  if (const JsonValue* v = o.find("dynamic"))
    s.dynamic = parse_dynamic(*v, "scenario.dynamic");
  if (const JsonValue* v = o.find("stream")) {
    // Only legal in stream mode: the block is not serialized elsewhere
    // (see scenario_to_json), so accepting it in other modes would break
    // the parse(serialize(s)) == s round trip.
    if (s.mode != "stream")
      throw JsonError("scenario.stream: only allowed with mode \"stream\"");
    s.stream = parse_stream(*v, "scenario.stream");
  }
  if (const JsonValue* v = o.find("report")) s.report = parse_report(*v, "scenario.report");

  validate_scenario(s);
  return s;
}

JsonValue scenario_to_json(const ScenarioSpec& s) {
  JsonObject topo;
  topo.set("family", s.topology.family);
  topo.set("n", static_cast<std::uint64_t>(s.topology.n));
  topo.set("seed", s.topology.seed);
  topo.set("radius", s.topology.radius);
  topo.set("p", s.topology.p);
  topo.set("clique_size", static_cast<std::uint64_t>(s.topology.clique_size));

  JsonObject know;
  know.set("mode", s.knowledge.mode);
  know.set("poly_power", s.knowledge.poly_power);
  know.set("d_factor", s.knowledge.d_factor);

  JsonObject dyn;
  dyn.set("load", axis_to_json(s.dynamic.load));
  dyn.set("batch_capacity", static_cast<std::uint64_t>(s.dynamic.batch_capacity));
  dyn.set("arrival_epochs", static_cast<std::uint64_t>(s.dynamic.arrival_epochs));

  JsonObject report;
  report.set("pivot", s.report.pivot);
  report.set("values", axis_to_json(s.report.values));
  report.set("ratio", s.report.ratio);
  report.set("columns", axis_to_json(s.report.columns));

  JsonObject telem;
  telem.set("enabled", s.telemetry.enabled);
  telem.set("flight_paths", s.telemetry.flight_paths);
  telem.set("ledger_rounds", s.telemetry.ledger_rounds);
  telem.set("max_flight_events", s.telemetry.max_flight_events);

  JsonObject o;
  o.set("id", s.id);
  o.set("title", s.title);
  o.set("claim", s.claim);
  o.set("mode", s.mode);
  o.set("topology", JsonValue(std::move(topo)));
  o.set("knowledge", JsonValue(std::move(know)));
  o.set("placement", axis_to_json(s.placement));
  o.set("payload_bytes", static_cast<std::uint64_t>(s.payload_bytes));
  o.set("algos", axis_to_json(s.algos));
  o.set("k", axis_to_json(s.k));
  o.set("loss", axis_to_json(s.loss));
  o.set("collision_detection", axis_to_json(s.collision_detection));
  o.set("seeds", static_cast<std::int64_t>(s.seeds));
  o.set("seed_base", s.seed_base);
  o.set("max_rounds", s.max_rounds);
  o.set("audit", s.audit);
  // "engine" is a constant kept only so existing spec digests stay valid
  // (see kEngineName).
  o.set("engine", kEngineName);
  // "threads" is deliberately absent: it is an execution knob, not part
  // of the experiment's identity, so it may not perturb spec digests.
  o.set("telemetry", JsonValue(std::move(telem)));
  o.set("dynamic", JsonValue(std::move(dyn)));
  // The "stream" block is emitted only in stream mode — a deliberate
  // asymmetry with the always-emitted "dynamic" block: the key arrived
  // after digests of kbroadcast/dynamic scenarios were pinned in CI
  // baselines and published tables, and emitting it unconditionally would
  // change every one of them. parse_scenario enforces the same rule on
  // input, keeping parse(serialize(s)) == s.
  if (s.mode == "stream") {
    JsonObject stream;
    stream.set("rate", axis_to_json(s.stream.rate));
    stream.set("process", s.stream.process);
    stream.set("buffer", axis_to_json(s.stream.buffer));
    stream.set("policy", axis_to_json(s.stream.policy));
    stream.set("batch_capacity", static_cast<std::uint64_t>(s.stream.batch_capacity));
    stream.set("horizon_epochs", static_cast<std::uint64_t>(s.stream.horizon_epochs));
    stream.set("saturation_window",
               static_cast<std::uint64_t>(s.stream.saturation_window));
    stream.set("saturation_min_growth", s.stream.saturation_min_growth);
    o.set("stream", JsonValue(std::move(stream)));
  }
  o.set("report", JsonValue(std::move(report)));
  return JsonValue(std::move(o));
}

std::string serialize_scenario(const ScenarioSpec& spec) {
  return json_serialize(scenario_to_json(spec), 2);
}

void validate_scenario(const ScenarioSpec& s) {
  const auto fail = [](const std::string& msg) { throw JsonError("scenario: " + msg); };

  if (s.id.empty()) fail("\"id\" is required");
  for (const char c : s.id) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-'))
      fail("\"id\" must be [A-Za-z0-9_-] (got \"" + s.id + "\")");
  }
  if (s.mode != "kbroadcast" && s.mode != "dynamic" && s.mode != "stream")
    fail("mode must be \"kbroadcast\", \"dynamic\" or \"stream\"");

  const auto& families = graph::named_families();
  if (std::find(families.begin(), families.end(), s.topology.family) == families.end())
    fail("unknown topology.family \"" + s.topology.family + "\"");
  if (s.topology.n < 2) fail("topology.n must be >= 2");
  if (s.topology.named_shape() && s.topology.n < graph::named_min_nodes(s.topology.family))
    fail("topology.n must be >= " + std::to_string(graph::named_min_nodes(s.topology.family)) +
         " for family \"" + s.topology.family + "\"");
  if (s.topology.radius < 0 || s.topology.radius > 2.0) fail("topology.radius out of range");
  if (s.topology.p < 0 || s.topology.p > 1.0) fail("topology.p out of range");
  {
    const double pairs =
        static_cast<double>(s.topology.n) * (static_cast<double>(s.topology.n) - 1) / 2;
    double edges = 0;
    if (s.topology.family == "gnp") edges = s.topology.p * pairs;
    if (s.topology.family == "geometric")
      edges = pairs * std::min(1.0, std::numbers::pi * s.topology.radius * s.topology.radius);
    edges = std::max(edges, static_cast<double>(graph::named_dense_edges(
                                s.topology.family, s.topology.n)));
    if (edges > static_cast<double>(kMaxExpectedEdges))
      fail("topology expects about " + std::to_string(std::llround(edges)) +
           " edges, over the " + std::to_string(kMaxExpectedEdges) +
           "-edge pre-flight limit");
  }

  if (s.knowledge.mode != "exact" && s.knowledge.mode != "padded")
    fail("knowledge.mode must be \"exact\" or \"padded\"");
  if (s.knowledge.mode == "padded" &&
      (s.knowledge.poly_power < 1.0 || s.knowledge.poly_power > 4.0))
    fail("knowledge.poly_power must be in [1, 4]");

  if (s.placement.empty()) fail("placement axis must not be empty");
  for (const std::string& p : s.placement) {
    if (p != "random" && p != "single_source" && p != "spread_even")
      fail("placement must be random | single_source | spread_even");
  }
  if (s.payload_bytes == 0 || s.payload_bytes > 4096)
    fail("payload_bytes must be in [1, 4096]");

  if (s.seeds < 1) fail("seeds must be >= 1");
  if (s.threads < 0) fail("threads must be >= 0");

  if (s.telemetry.enabled) {
    if (s.telemetry.ledger_rounds == 0) fail("telemetry.ledger_rounds must be >= 1");
    if (s.telemetry.max_flight_events == 0)
      fail("telemetry.max_flight_events must be >= 1");
    if (s.mode == "dynamic") fail("telemetry is not supported in dynamic mode");
    // Stream telemetry is backlog/latency only; the per-packet flight log
    // is a closed-run (kbroadcast) artifact.
    if (s.mode == "stream" && s.telemetry.flight_paths)
      fail("telemetry.flight_paths is not supported in stream mode");
  }

  if (s.mode == "kbroadcast") {
    if (s.algos.empty()) fail("algos must not be empty");
    bool needs_sweep_engine = false;
    for (const std::string& a : s.algos) {
      if (a == "coded" || a == "uncoded") continue;
      if (a == "seq_bgi" || a == "gossip") {
        needs_sweep_engine = true;
        continue;
      }
      fail("unknown algo \"" + a + "\" (coded | uncoded | seq_bgi | gossip)");
    }
    if (s.k.empty()) fail("k axis must not be empty");
    for (const std::uint32_t k : s.k)
      if (k == 0) fail("k values must be >= 1");
    // n·k fits in 64 bits (both are 32-bit), so compare it against the
    // limit divided by the per-packet bytes rather than overflow the product.
    const std::uint64_t max_k = *std::max_element(s.k.begin(), s.k.end());
    const std::uint64_t packet_bytes = std::uint64_t{s.payload_bytes} + 8;
    if (s.topology.n * max_k > kMaxHeldPacketBytes / packet_bytes) {
      const double gib = static_cast<double>(s.topology.n) * static_cast<double>(max_k) *
                         static_cast<double>(packet_bytes) / (1ULL << 30);
      fail("held packets need about " + std::to_string(std::llround(gib)) +
           " GiB (topology.n * max(k) * (payload_bytes + 8) bytes), over the " +
           std::to_string(kMaxHeldPacketBytes >> 30) + " GiB pre-flight limit");
    }
    for (const double l : s.loss)
      if (l < 0 || l >= 1.0) fail("loss values must be in [0, 1)");
    // seq_bgi/gossip run through the plain run_algo entry point, which has
    // no fault/CD/audit taps — restrict the ablation axes to the pipeline
    // algorithms rather than silently ignoring them.
    const bool has_faults = std::any_of(s.loss.begin(), s.loss.end(),
                                        [](double l) { return l > 0; });
    const bool has_cd =
        std::any_of(s.collision_detection.begin(), s.collision_detection.end(),
                    [](bool b) { return b; });
    if (needs_sweep_engine && (has_faults || has_cd || s.audit))
      fail("loss > 0, collision_detection and audit require algos within "
           "{coded, uncoded}");
  } else if (s.mode == "dynamic") {
    if (s.dynamic.load.empty()) fail("dynamic.load must not be empty");
    for (const double l : s.dynamic.load)
      if (l <= 0 || l > 16) fail("dynamic.load values must be in (0, 16]");
    if (s.audit) fail("audit is not supported in dynamic mode");
  } else {  // stream
    if (s.stream.rate.empty()) fail("stream.rate must not be empty");
    for (const double r : s.stream.rate)
      if (r <= 0 || r > 16) fail("stream.rate values must be in (0, 16]");
    stream::ArrivalKind kind;
    if (!stream::arrival_kind_from_string(s.stream.process, kind))
      fail("stream.process must be \"poisson\" or \"periodic\"");
    if (s.stream.buffer.empty()) fail("stream.buffer must not be empty");
    for (const std::uint32_t b : s.stream.buffer)
      if (b == 0) fail("stream.buffer values must be >= 1");
    if (s.stream.policy.empty()) fail("stream.policy must not be empty");
    for (const std::string& p : s.stream.policy) {
      stream::BufferPolicy policy;
      if (!stream::buffer_policy_from_string(p, policy))
        fail("stream.policy must be drop_new | drop_old | backpressure");
    }
    if (s.stream.horizon_epochs == 0) fail("stream.horizon_epochs must be >= 1");
    if (s.stream.saturation_window == 0)
      fail("stream.saturation_window must be >= 1");
    // The CD/fault ablations are closed-run axes.
    const bool has_faults =
        std::any_of(s.loss.begin(), s.loss.end(), [](double l) { return l > 0; });
    const bool has_cd =
        std::any_of(s.collision_detection.begin(), s.collision_detection.end(),
                    [](bool b) { return b; });
    if (has_faults || has_cd)
      fail("loss > 0 and collision_detection are not supported in stream mode");
  }
}

std::uint64_t placement_seed(const ScenarioSpec& spec, int trial) {
  return spec.seed_base + 17 * static_cast<std::uint64_t>(trial);
}
std::uint64_t run_seed(const ScenarioSpec& spec, int trial) {
  return spec.seed_base + 1000 + static_cast<std::uint64_t>(trial);
}
std::uint64_t fault_seed(const ScenarioSpec& spec, int trial) {
  return spec.seed_base + 555 + static_cast<std::uint64_t>(trial);
}
std::uint64_t arrival_seed(const ScenarioSpec& spec, int trial) {
  return spec.seed_base + 777 + static_cast<std::uint64_t>(trial);
}

}  // namespace radiocast::exp
