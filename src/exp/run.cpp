#include "exp/run.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "audit/model_auditor.hpp"
#include "baselines/uncoded_pipeline.hpp"
#include "common/stats.hpp"
#include "core/dynamic.hpp"
#include "core/montecarlo.hpp"
#include "core/schedule.hpp"
#include "exp/manifest.hpp"
#include "gf2/simd.hpp"
#include "graph/generators.hpp"
#include "obs/export.hpp"
#include "obs/packet_trace.hpp"
#include "stream/driver.hpp"

namespace radiocast::exp {

namespace {

graph::Graph build_topology(const TopologySpec& t) {
  Rng rng(t.seed);
  if (t.named_shape()) return graph::make_named(t.family, t.n, rng);
  if (t.family == "geometric") return graph::make_random_geometric(t.n, t.radius, rng);
  if (t.family == "gnp") return graph::make_gnp_connected(t.n, t.p, rng);
  const std::uint32_t cliques = std::max<std::uint32_t>(1, t.n / t.clique_size);
  return graph::make_cluster_chain(cliques, t.clique_size);
}

radio::Knowledge build_knowledge(const KnowledgeSpec& k, const graph::Graph& g) {
  if (k.mode == "padded")
    return radio::Knowledge::padded(g, k.poly_power, k.d_factor);
  return radio::Knowledge::exact(g);
}

core::PlacementMode placement_mode(const std::string& s) {
  if (s == "single_source") return core::PlacementMode::kSingleSource;
  if (s == "spread_even") return core::PlacementMode::kSpreadEven;
  return core::PlacementMode::kRandom;
}

baselines::Algo algo_from_string(const std::string& s) {
  if (s == "coded") return baselines::Algo::kCoded;
  if (s == "uncoded") return baselines::Algo::kUncodedPipeline;
  if (s == "seq_bgi") return baselines::Algo::kSequentialBgi;
  if (s == "gossip") return baselines::Algo::kGossipFlood;
  throw JsonError("unknown algo \"" + s + "\"");
}

JsonValue counters_json(const radio::TraceCounters& c) {
  JsonObject o;
  o.set("transmissions", c.transmissions);
  o.set("deliveries", c.deliveries);
  o.set("collision_slots", c.collision_slots);
  o.set("deaf_slots", c.deaf_slots);
  o.set("fault_drops", c.fault_drops);
  o.set("bits_transmitted", c.bits_transmitted);
  o.set("bits_delivered", c.bits_delivered);
  o.set("wakeups", c.wakeups);
  return JsonValue(std::move(o));
}

}  // namespace

std::string digest_run(const core::RunResult& r) {
  JsonObject o;
  o.set("delivered_all", r.delivered_all);
  o.set("timed_out", r.timed_out);
  o.set("nodes_complete", static_cast<std::uint64_t>(r.nodes_complete));
  o.set("total_rounds", r.total_rounds);
  o.set("stage1", r.stage1_rounds);
  o.set("stage2", r.stage2_rounds);
  o.set("stage3", r.stage3_rounds);
  o.set("stage4", r.stage4_rounds);
  o.set("phases", static_cast<std::uint64_t>(r.collection_phases));
  o.set("final_estimate", r.final_estimate);
  o.set("counters", counters_json(r.counters));
  return digest_json(JsonValue(std::move(o)));
}

namespace {

std::string digest_dynamic(const core::DynamicRunResult& r) {
  JsonObject o;
  o.set("n", static_cast<std::uint64_t>(r.n));
  o.set("k", static_cast<std::uint64_t>(r.k));
  o.set("horizon", r.horizon);
  o.set("delivered_everywhere", static_cast<std::uint64_t>(r.delivered_everywhere));
  o.set("latency_mean", r.latency_mean);
  o.set("latency_max", r.latency_max);
  o.set("counters", counters_json(r.counters));
  return digest_json(JsonValue(std::move(o)));
}

struct Cell {
  std::string algo;
  std::string placement;
  std::uint32_t k = 0;
  double loss = 0;
  bool cd = false;
};

/// One compact JSONL line (the telemetry document is line-oriented so the
/// schema checker and jq can stream it).
std::string telemetry_line(JsonObject o) {
  return json_serialize(JsonValue(std::move(o)), 0);
}

/// Shared latency-summary fields of "latency" and "packet" lines.
void set_latency_stats(JsonObject& o, const obs::LogHistogram& h) {
  o.set("count", h.count());
  o.set("mean", h.mean());
  o.set("p50", h.p50());
  o.set("p90", h.p90());
  o.set("p99", h.p99());
  o.set("min", h.min());
  o.set("max", h.max());
}

/// Nonzero histogram buckets as [[bucket, count], ...].
JsonValue buckets_json(const obs::LogHistogram& h) {
  std::vector<JsonValue> out;
  for (std::size_t i = 0; i < obs::LogHistogram::kNumBuckets; ++i) {
    if (h.buckets()[i] == 0) continue;
    std::vector<JsonValue> pair;
    pair.emplace_back(static_cast<std::uint64_t>(i));
    pair.emplace_back(h.buckets()[i]);
    out.emplace_back(std::move(pair));
  }
  return JsonValue(std::move(out));
}

/// Shared scaffolding both modes fill in.
struct Builder {
  const ScenarioSpec& spec;
  int resolved_threads;

  std::vector<std::string> columns = {};
  std::vector<JsonValue> rows = {};            // results rows
  std::vector<JsonValue> manifest_cells = {};  // manifest cells (with digests)
  JsonObject axes = {};
  bool all_delivered = true;
  bool audit_clean = true;
  std::vector<std::string> audit_violations = {};

  // Telemetry accumulation (cells append lines; finish() wraps them in
  // header/summary lines and digests the document).
  std::vector<std::string> telemetry_lines = {};
  std::string flight_trace = {};
  std::uint64_t packets_tracked = 0;
  std::uint64_t dropped_flight_events = 0;
  std::uint64_t dropped_ledger_rows = 0;
  std::uint64_t dropped_trace_events = 0;

  JsonValue meta_common(const graph::Graph& g, const radio::Knowledge& know) const {
    JsonObject meta;
    meta.set("graph", g.summary());
    meta.set("n_hat", static_cast<std::uint64_t>(know.n_hat));
    meta.set("delta_hat", static_cast<std::uint64_t>(know.delta_hat));
    meta.set("d_hat", static_cast<std::uint64_t>(know.d_hat));
    meta.set("log_n", static_cast<std::uint64_t>(know.log_n()));
    meta.set("log_delta", static_cast<std::uint64_t>(know.log_delta()));
    meta.set("mode", spec.mode);
    {
      std::string joined;
      for (const std::string& p : spec.placement)
        joined += (joined.empty() ? "" : ",") + p;
      meta.set("placement", joined);
    }
    meta.set("knowledge", spec.knowledge.mode);
    meta.set("seeds", static_cast<std::int64_t>(spec.seeds));
    meta.set("seed_base", spec.seed_base);
    meta.set("audit", spec.audit);
    return JsonValue(std::move(meta));
  }

  ScenarioOutcome finish(const graph::Graph& g, const radio::Knowledge& know,
                         double elapsed_seconds) {
    const JsonValue spec_json = scenario_to_json(spec);
    const std::string spec_digest = digest_json(spec_json);

    JsonObject results;
    results.set("format", "radiocast-results-v1");
    results.set("scenario", spec.id);
    results.set("title", spec.title);
    results.set("claim", spec.claim);
    results.set("spec_digest", spec_digest);
    results.set("meta", meta_common(g, know));
    results.set("axes", JsonValue(axes));
    {
      std::vector<JsonValue> cols(columns.begin(), columns.end());
      results.set("columns", JsonValue(std::move(cols)));
    }
    results.set("rows", JsonValue(rows));
    {
      JsonObject report;
      report.set("pivot", spec.report.pivot);
      std::vector<JsonValue> values(spec.report.values.begin(), spec.report.values.end());
      report.set("values", JsonValue(std::move(values)));
      report.set("ratio", spec.report.ratio);
      std::vector<JsonValue> cols(spec.report.columns.begin(), spec.report.columns.end());
      report.set("columns", JsonValue(std::move(cols)));
      results.set("report", JsonValue(std::move(report)));
    }
    const JsonValue results_doc{results};

    JsonObject det;
    det.set("format", "radiocast-manifest-v1");
    det.set("scenario", spec_json);
    det.set("spec_digest", spec_digest);
    det.set("build", build_info_json());
    {
      JsonObject grid;
      grid.set("seeds", static_cast<std::int64_t>(spec.seeds));
      grid.set("seed_base", spec.seed_base);
      std::vector<JsonValue> ps, rs, fs;
      for (int t = 0; t < spec.seeds; ++t) {
        ps.emplace_back(placement_seed(spec, t));
        rs.emplace_back(run_seed(spec, t));
        fs.emplace_back(fault_seed(spec, t));
      }
      grid.set("placement_seeds", JsonValue(std::move(ps)));
      grid.set("run_seeds", JsonValue(std::move(rs)));
      grid.set("fault_seeds", JsonValue(std::move(fs)));
      if (spec.mode == "stream") {
        // Emitted only in stream mode so closed-run manifests keep their
        // pinned byte-identical shape (same rule as the spec's "stream"
        // block in scenario_to_json).
        std::vector<JsonValue> as;
        for (int t = 0; t < spec.seeds; ++t) as.emplace_back(arrival_seed(spec, t));
        grid.set("arrival_seeds", JsonValue(std::move(as)));
      }
      det.set("seed_grid", JsonValue(std::move(grid)));
    }
    det.set("cells", JsonValue(manifest_cells));
    det.set("results_digest", digest_json(results_doc));
    det.set("audit_clean", audit_clean);

    // Assemble the telemetry document (header + cell lines + summary).
    // "telemetry_digest" is always present — the empty string when
    // telemetry is disabled — so the manifest shape is schema-stable.
    std::string telemetry;
    if (spec.telemetry.enabled) {
      JsonObject header;
      header.set("type", "header");
      header.set("format", "radiocast-telemetry-v1");
      header.set("scenario", spec.id);
      header.set("spec_digest", spec_digest);
      header.set("trials", static_cast<std::int64_t>(spec.seeds));
      header.set("flight_paths", spec.telemetry.flight_paths);
      telemetry += telemetry_line(std::move(header)) + "\n";
      for (const std::string& line : telemetry_lines) telemetry += line + "\n";
      JsonObject summary;
      summary.set("type", "summary");
      summary.set("packets", packets_tracked);
      summary.set("dropped_flight_events", dropped_flight_events);
      summary.set("dropped_ledger_rows", dropped_ledger_rows);
      summary.set("dropped_trace_events", dropped_trace_events);
      telemetry += telemetry_line(std::move(summary)) + "\n";
    }
    det.set("telemetry_digest",
            spec.telemetry.enabled ? digest_string(telemetry) : std::string());

    JsonObject env;
    env.set("engine", kEngineName);
    env.set("simd", std::string(gf2::simd_kernel_name()));
    env.set("threads", static_cast<std::int64_t>(resolved_threads));
    env.set("timestamp_utc", "");  // filled by the CLI; excluded from digests
    env.set("elapsed_seconds", elapsed_seconds);
    env.set("dropped_trace_events", dropped_trace_events);

    ScenarioOutcome out;
    out.results = results_doc;
    out.manifest = make_manifest(std::move(det), std::move(env));
    out.audit_clean = audit_clean;
    out.audit_violations = audit_violations;
    out.all_delivered = all_delivered;
    out.telemetry = std::move(telemetry);
    out.flight_trace = std::move(flight_trace);
    out.dropped_trace_events = dropped_trace_events;
    return out;
  }
};

void run_kbroadcast_cells(Builder& b, const graph::Graph& g,
                          const radio::Knowledge& know) {
  const ScenarioSpec& spec = b.spec;
  core::montecarlo::Options opts;
  opts.threads = b.resolved_threads;

  const bool telemetry = spec.telemetry.enabled;

  b.columns = {"algo",   "placement", "k",      "loss",   "cd",
               "rounds", "r_per_pkt", "stage1", "stage2", "stage3",
               "stage4", "phases",    "delivered", "ok"};
  if (telemetry) {
    // Per-packet delivery-latency percentiles (pooled over packets, nodes
    // and trials; null for non-pipeline algos, which have no tracer).
    b.columns.insert(b.columns.end(), {"lat_p50", "lat_p90", "lat_p99", "lat_max"});
  }
  b.axes.set("algo", JsonValue(std::vector<JsonValue>(spec.algos.begin(), spec.algos.end())));
  b.axes.set("placement", JsonValue(std::vector<JsonValue>(spec.placement.begin(),
                                                           spec.placement.end())));
  {
    std::vector<JsonValue> ks, ls, cds;
    for (const std::uint32_t k : spec.k) ks.emplace_back(static_cast<std::uint64_t>(k));
    for (const double l : spec.loss) ls.emplace_back(l);
    for (const bool c : spec.collision_detection) cds.emplace_back(c);
    b.axes.set("k", JsonValue(std::move(ks)));
    b.axes.set("loss", JsonValue(std::move(ls)));
    b.axes.set("cd", JsonValue(std::move(cds)));
  }

  std::vector<Cell> cells;
  for (const std::string& algo : spec.algos)
    for (const std::string& placement : spec.placement)
      for (const std::uint32_t k : spec.k)
        for (const double loss : spec.loss)
          for (const bool cd : spec.collision_detection)
            cells.push_back({algo, placement, k, loss, cd});

  for (const Cell& cell : cells) {
    const baselines::Algo algo = algo_from_string(cell.algo);
    const bool pipeline =
        algo == baselines::Algo::kCoded || algo == baselines::Algo::kUncodedPipeline;

    std::vector<core::RunResult> results;
    std::vector<std::unique_ptr<audit::ModelAuditor>> auditors;
    std::vector<std::unique_ptr<obs::PacketTracer>> tracers;
    std::vector<std::unique_ptr<obs::RunObserver>> observers;
    if (pipeline) {
      core::montecarlo::KBroadcastSweep sweep;
      sweep.graph = &g;
      sweep.cfg = algo == baselines::Algo::kCoded
                      ? baselines::coded_config(know)
                      : baselines::uncoded_pipeline_config(know);
      sweep.k = cell.k;
      sweep.placement = placement_mode(cell.placement);
      sweep.payload_bytes = spec.payload_bytes;
      sweep.placement_seed = [&spec](int t) { return placement_seed(spec, t); };
      sweep.run_seed = [&spec](int t) { return run_seed(spec, t); };
      sweep.max_rounds = spec.max_rounds;
      sweep.collision_detection = cell.cd;
      if (cell.loss > 0) {
        sweep.faults = [&spec, &cell](int t) {
          radio::FaultModel f;
          f.reception_loss_probability = cell.loss;
          f.seed = fault_seed(spec, t);
          return f;
        };
      }
      if (spec.audit) {
        auditors.resize(static_cast<std::size_t>(spec.seeds));
        for (auto& a : auditors) a = std::make_unique<audit::ModelAuditor>();
        sweep.auditor = [&auditors](int t) -> core::RunAuditor* {
          return auditors[static_cast<std::size_t>(t)].get();
        };
      }
      if (telemetry) {
        // One tracer + one ledger-bearing observer per trial (the sweep
        // may run them concurrently); merged below in trial order.
        obs::PacketTracer::Options topts;
        topts.flight_paths = spec.telemetry.flight_paths;
        topts.max_flight_events =
            static_cast<std::size_t>(spec.telemetry.max_flight_events);
        obs::RunObserver::Options oopts;
        oopts.channel_ledger = true;
        oopts.ledger_max_rounds =
            static_cast<std::size_t>(spec.telemetry.ledger_rounds);
        tracers.resize(static_cast<std::size_t>(spec.seeds));
        observers.resize(static_cast<std::size_t>(spec.seeds));
        for (auto& tr : tracers) tr = std::make_unique<obs::PacketTracer>(topts);
        for (auto& ob : observers) ob = std::make_unique<obs::RunObserver>(oopts);
        sweep.tracer = [&tracers](int t) {
          return tracers[static_cast<std::size_t>(t)].get();
        };
        sweep.observer = [&observers](int t) {
          return observers[static_cast<std::size_t>(t)].get();
        };
      }
      results = core::montecarlo::run_kbroadcast_sweep(sweep, spec.seeds, opts);
    } else {
      // seq_bgi / gossip go through the uniform baseline entry point
      // (validate_scenario already rejected fault/CD/audit axes for them).
      results = core::montecarlo::run(
          spec.seeds,
          [&](int t) {
            Rng prng(placement_seed(spec, t));
            const core::Placement placement = core::make_placement(
                g.num_nodes(), cell.k, placement_mode(cell.placement),
                spec.payload_bytes, prng);
            return baselines::run_algo(algo, g, know, placement, run_seed(spec, t),
                                       spec.max_rounds);
          },
          opts);
    }

    SampleSet rounds, rpp, s1, s2, s3, s4, phases;
    int delivered = 0;
    std::vector<std::string> trial_digests;
    for (const core::RunResult& r : results) {
      b.dropped_trace_events += r.dropped_trace_events;
      if (r.delivered_all) ++delivered;
      rounds.add(static_cast<double>(r.total_rounds));
      rpp.add(r.amortized_rounds_per_packet());
      s1.add(static_cast<double>(r.stage1_rounds));
      s2.add(static_cast<double>(r.stage2_rounds));
      s3.add(static_cast<double>(r.stage3_rounds));
      s4.add(static_cast<double>(r.stage4_rounds));
      phases.add(static_cast<double>(r.collection_phases));
      trial_digests.push_back(digest_run(r));
    }
    for (std::size_t t = 0; t < auditors.size(); ++t) {
      if (!auditors[t]->clean()) {
        b.audit_clean = false;
        b.audit_violations.push_back(
            "cell algo=" + cell.algo + " k=" + std::to_string(cell.k) + " trial " +
            std::to_string(t) + ": " + auditors[t]->summary());
      }
    }
    b.all_delivered = b.all_delivered && delivered == spec.seeds;

    // --- Telemetry emission (pipeline cells only: seq_bgi/gossip run
    // through run_algo, which has no audit tap to trace). Every reduction
    // below walks trials in trial order, so the document is byte-identical
    // at any thread count.
    obs::LogHistogram cell_latency;
    if (telemetry && pipeline) {
      JsonObject cl;
      cl.set("type", "cell");
      cl.set("algo", cell.algo);
      cl.set("placement", cell.placement);
      cl.set("k", static_cast<std::uint64_t>(cell.k));
      cl.set("loss", cell.loss);
      cl.set("cd", cell.cd);
      b.telemetry_lines.push_back(telemetry_line(std::move(cl)));

      for (const auto& tr : tracers) cell_latency.merge(tr->all_latencies());
      {
        JsonObject l;
        l.set("type", "latency");
        set_latency_stats(l, cell_latency);
        l.set("buckets", buckets_json(cell_latency));
        b.telemetry_lines.push_back(telemetry_line(std::move(l)));
      }

      // Per-packet lines: index = position in truth order, which is the
      // stable cross-trial identity (concrete packet ids differ per trial).
      const std::uint32_t n = tracers.front()->num_nodes();
      for (std::uint32_t p = 0; p < cell.k; ++p) {
        obs::LogHistogram h;
        std::uint64_t undelivered = 0;
        std::uint64_t max_depth = 0;
        for (const auto& tr : tracers) {
          h.merge(tr->packet_latencies(p));
          undelivered += tr->undelivered(p);
          for (radio::NodeId v = 0; v < n; ++v) {
            if (tr->held(p, v))
              max_depth = std::max<std::uint64_t>(max_depth, tr->hop_depth(p, v));
          }
        }
        JsonObject pl;
        pl.set("type", "packet");
        pl.set("index", static_cast<std::uint64_t>(p));
        set_latency_stats(pl, h);
        pl.set("undelivered", undelivered);
        pl.set("max_depth", max_depth);
        b.telemetry_lines.push_back(telemetry_line(std::move(pl)));
      }
      b.packets_tracked += cell.k;

      // Channel-utilization aggregates, merged across trials in trial
      // order (first-seen (stage, epoch) order of the earliest trial).
      std::vector<obs::ChannelLedger::Aggregate> merged;
      for (const auto& ob : observers) {
        const obs::ChannelLedger* led = ob->ledger();
        b.dropped_ledger_rows += led->dropped_rows();
        for (const obs::ChannelLedger::Aggregate& a : led->aggregates()) {
          const auto it =
              std::find_if(merged.begin(), merged.end(),
                           [&a](const obs::ChannelLedger::Aggregate& m) {
                             return m.stage == a.stage && m.epoch == a.epoch;
                           });
          if (it == merged.end()) {
            merged.push_back(a);
            continue;
          }
          it->rounds += a.rounds;
          it->awake += a.awake;
          it->transmissions += a.transmissions;
          it->deliveries += a.deliveries;
          it->collisions += a.collisions;
          it->deaf += a.deaf;
          it->faults += a.faults;
          it->silent += a.silent;
        }
      }
      for (const obs::ChannelLedger::Aggregate& a : merged) {
        JsonObject lg;
        lg.set("type", "ledger");
        lg.set("stage", a.stage);
        lg.set("epoch", a.epoch);
        lg.set("rounds", a.rounds);
        lg.set("awake", a.awake);
        lg.set("transmissions", a.transmissions);
        lg.set("deliveries", a.deliveries);
        lg.set("collisions", a.collisions);
        lg.set("deaf", a.deaf);
        lg.set("faults", a.faults);
        lg.set("silent", a.silent);
        b.telemetry_lines.push_back(telemetry_line(std::move(lg)));
      }

      // Per-round utilization timeline of trial 0 (one representative
      // trial; the whole-grid totals are in the "ledger" lines above).
      const obs::ChannelLedger* led0 = observers.front()->ledger();
      for (const obs::ChannelLedger::Row& r : led0->rows()) {
        JsonObject lr;
        lr.set("type", "ledger_round");
        lr.set("round", r.round);
        lr.set("stage", led0->stage_names()[r.stage]);
        lr.set("epoch", led0->epoch_names()[r.epoch]);
        lr.set("awake", static_cast<std::uint64_t>(r.awake));
        lr.set("transmissions", static_cast<std::uint64_t>(r.transmissions));
        lr.set("deliveries", static_cast<std::uint64_t>(r.deliveries));
        lr.set("collisions", static_cast<std::uint64_t>(r.collisions));
        lr.set("deaf", static_cast<std::uint64_t>(r.deaf));
        lr.set("faults", static_cast<std::uint64_t>(r.faults));
        lr.set("silent", static_cast<std::uint64_t>(r.silent));
        b.telemetry_lines.push_back(telemetry_line(std::move(lr)));
      }

      for (const auto& tr : tracers)
        b.dropped_flight_events += tr->dropped_flight_events();
      if (spec.telemetry.flight_paths) {
        // Flight log of trial 0 (chronological first-hold records).
        const obs::PacketTracer& tr0 = *tracers.front();
        for (const obs::PacketTracer::FlightEvent& e : tr0.flight_events()) {
          JsonObject fl;
          fl.set("type", "flight");
          fl.set("packet", static_cast<std::uint64_t>(e.packet));
          fl.set("node", static_cast<std::uint64_t>(e.node));
          fl.set("from", static_cast<std::uint64_t>(e.from));
          fl.set("latency", e.latency);
          fl.set("depth", static_cast<std::uint64_t>(e.depth));
          fl.set("via", obs::PacketTracer::via_name(e.via));
          b.telemetry_lines.push_back(telemetry_line(std::move(fl)));
        }
        if (b.flight_trace.empty()) {
          std::ostringstream os;
          obs::write_flight_chrome_trace(os, tr0);
          b.flight_trace = os.str();
        }
      }
    }

    JsonObject row;
    row.set("algo", cell.algo);
    row.set("placement", cell.placement);
    row.set("k", static_cast<std::uint64_t>(cell.k));
    row.set("loss", cell.loss);
    row.set("cd", cell.cd);
    row.set("rounds", rounds.median());
    row.set("r_per_pkt", rpp.median());
    row.set("stage1", s1.median());
    row.set("stage2", s2.median());
    row.set("stage3", s3.median());
    row.set("stage4", s4.median());
    row.set("phases", phases.median());
    row.set("delivered",
            std::to_string(delivered) + "/" + std::to_string(spec.seeds));
    row.set("ok", delivered == spec.seeds);
    if (telemetry) {
      row.set("lat_p50", pipeline ? JsonValue(cell_latency.p50()) : JsonValue());
      row.set("lat_p90", pipeline ? JsonValue(cell_latency.p90()) : JsonValue());
      row.set("lat_p99", pipeline ? JsonValue(cell_latency.p99()) : JsonValue());
      row.set("lat_max", pipeline ? JsonValue(cell_latency.max()) : JsonValue());
    }
    b.rows.emplace_back(std::move(row));

    JsonObject mcell;
    mcell.set("algo", cell.algo);
    mcell.set("placement", cell.placement);
    mcell.set("k", static_cast<std::uint64_t>(cell.k));
    mcell.set("loss", cell.loss);
    mcell.set("cd", cell.cd);
    {
      std::vector<JsonValue> td(trial_digests.begin(), trial_digests.end());
      mcell.set("trial_digests", JsonValue(std::move(td)));
    }
    b.manifest_cells.emplace_back(std::move(mcell));
  }
}

void run_dynamic_cells(Builder& b, const graph::Graph& g,
                       const radio::Knowledge& know) {
  const ScenarioSpec& spec = b.spec;
  core::montecarlo::Options opts;
  opts.threads = b.resolved_threads;

  core::KBroadcastConfig kcfg;
  kcfg.know = know;
  core::DynamicConfig cfg;
  cfg.rc = core::resolve(kcfg);
  cfg.batch_capacity = spec.dynamic.batch_capacity;

  const std::uint64_t epoch_estimate =
      core::collection_phase_rounds(cfg.rc.initial_estimate, cfg.rc) +
      cfg.dissemination_window();
  const std::uint64_t spread =
      cfg.rc.stage3_start() + spec.dynamic.arrival_epochs * epoch_estimate;

  b.columns = {"load",
               "k",
               "delivered",
               "latency_mean_epochs",
               "latency_max_epochs",
               "rounds_per_pkt"};
  {
    std::vector<JsonValue> loads;
    for (const double l : spec.dynamic.load) loads.emplace_back(l);
    b.axes.set("load", JsonValue(std::move(loads)));
  }

  for (const double load : spec.dynamic.load) {
    const auto k = static_cast<std::uint32_t>(load * cfg.resolved_capacity() *
                                              spec.dynamic.arrival_epochs);
    const std::uint64_t horizon =
        spread + (4 + static_cast<std::uint64_t>(2 * load)) * epoch_estimate;

    const std::vector<core::DynamicRunResult> results = core::montecarlo::run(
        spec.seeds,
        [&](int t) {
          Rng arng(placement_seed(spec, t));
          std::vector<core::Arrival> arrivals = core::make_arrivals(
              g.num_nodes(), k, spread, spec.payload_bytes, arng);
          return core::run_dynamic_broadcast(g, cfg, std::move(arrivals), horizon,
                                             run_seed(spec, t));
        },
        opts);

    SampleSet lat_mean, lat_max, rppkt;
    std::uint32_t delivered = 0, offered = 0;
    std::vector<std::string> trial_digests;
    for (const core::DynamicRunResult& r : results) {
      delivered += r.delivered_everywhere;
      offered += r.k;
      lat_mean.add(r.latency_mean / static_cast<double>(epoch_estimate));
      lat_max.add(r.latency_max / static_cast<double>(epoch_estimate));
      if (r.delivered_everywhere > 0) {
        rppkt.add(static_cast<double>(r.horizon - cfg.rc.stage3_start()) /
                  r.delivered_everywhere);
      }
      trial_digests.push_back(digest_dynamic(r));
    }
    b.all_delivered = b.all_delivered && delivered == offered;

    JsonObject row;
    row.set("load", load);
    row.set("k", static_cast<std::uint64_t>(k));
    row.set("delivered",
            std::to_string(delivered) + "/" + std::to_string(offered));
    row.set("latency_mean_epochs", lat_mean.median());
    row.set("latency_max_epochs", lat_max.median());
    row.set("rounds_per_pkt", rppkt.median());
    b.rows.emplace_back(std::move(row));

    JsonObject mcell;
    mcell.set("load", load);
    mcell.set("k", static_cast<std::uint64_t>(k));
    {
      std::vector<JsonValue> td(trial_digests.begin(), trial_digests.end());
      mcell.set("trial_digests", JsonValue(std::move(td)));
    }
    b.manifest_cells.emplace_back(std::move(mcell));
  }
}

std::string digest_stream(const stream::StreamResult& r) {
  JsonObject o;
  o.set("n", static_cast<std::uint64_t>(r.n));
  o.set("horizon", r.horizon);
  o.set("arrivals", r.arrivals_scheduled);
  o.set("delivered_everywhere", r.delivered_everywhere);
  o.set("offered", r.queue.offered);
  o.set("admitted", r.queue.admitted);
  o.set("dropped", r.queue.dropped);
  o.set("backpressured", r.queue.backpressured);
  o.set("peak_depth", r.queue.peak_depth);
  o.set("epochs", static_cast<std::uint64_t>(r.epochs_completed));
  o.set("in_system_end", r.in_system_end);
  o.set("saturated", r.saturated);
  o.set("saturation_onset", r.saturation_onset_round);
  o.set("latency_count", r.latency.count());
  o.set("latency_sum", r.latency.sum());
  o.set("latency_max", r.latency.max());
  o.set("counters", counters_json(r.counters));
  return digest_json(JsonValue(std::move(o)));
}

void run_stream_cells(Builder& b, const graph::Graph& g,
                      const radio::Knowledge& know) {
  const ScenarioSpec& spec = b.spec;
  core::montecarlo::Options opts;
  opts.threads = b.resolved_threads;

  core::KBroadcastConfig kcfg;
  kcfg.know = know;
  core::DynamicConfig dyn;
  dyn.rc = core::resolve(kcfg);
  dyn.batch_capacity = spec.stream.batch_capacity;

  const std::uint64_t epoch_estimate = stream::epoch_estimate_rounds(dyn);
  // Arrivals start at round 0 and buffer through the one-time setup
  // (Stage 1 + Stage 2); the round budget grants the full horizon_epochs
  // of pipelined epochs after it.
  const std::uint64_t horizon =
      dyn.rc.stage3_start() + spec.stream.horizon_epochs * epoch_estimate;

  stream::ArrivalKind kind = stream::ArrivalKind::kPoisson;
  stream::arrival_kind_from_string(spec.stream.process, kind);

  b.columns = {"rate",       "buffer",    "policy",  "arrivals", "delivered",
               "tput",       "tput_epoch", "norm_tput", "lat_p50", "lat_p90",
               "lat_p99",    "lat_max",   "dropped", "backpressured",
               "peak_depth", "in_system_end", "saturated"};
  {
    std::vector<JsonValue> rates, buffers;
    for (const double r : spec.stream.rate) rates.emplace_back(r);
    for (const std::uint32_t v : spec.stream.buffer)
      buffers.emplace_back(static_cast<std::uint64_t>(v));
    b.axes.set("rate", JsonValue(std::move(rates)));
    b.axes.set("buffer", JsonValue(std::move(buffers)));
    b.axes.set("policy", JsonValue(std::vector<JsonValue>(spec.stream.policy.begin(),
                                                          spec.stream.policy.end())));
  }

  for (const double rate : spec.stream.rate) {
    for (const std::uint32_t buffer : spec.stream.buffer) {
      for (const std::string& policy_name : spec.stream.policy) {
        stream::BufferPolicy policy = stream::BufferPolicy::kDropNew;
        stream::buffer_policy_from_string(policy_name, policy);

        stream::StreamConfig cfg;
        cfg.dyn = dyn;
        cfg.arrivals.kind = kind;
        cfg.arrivals.rate = stream::per_node_rate(dyn, g.num_nodes(), rate);
        cfg.arrivals.payload_bytes = spec.payload_bytes;
        cfg.buffer_capacity = buffer;
        cfg.policy = policy;
        cfg.saturation.window = spec.stream.saturation_window;
        cfg.saturation.min_growth = spec.stream.saturation_min_growth;
        cfg.horizon = horizon;
        cfg.audit = spec.audit;
        cfg.ledger_max_rows =
            static_cast<std::size_t>(spec.telemetry.ledger_rounds);

        const std::vector<stream::StreamResult> results = core::montecarlo::run(
            spec.seeds,
            [&](int t) {
              stream::StreamConfig trial_cfg = cfg;
              trial_cfg.arrivals.seed = arrival_seed(spec, t);
              trial_cfg.seed = run_seed(spec, t);
              return stream::run_stream(g, trial_cfg);
            },
            opts);

        // All reductions walk trials in trial order: histogram merges are
        // bucket-wise integer sums and counters are integer sums, so the
        // document is byte-identical at any thread count.
        obs::LogHistogram latency;
        SampleSet tput, norm, in_system;
        std::uint64_t arrivals = 0, delivered = 0, peak_depth = 0;
        stream::QueueStats queue;
        int saturated_trials = 0;
        std::vector<std::string> trial_digests;
        for (const stream::StreamResult& r : results) {
          latency.merge(r.latency);
          tput.add(r.throughput);
          norm.add(r.normalized_throughput);
          in_system.add(static_cast<double>(r.in_system_end));
          arrivals += r.arrivals_scheduled;
          delivered += r.delivered_everywhere;
          queue.merge(r.queue);
          peak_depth = std::max(peak_depth, r.queue.peak_depth);
          if (r.saturated) ++saturated_trials;
          trial_digests.push_back(digest_stream(r));
          if (r.audited && r.audit_violations > 0) {
            b.audit_clean = false;
            b.audit_violations.push_back(
                "cell rate=" + std::to_string(rate) + " buffer=" +
                std::to_string(buffer) + " policy=" + policy_name + ": " +
                r.audit_summary);
          }
        }

        if (spec.telemetry.enabled) {
          JsonObject cl;
          cl.set("type", "cell");
          cl.set("rate", rate);
          cl.set("buffer", static_cast<std::uint64_t>(buffer));
          cl.set("policy", policy_name);
          b.telemetry_lines.push_back(telemetry_line(std::move(cl)));
          {
            JsonObject l;
            l.set("type", "latency");
            set_latency_stats(l, latency);
            l.set("buckets", buckets_json(latency));
            b.telemetry_lines.push_back(telemetry_line(std::move(l)));
          }
          {
            // Whole-cell backlog totals (exact regardless of the row cap).
            JsonObject q;
            q.set("type", "queue");
            q.set("offered", queue.offered);
            q.set("admitted", queue.admitted);
            q.set("dropped", queue.dropped);
            q.set("backpressured", queue.backpressured);
            q.set("peak_depth", peak_depth);
            q.set("saturated_trials",
                  static_cast<std::uint64_t>(saturated_trials));
            b.telemetry_lines.push_back(telemetry_line(std::move(q)));
          }
          // Backlog timeline of trial 0 (one representative trial, one row
          // per epoch boundary), mirroring the kbroadcast "ledger_round"
          // convention.
          const obs::QueueLedger& led0 = results.front().ledger;
          b.dropped_ledger_rows += led0.dropped_rows();
          for (const obs::QueueLedger::Row& r : led0.rows()) {
            JsonObject qr;
            qr.set("type", "queue_round");
            qr.set("round", r.round);
            qr.set("buffered", r.buffered);
            qr.set("held_back", r.held_back);
            qr.set("in_flight", r.in_flight);
            qr.set("offered", r.offered);
            qr.set("admitted", r.admitted);
            qr.set("dropped", r.dropped);
            qr.set("backpressured", r.backpressured);
            qr.set("delivered", r.delivered);
            b.telemetry_lines.push_back(telemetry_line(std::move(qr)));
          }
          b.packets_tracked += delivered;
        }

        JsonObject row;
        row.set("rate", rate);
        row.set("buffer", static_cast<std::uint64_t>(buffer));
        row.set("policy", policy_name);
        row.set("arrivals", arrivals);
        row.set("delivered", delivered);
        row.set("tput", tput.median());
        // Delivered packets per nominal epoch — directly comparable to the
        // batch capacity, so the saturation knee reads off the table.
        row.set("tput_epoch", tput.median() * static_cast<double>(epoch_estimate));
        row.set("norm_tput", norm.median());
        row.set("lat_p50", latency.p50());
        row.set("lat_p90", latency.p90());
        row.set("lat_p99", latency.p99());
        row.set("lat_max", latency.max());
        row.set("dropped", queue.dropped);
        row.set("backpressured", queue.backpressured);
        row.set("peak_depth", peak_depth);
        row.set("in_system_end", in_system.median());
        row.set("saturated", std::to_string(saturated_trials) + "/" +
                                 std::to_string(spec.seeds));
        b.rows.emplace_back(std::move(row));

        JsonObject mcell;
        mcell.set("rate", rate);
        mcell.set("buffer", static_cast<std::uint64_t>(buffer));
        mcell.set("policy", policy_name);
        {
          std::vector<JsonValue> td(trial_digests.begin(), trial_digests.end());
          mcell.set("trial_digests", JsonValue(std::move(td)));
        }
        b.manifest_cells.emplace_back(std::move(mcell));
      }
    }
  }
}

}  // namespace

ScenarioOutcome run_scenario(const ScenarioSpec& spec) {
  validate_scenario(spec);
  const auto start = std::chrono::steady_clock::now();

  const graph::Graph g = build_topology(spec.topology);
  const radio::Knowledge know = build_knowledge(spec.knowledge, g);

  Builder b{.spec = spec,
            .resolved_threads = spec.threads > 0
                                    ? spec.threads
                                    : core::montecarlo::threads_from_env()};
  if (spec.mode == "dynamic") {
    run_dynamic_cells(b, g, know);
  } else if (spec.mode == "stream") {
    run_stream_cells(b, g, know);
  } else {
    run_kbroadcast_cells(b, g, know);
  }

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return b.finish(g, know, elapsed);
}

}  // namespace radiocast::exp
