#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/dissemination.hpp"
#include "core/protocol.hpp"
#include "core/schedule.hpp"
#include "exp/run.hpp"
#include "gf2/coding.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "radio/network.hpp"
#include "radio/protocol_slab.hpp"

namespace radiobench {

using namespace radiocast;

namespace {
/// Keeps the replayed gf2 work observable to the optimizer.
volatile std::uint64_t g_sink = 0;
}  // namespace

Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  // Radii keep the max degree, and so ⌈log Δ⌉, in one power-of-two bucket
  // for every seed; d_hat sits above every seed's diameter. Both fix the
  // schedule, which otherwise makes rounds/s bimodal across seeds.
  if (name == "pipeline") {
    // The ROADMAP's pinned row: many nodes, few packets, stages 1-3 dominate.
    w.n = tiny ? 48 : 2000;
    w.radius = tiny ? 0.3 : 0.06;
    w.d_hat = tiny ? 0 : 30;
    w.k = tiny ? 8 : 64;
    w.payload_bytes = 16;
  } else if (name == "coding") {
    // Few nodes, many large packets: Stage 4 and GF(2) dominate.
    w.n = tiny ? 24 : 128;
    w.radius = tiny ? 0.45 : 0.21;
    w.d_hat = tiny ? 0 : 10;
    w.k = tiny ? 48 : 1024;
    w.payload_bytes = tiny ? 64 : 1024;
  } else if (name == "stream") {
    // Open system below the saturation knee.
    w.stream = true;
    w.n = tiny ? 24 : 256;
    w.radius = tiny ? 0.45 : 0.14;
    w.d_hat = tiny ? 0 : 15;
    w.load = 0.5;
    w.buffer = 64;
    w.batch = tiny ? 8 : 32;
    w.epochs = tiny ? 3 : 16;
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  return w;
}

Seeds derive_seeds(std::uint64_t seed) {
  Rng master(seed);
  Seeds s;
  s.graph = master();
  s.placement = master();
  s.protocol = master();
  s.arrivals = master();
  return s;
}

Inputs make_inputs(const Workload& w, const Seeds& seeds) {
  Inputs in;
  auto t = Clock::now();
  Rng grng(seeds.graph);
  in.graph = graph::make_random_geometric(w.n, w.radius, grng);
  in.generate_s = seconds_since(t);

  t = Clock::now();
  in.know = radio::Knowledge::exact(in.graph);
  in.knowledge_s = seconds_since(t);
  in.know.d_hat = std::max(in.know.d_hat, w.d_hat);

  if (!w.stream) {
    t = Clock::now();
    Rng prng(seeds.placement);
    in.placement = core::make_placement(w.n, w.k, core::PlacementMode::kRandom,
                                        w.payload_bytes, prng);
    in.placement_s = seconds_since(t);
  }
  return in;
}

core::KBroadcastConfig closed_config(const Inputs& in) {
  core::KBroadcastConfig cfg;
  cfg.know = in.know;
  return cfg;
}

stream::StreamConfig stream_config(const Workload& w, const Inputs& in, const Seeds& seeds) {
  core::KBroadcastConfig kcfg;
  kcfg.know = in.know;
  stream::StreamConfig cfg;
  cfg.dyn.rc = core::resolve(kcfg);
  cfg.dyn.batch_capacity = w.batch;
  cfg.arrivals.kind = stream::ArrivalKind::kPoisson;
  cfg.arrivals.rate = stream::per_node_rate(cfg.dyn, w.n, w.load);
  cfg.arrivals.seed = seeds.arrivals;
  cfg.buffer_capacity = w.buffer;
  cfg.policy = stream::BufferPolicy::kDropNew;
  cfg.horizon = cfg.dyn.rc.stage3_start() +
                static_cast<std::uint64_t>(w.epochs) * stream::epoch_estimate_rounds(cfg.dyn);
  cfg.seed = seeds.protocol;
  return cfg;
}

namespace {

struct UsageMark {
  Clock::time_point wall;
  rusage ru{};
};

UsageMark usage_mark() {
  UsageMark m;
  getrusage(RUSAGE_SELF, &m.ru);
  m.wall = Clock::now();
  return m;
}

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

Usage usage_since(const UsageMark& start) {
  Usage u;
  u.wall_s = seconds_since(start.wall);
  rusage now{};
  getrusage(RUSAGE_SELF, &now);
  u.sys_s = tv_seconds(now.ru_stime) - tv_seconds(start.ru.ru_stime);
  u.minor_faults = static_cast<std::uint64_t>(now.ru_minflt - start.ru.ru_minflt);
  return u;
}

}  // namespace

ClosedRun run_closed(const Inputs& in, const Seeds& seeds) {
  ClosedRun run;
  const core::KBroadcastConfig cfg = closed_config(in);
  const UsageMark start = usage_mark();
  run.result = core::run_kbroadcast(in.graph, cfg, in.placement, seeds.protocol);
  run.usage = usage_since(start);
  return run;
}

bool closed_ok(const core::RunResult& r) {
  return r.delivered_all && r.leader_ok && r.bfs_ok && !r.timed_out;
}

StreamRun run_stream_once(const stream::StreamConfig& cfg, const Inputs& in) {
  StreamRun run;
  const UsageMark start = usage_mark();
  run.result = stream::run_stream(in.graph, cfg);
  run.usage = usage_since(start);
  return run;
}

bool stream_ok(const stream::StreamResult& r) {
  return r.arrivals_scheduled == r.delivered_everywhere + r.queue.dropped + r.in_system_end &&
         r.audit_violations == 0;
}

std::string stream_digest(const stream::StreamResult& r) {
  std::ostringstream os;
  const radio::TraceCounters& c = r.counters;
  os << r.n << ' ' << r.horizon << ' ' << r.arrivals_scheduled << ' ' << r.queue.offered << ' '
     << r.queue.admitted << ' ' << r.queue.dropped << ' ' << r.queue.backpressured << ' '
     << r.queue.peak_depth << ' ' << r.delivered_everywhere << ' ' << r.in_system_end << ' '
     << r.saturated << ' ' << r.saturation_onset_round << ' ' << r.epochs_completed << ' '
     << r.latency.count() << ' ' << r.latency.sum() << ' ' << c.rounds << ' '
     << c.transmissions << ' ' << c.deliveries << ' ' << c.collision_slots << ' '
     << c.deaf_slots << ' ' << c.bits_transmitted << ' ' << c.bits_delivered << ' '
     << c.wakeups;
  return os.str();
}

namespace {

/// True iff `got` equals the ground truth exactly (run_kbroadcast's check).
bool holds_all(std::vector<radio::Packet> got, const std::vector<radio::Packet>& truth) {
  if (got.size() != truth.size()) return false;
  std::sort(got.begin(), got.end(),
            [](const radio::Packet& a, const radio::Packet& b) { return a.id < b.id; });
  return got == truth;
}

}  // namespace

TracedRun run_traced(const graph::Graph& g, const core::KBroadcastConfig& cfg,
                     const core::Placement& placement, std::uint64_t seed) {
  TracedRun out;
  core::RunResult& result = out.result;
  const auto call_start = Clock::now();

  // --- Construction: exactly run_kbroadcast's wiring, untapped ---
  const core::ResolvedConfig rc = core::resolve(cfg);
  const std::vector<radio::Packet> truth = core::placement_packets(placement);
  result.n = g.num_nodes();
  result.k = static_cast<std::uint32_t>(truth.size());
  const std::uint64_t max_rounds = core::total_rounds_bound(result.k, rc);
  radio::NodeId expected_leader = 0;
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!placement[v].empty()) expected_leader = std::max(expected_leader, v);
  }

  // Per-round samples, binned by stage once the leader's Stage-3 end is known.
  std::vector<double> round_s;
  std::vector<std::uint32_t> round_awake;
  round_s.reserve(1u << 18);
  round_awake.reserve(1u << 18);

  Clock::time_point tail_start;
  radio::Round leader_s3_end = 0;
  {
    radio::ProtocolSlab<core::KBroadcastNode> slab(g.num_nodes());
    radio::Network net(g);
    Rng master(seed);
    for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
      Rng child = master.split();
      core::KBroadcastNode& node = slab.emplace(rc, v, placement[v], child);
      net.set_protocol(v, &node);
      if (!placement[v].empty()) net.wake_at_start(v);
    }

    // --- The stepping loop: Network::run_until_done, one stamp per round ---
    const auto loop_start = Clock::now();
    out.construct_s = std::chrono::duration<double>(loop_start - call_start).count();
    radio::NodeId done_count = 0;
    const auto advance_done = [&] {
      while (done_count < g.num_nodes() && net.protocol(done_count).done()) ++done_count;
      return done_count == g.num_nodes();
    };
    bool all_done = advance_done();
    auto prev = Clock::now();
    for (std::uint64_t r = 0; !all_done && r < max_rounds; ++r) {
      round_awake.push_back(static_cast<std::uint32_t>(net.num_awake()));
      net.step();
      all_done = advance_done();
      const auto now = Clock::now();
      round_s.push_back(std::chrono::duration<double>(now - prev).count());
      prev = now;
    }
    tail_start = Clock::now();
    out.loop_s = std::chrono::duration<double>(tail_start - loop_start).count();

    result.timed_out = !all_done;
    result.total_rounds = net.current_round();
    result.counters = net.trace().counters();
    result.dropped_trace_events = net.trace().dropped_events();

    // --- Verification, as run_kbroadcast does it ---
    std::uint32_t leaders = 0;
    bool leader_is_expected = false;
    const graph::BfsResult truth_bfs = graph::bfs(g, expected_leader);
    result.bfs_ok = true;
    for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto& node = static_cast<const core::KBroadcastNode&>(net.protocol(v));
      if (node.is_leader()) {
        ++leaders;
        if (v == expected_leader) leader_is_expected = true;
      }
      if (truth_bfs.dist[v] != graph::kUnreachable) {
        if (!node.has_bfs_distance() || node.bfs_distance() != truth_bfs.dist[v]) {
          result.bfs_ok = false;
        }
      }
      if (holds_all(node.delivered_packets(), truth)) ++result.nodes_complete;
    }
    result.leader_ok = leaders == 1 && leader_is_expected;
    result.delivered_all = result.nodes_complete == g.num_nodes();

    const auto& leader = static_cast<const core::KBroadcastNode&>(net.protocol(expected_leader));
    result.stage1_rounds = rc.stage1_rounds;
    result.stage2_rounds = rc.stage2_rounds;
    leader_s3_end = leader.stage3_end();
    if (leader.stage3_end() != 0) {
      result.stage3_rounds = leader.stage3_end() - rc.stage3_start();
      if (result.total_rounds > leader.stage3_end()) {
        result.stage4_rounds = result.total_rounds - leader.stage3_end();
      }
    }
    if (const core::CollectionState* coll = leader.collection()) {
      result.collection_phases = coll->phases_run();
      result.final_estimate = coll->estimate();
    }
    // Teardown (network, then slab) closes this scope inside the tail.
  }
  const auto end = Clock::now();
  out.tail_s = std::chrono::duration<double>(end - tail_start).count();
  out.wall_s = std::chrono::duration<double>(end - call_start).count();

  // Stage bins: [0, s1) [s1, s3start) [s3start, s3end) [s3end, total).
  const std::uint64_t s3_start = rc.stage3_start();
  const std::uint64_t s3_end = leader_s3_end != 0 ? leader_s3_end : round_s.size();
  for (std::uint64_t r = 0; r < round_s.size(); ++r) {
    const int s = r < rc.stage1_rounds ? 0 : r < s3_start ? 1 : r < s3_end ? 2 : 3;
    out.stages.step_s[s] += round_s[r];
    out.stages.rounds[s] += 1;
    out.stages.node_rounds[s] += round_awake[r];
  }
  return out;
}

std::string traced_mismatch(const core::RunResult& untraced, const TracedRun& traced) {
  const core::RunResult& r = traced.result;
  std::ostringstream why;
  if (r.total_rounds != untraced.total_rounds || !(r.counters == untraced.counters) ||
      exp::digest_run(r) != exp::digest_run(untraced) || r.leader_ok != untraced.leader_ok ||
      r.bfs_ok != untraced.bfs_ok) {
    why << "traced run diverged from run_kbroadcast: rounds " << r.total_rounds << " vs "
        << untraced.total_rounds << "; ";
  }
  const std::uint64_t want[4] = {untraced.stage1_rounds, untraced.stage2_rounds,
                                 untraced.stage3_rounds, untraced.stage4_rounds};
  double covered = 0;
  for (int s = 0; s < 4; ++s) {
    covered += traced.stages.step_s[s];
    if (traced.stages.rounds[s] != want[s]) {
      why << "stage " << s + 1 << " binned " << traced.stages.rounds[s] << " rounds, run reports "
          << want[s] << "; ";
    }
  }
  if (covered < 0.95 * traced.loop_s) {
    why << "per-stage time covers " << covered / traced.loop_s << " of the traced loop; ";
  }
  return why.str();
}

Gf2Cost replay_gf2(std::uint32_t width, std::uint32_t wire_bytes, double budget_s) {
  Rng rng(0x6f2c0de);
  std::vector<gf2::Payload> group(width, gf2::Payload(wire_bytes));
  for (auto& p : group) {
    for (auto& b : p) b = static_cast<std::uint8_t>(rng() & 0xff);
  }
  const gf2::GroupEncoder encoder(group);

  // Encode: the sender's per-transmission work. Batches of 256 until the
  // half budget is spent; the median batch is reported.
  std::vector<double> enc;
  gf2::Payload out;
  std::uint64_t sink = 0;
  const auto enc_start = Clock::now();
  do {
    const auto t = Clock::now();
    for (int i = 0; i < 256; ++i) sink += encoder.encode_random_word_into(rng, out) + out.size();
    enc.push_back(seconds_since(t) * 1e9 / 256);
  } while (seconds_since(enc_start) < budget_s / 2);

  // Decode: random rows fed until the group is full rank, then the
  // back-substitution; time per row offered (redundant rows included).
  std::vector<double> dec;
  std::vector<std::pair<std::uint64_t, gf2::Payload>> rows;
  const auto dec_start = Clock::now();
  do {
    rows.clear();
    for (std::uint32_t i = 0; i < 4 * width + 16; ++i) {
      gf2::Payload p;
      const std::uint64_t c = encoder.encode_random_word_into(rng, p);
      rows.emplace_back(c, std::move(p));
    }
    const auto t = Clock::now();
    gf2::IncrementalDecoder decoder(width);
    std::size_t fed = 0;
    for (auto& [c, p] : rows) {
      if (decoder.complete()) break;
      decoder.add_row_packed(c, p);
      ++fed;
    }
    if (!decoder.complete()) continue;  // vanishingly rare: rank-deficient draw
    sink += decoder.take_packets().size();
    dec.push_back(seconds_since(t) * 1e9 / static_cast<double>(fed));
  } while (seconds_since(dec_start) < budget_s / 2 || dec.empty());

  g_sink = sink;
  return Gf2Cost{median(enc), median(dec)};
}

bool RunLedger::record(bool ok, const std::string& digest) {
  ++attempted_;
  if (reference_.empty()) reference_ = digest;
  const bool pass = ok && digest == reference_;
  if (!pass) ++failed_;
  return pass;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace radiobench
