// radiobench — the radiocast benchmark program.
//
//   radiobench --workload <pipeline|coding|stream> --seed <n> --seconds <s>
//              --trace <0|1> [--tiny]
//
// --trace 0 times the untapped run call and prints the end-to-end metrics;
// --trace 1 prints the per-layer split (see README.md). The last stdout
// line is one JSON object {"correct", "attempted", "failed", "metrics"};
// the line before it records the host facts and seeds. --tiny shrinks the
// workload for the benchmark's own tests.
#include <sys/resource.h>

#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "audit/model_auditor.hpp"
#include "cli/cli.hpp"
#include "core/runner.hpp"
#include "exp/manifest.hpp"
#include "exp/run.hpp"
#include "obs/observer.hpp"
#include "obs/packet_trace.hpp"
#include "stream/arrivals.hpp"
#include "workloads.hpp"

using namespace radiocast;
using namespace radiobench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  bool tiny = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        a.workload = val;
        have[0] = true;
      } else if (arg == "--seed") {
        a.seed = std::stoull(val);
        have[1] = true;
      } else if (arg == "--seconds") {
        a.seconds = std::stod(val);
        have[2] = a.seconds > 0;
      } else if (arg == "--trace") {
        a.trace = std::stoi(val);
        have[3] = a.trace == 0 || a.trace == 1;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have[0] && have[1] && have[2] && have[3];
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Metrics in insertion order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = entries_.size();
      entries_.push_back({name, value, unit});
    } else {
      entries_[index_[name]].value = value;
    }
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (i > 0) out += ", ";
      out += json_string(e.name) + ": {\"value\": " + json_number(e.value) +
             ", \"unit\": " + json_string(e.unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Host facts and seeds, printed as the line before the result.
void print_host(const Args& a, const Seeds& s) {
  std::ostringstream version, err;
  cli::cli_main({"version"}, version, err);
  const exp::BuildInfo b = exp::build_info();
  std::cout << "{\"host\": {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": " << json_string(b.compiler)
            << ", \"build_type\": " << json_string(b.build_type)
            << ", \"radiocast_version\": " << json_string(version.str())
            << ", \"engine\": \"scalar\", \"shards\": 1, \"threads\": 1"
            << ", \"workload\": " << json_string(a.workload)
            << ", \"scale\": " << json_string(a.tiny ? "tiny" : "full")
            << ", \"seed\": " << a.seed << ", \"seeds\": {\"graph\": " << s.graph
            << ", \"placement\": " << s.placement << ", \"protocol\": " << s.protocol
            << ", \"arrivals\": " << s.arrivals << "}"
            << ", \"computed\": [\"gf2.est_s\", \"gf2.est_frac_stage4\"]}}\n";
}

/// Generates the inputs several times; returns the last set and the
/// median timings. Every repetition must produce the same inputs.
struct Setup {
  Inputs inputs;
  double total_s = 0;
  double generate_s = 0;
  double knowledge_s = 0;
};

Setup run_setup(const Workload& w, const Seeds& seeds, RunLedger& ledger) {
  constexpr int kMinReps = 7;
  constexpr int kMaxReps = 101;
  constexpr double kBudgetS = 1.5;
  std::vector<double> total, gen, know;
  Setup out;
  const auto start = Clock::now();
  do {
    Inputs in = make_inputs(w, seeds);
    total.push_back(in.total_s());
    gen.push_back(in.generate_s);
    know.push_back(in.knowledge_s);
    if (total.size() > 1 &&
        (in.graph.num_edges() != out.inputs.graph.num_edges() || !(in.know == out.inputs.know) ||
         in.placement != out.inputs.placement)) {
      std::cerr << "radiobench: set-up is not deterministic for seed\n";
      ledger.fail();
    }
    out.inputs = std::move(in);
  } while (static_cast<int>(total.size()) < kMaxReps &&
           (static_cast<int>(total.size()) < kMinReps || seconds_since(start) < kBudgetS));
  out.total_s = median(total);
  out.generate_s = median(gen);
  out.knowledge_s = median(know);
  return out;
}

constexpr std::size_t kCodedKind =
    radio::MessageBody(std::in_place_type<radio::CodedMsg>).index();

void set_radio(Metrics& m, const radio::TraceCounters& c) {
  m.set("radio.transmissions", static_cast<double>(c.transmissions), "count");
  m.set("radio.deliveries", static_cast<double>(c.deliveries), "count");
  m.set("radio.collision_slots", static_cast<double>(c.collision_slots), "count");
  m.set("radio.deaf_slots", static_cast<double>(c.deaf_slots), "count");
  m.set("radio.bits_delivered", static_cast<double>(c.bits_delivered), "bit");
  const double outcomes =
      static_cast<double>(c.deliveries + c.collision_slots + c.deaf_slots);
  m.set("radio.delivery_ratio", outcomes == 0 ? 0 : c.deliveries / outcomes, "ratio");
}

/// gf2.* from the run's coded-message counts and a per-op replay at the
/// workload's group width and wire size. `stage_s` is the time the
/// estimate is a share of (Stage 4 when closed, the whole run when stream).
void set_gf2(Metrics& m, const radio::TraceCounters& c, std::uint32_t width,
             std::uint32_t wire_bytes, double stage_s, double budget_s) {
  const Gf2Cost cost = replay_gf2(width, wire_bytes, budget_s);
  const double tx = static_cast<double>(c.transmissions_by_kind[kCodedKind]);
  const double rx = static_cast<double>(c.deliveries_by_kind[kCodedKind]);
  const double est_s = 1e-9 * (tx * cost.encode_ns + rx * cost.decode_row_ns);
  m.set("gf2.coded_tx", tx, "count");
  m.set("gf2.coded_rx", rx, "count");
  m.set("gf2.encode_ns", cost.encode_ns, "ns/op");
  m.set("gf2.decode_row_ns", cost.decode_row_ns, "ns/row");
  m.set("gf2.est_s", est_s, "s.computed");
  m.set("gf2.est_frac_stage4", stage_s > 0 ? est_s / stage_s : 0, "frac.computed");
}

/// Zero-fills the per-layer metrics a workload has no layer for, so every
/// traced result carries the full per-layer set (0 = not applicable).
void set_unmeasured_core(Metrics& m) {
  m.set("core.construct_s", 0, "s");
  for (int s = 1; s <= 4; ++s) {
    const std::string p = "core.stage" + std::to_string(s);
    m.set(p + ".step_s", 0, "s");
    m.set(p + ".rounds", 0, "count");
    m.set(p + ".node_rounds", 0, "count");
    m.set(p + ".ns_per_node_round", 0, "ns");
  }
  m.set("core.tail_s", 0, "s");
}

void set_unmeasured_stream(Metrics& m) {
  for (const char* name : {"stream.arrivals", "stream.delivered", "stream.dropped",
                           "stream.in_system_end", "stream.epochs"}) {
    m.set(name, 0, "count");
  }
  m.set("stream.arrival_schedule_s", 0, "s");
  m.set("stream.ns_per_node_round", 0, "ns");
}

/// Calls `call` once, then again while one more call of the mean length
/// still fits in `seconds` — so a run measures about `seconds`, never
/// much more, whatever one call costs.
template <typename F>
void repeat_for(double seconds, F&& call) {
  const auto start = Clock::now();
  int calls = 0;
  double elapsed = 0;
  do {
    call();
    ++calls;
    elapsed = seconds_since(start);
  } while (elapsed + elapsed / calls <= seconds);
}

double overhead(double tapped, double base) { return base > 0 ? tapped / base - 1.0 : 0; }

// ---------------------------------------------------------------------------

/// The end-to-end metrics; the per-call rates also go to stderr.
void set_timed(Metrics& m, const Setup& setup, const std::vector<double>& rates) {
  std::cerr << "radiobench: sim_rounds_per_s per call:";
  for (const double r : rates) std::cerr << ' ' << r;
  std::cerr << "\n";
  m.set("setup_s", setup.total_s, "s");
  m.set("sim_rounds_per_s", median(rates), "rounds/s");
  m.set("peak_rss_mib", peak_rss_mib(), "MiB");
}

void closed_timed(const Args& a, const Workload& w, const Seeds& seeds, RunLedger& ledger,
                  Metrics& m) {
  const Setup setup = run_setup(w, seeds, ledger);
  std::vector<double> rates;
  repeat_for(a.seconds, [&] {
    const ClosedRun run = run_closed(setup.inputs, seeds);
    ledger.record(closed_ok(run.result), exp::digest_run(run.result));
    rates.push_back(static_cast<double>(run.result.total_rounds) / run.usage.wall_s);
  });
  set_timed(m, setup, rates);
}

void stream_timed(const Args& a, const Workload& w, const Seeds& seeds, RunLedger& ledger,
                  Metrics& m) {
  const Setup setup = run_setup(w, seeds, ledger);
  const stream::StreamConfig cfg = stream_config(w, setup.inputs, seeds);
  std::vector<double> rates;
  repeat_for(a.seconds, [&] {
    const StreamRun run = run_stream_once(cfg, setup.inputs);
    ledger.record(stream_ok(run.result), stream_digest(run.result));
    rates.push_back(static_cast<double>(cfg.horizon) / run.usage.wall_s);
  });
  set_timed(m, setup, rates);
}

void set_graph(Metrics& m, const Setup& setup) {
  m.set("graph.generate_s", setup.generate_s, "s");
  m.set("graph.knowledge_s", setup.knowledge_s, "s");
  m.set("graph.edges", static_cast<double>(setup.inputs.graph.num_edges()), "count");
}

/// Pairs of untapped and traced runs until --seconds is spent, then (on
/// pipeline) one observer-tapped and one audited run.
bool closed_traced(const Args& a, const Workload& w, const Seeds& seeds, RunLedger& ledger,
                   Metrics& m) {
  bool sound = true;
  const Setup setup = run_setup(w, seeds, ledger);
  const Inputs& in = setup.inputs;
  const core::KBroadcastConfig cfg = closed_config(in);

  std::vector<double> untapped_s, trace_frac, construct, tail, sys, faults;
  std::vector<double> step[4];
  core::RunResult first;
  StageSplit split;
  repeat_for(a.seconds, [&] {
    // Alternate which side of the pair runs first.
    ClosedRun run;
    TracedRun traced;
    if (untapped_s.size() % 2 == 0) {
      run = run_closed(in, seeds);
      traced = run_traced(in.graph, cfg, in.placement, seeds.protocol);
    } else {
      traced = run_traced(in.graph, cfg, in.placement, seeds.protocol);
      run = run_closed(in, seeds);
    }
    ledger.record(closed_ok(run.result), exp::digest_run(run.result));
    const std::string mismatch = traced_mismatch(run.result, traced);
    if (!mismatch.empty()) {
      std::cerr << "radiobench: FAIL " << mismatch << "\n";
      sound = false;
    }
    ledger.record(mismatch.empty() && closed_ok(traced.result), exp::digest_run(traced.result));
    for (int s = 0; s < 4; ++s) step[s].push_back(traced.stages.step_s[s]);
    if (untapped_s.empty()) {
      first = run.result;
      split = traced.stages;
    }
    untapped_s.push_back(run.usage.wall_s);
    trace_frac.push_back(overhead(traced.wall_s, run.usage.wall_s));
    construct.push_back(traced.construct_s);
    tail.push_back(traced.tail_s);
    sys.push_back(run.usage.sys_s);
    faults.push_back(static_cast<double>(run.usage.minor_faults));
  });
  const double base_s = median(untapped_s);

  double observer_frac = 0;
  double audit_frac = 0;
  if (w.name == "pipeline") {
    obs::RunObserver observer;
    obs::PacketTracer tracer;
    auto t = Clock::now();
    const core::RunResult tapped = core::run_kbroadcast(
        in.graph, cfg, in.placement, seeds.protocol, 0, {}, &observer, nullptr, false, &tracer);
    observer_frac = overhead(seconds_since(t), base_s);
    ledger.record(closed_ok(tapped), exp::digest_run(tapped));

    audit::ModelAuditor auditor;
    t = Clock::now();
    const core::RunResult audited = core::run_kbroadcast(in.graph, cfg, in.placement,
                                                         seeds.protocol, 0, {}, nullptr, &auditor);
    audit_frac = overhead(seconds_since(t), base_s);
    if (!auditor.clean()) std::cerr << "radiobench: FAIL audit: " << auditor.summary() << "\n";
    ledger.record(closed_ok(audited) && auditor.clean(), exp::digest_run(audited));
  }

  set_graph(m, setup);
  m.set("core.construct_s", median(construct), "s");
  for (int s = 0; s < 4; ++s) {
    const std::string p = "core.stage" + std::to_string(s + 1);
    const double step_s = median(step[s]);
    m.set(p + ".step_s", step_s, "s");
    m.set(p + ".rounds", static_cast<double>(split.rounds[s]), "count");
    m.set(p + ".node_rounds", static_cast<double>(split.node_rounds[s]), "count");
    m.set(p + ".ns_per_node_round",
          split.node_rounds[s] == 0 ? 0 : 1e9 * step_s / split.node_rounds[s], "ns");
  }
  m.set("core.tail_s", median(tail), "s");
  set_radio(m, first.counters);
  const std::uint32_t width = core::resolve(cfg).group_size;
  set_gf2(m, first.counters, width, w.payload_bytes + 8, median(step[3]), a.tiny ? 0.02 : 0.4);
  set_unmeasured_stream(m);
  m.set("obs.observer_overhead_frac", observer_frac, "frac");
  m.set("audit.overhead_frac", audit_frac, "frac");
  m.set("host.sys_s", median(sys), "s");
  m.set("host.minor_faults", median(faults), "count");
  m.set("trace.overhead_frac", median(trace_frac), "frac");
  return sound;
}

void stream_traced(const Args& a, const Workload& w, const Seeds& seeds, RunLedger& ledger,
                   Metrics& m) {
  const Setup setup = run_setup(w, seeds, ledger);
  const Inputs& in = setup.inputs;
  stream::StreamConfig cfg = stream_config(w, in, seeds);

  std::vector<double> sched;
  for (int i = 0; i < 5; ++i) {
    const auto t = Clock::now();
    const auto schedule = stream::make_arrival_schedule(w.n, cfg.arrivals, cfg.horizon);
    sched.push_back(seconds_since(t));
  }

  std::vector<double> wall, sys, faults;
  stream::StreamResult first;
  repeat_for(a.seconds, [&] {
    const StreamRun run = run_stream_once(cfg, in);
    ledger.record(stream_ok(run.result), stream_digest(run.result));
    if (wall.empty()) first = run.result;
    wall.push_back(run.usage.wall_s);
    sys.push_back(run.usage.sys_s);
    faults.push_back(static_cast<double>(run.usage.minor_faults));
  });
  const double base_s = median(wall);

  cfg.audit = true;
  const StreamRun audited = run_stream_once(cfg, in);
  if (!audited.result.audited || audited.result.audit_violations != 0) {
    std::cerr << "radiobench: FAIL stream audit: " << audited.result.audit_summary << "\n";
  }
  ledger.record(audited.result.audited && stream_ok(audited.result),
                stream_digest(audited.result));

  set_graph(m, setup);
  set_unmeasured_core(m);
  set_radio(m, first.counters);
  set_gf2(m, first.counters, cfg.dyn.rc.group_size, cfg.arrivals.payload_bytes + 8, base_s,
          a.tiny ? 0.02 : 0.4);
  m.set("stream.arrivals", static_cast<double>(first.arrivals_scheduled), "count");
  m.set("stream.delivered", static_cast<double>(first.delivered_everywhere), "count");
  m.set("stream.dropped", static_cast<double>(first.queue.dropped), "count");
  m.set("stream.in_system_end", static_cast<double>(first.in_system_end), "count");
  m.set("stream.epochs", static_cast<double>(first.epochs_completed), "count");
  m.set("stream.arrival_schedule_s", median(sched), "s");
  m.set("stream.ns_per_node_round",
        1e9 * base_s / (static_cast<double>(cfg.horizon) * w.n), "ns");
  m.set("obs.observer_overhead_frac", 0, "frac");
  m.set("audit.overhead_frac", overhead(audited.usage.wall_s, base_s), "frac");
  m.set("host.sys_s", median(sys), "s");
  m.set("host.minor_faults", median(faults), "count");
  m.set("trace.overhead_frac", 0, "frac");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::cerr << "usage: radiobench --workload <pipeline|coding|stream> --seed <n> "
                 "--seconds <s> --trace <0|1> [--tiny]\n";
    return 2;
  }
  Workload w;
  try {
    w = make_workload(a.workload, a.tiny);
  } catch (const std::exception& e) {
    std::cerr << "radiobench: " << e.what() << "\n";
    return 2;
  }
  const Seeds seeds = derive_seeds(a.seed);
  print_host(a, seeds);

  RunLedger ledger;
  Metrics m;
  bool sound = true;
  try {
    if (a.trace == 0) {
      if (w.stream) {
        stream_timed(a, w, seeds, ledger, m);
      } else {
        closed_timed(a, w, seeds, ledger, m);
      }
    } else {
      if (w.stream) {
        stream_traced(a, w, seeds, ledger, m);
      } else {
        sound = closed_traced(a, w, seeds, ledger, m);
      }
      m.set("fail_frac", ledger.fail_frac(), "frac");
    }
  } catch (const std::exception& e) {
    std::cerr << "radiobench: run failed: " << e.what() << "\n";
    ledger.fail();
    sound = false;
  }
  const bool correct = sound && ledger.failed() == 0 && ledger.attempted() > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted() << ", \"failed\": " << ledger.failed()
            << ", \"metrics\": " << m.json() << "}" << std::endl;
  return 0;
}
