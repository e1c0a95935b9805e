// Self-test of the benchmark's measurement pieces, on tiny workloads.
// Exits 0 when every check passes; prints each failed check otherwise.
#include <iostream>
#include <string>

#include "core/runner.hpp"
#include "exp/run.hpp"
#include "workloads.hpp"

using namespace radiocast;
using namespace radiobench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

void two_runs_identical() {
  for (const std::string name : {"pipeline", "coding"}) {
    const Workload w = make_workload(name, /*tiny=*/true);
    const Seeds seeds = derive_seeds(7);
    const Inputs a = make_inputs(w, seeds);
    const Inputs b = make_inputs(w, seeds);
    check(a.graph.num_edges() == b.graph.num_edges() && a.know == b.know &&
              a.placement == b.placement,
          name + ": set-up is a function of the seed");
    const ClosedRun r1 = run_closed(a, seeds);
    const ClosedRun r2 = run_closed(b, seeds);
    check(closed_ok(r1.result), name + ": run passes its correctness check");
    check(r1.result.counters == r2.result.counters &&
              exp::digest_run(r1.result) == exp::digest_run(r2.result),
          name + ": two runs give identical counts and digests");
  }
  const Workload w = make_workload("stream", true);
  const Seeds seeds = derive_seeds(7);
  const Inputs in = make_inputs(w, seeds);
  const stream::StreamConfig cfg = stream_config(w, in, seeds);
  const StreamRun s1 = run_stream_once(cfg, in);
  const StreamRun s2 = run_stream_once(cfg, in);
  check(stream_ok(s1.result) && s1.result.arrivals_scheduled > 0,
        "stream: arrivals == delivered + dropped + in_system_end");
  check(stream_digest(s1.result) == stream_digest(s2.result),
        "stream: two runs give identical deterministic fields");
}

void replica_matches_runner() {
  for (const std::string name : {"pipeline", "coding"}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const Workload w = make_workload(name, true);
      const Seeds seeds = derive_seeds(seed);
      const Inputs in = make_inputs(w, seeds);
      const ClosedRun run = run_closed(in, seeds);
      const TracedRun traced = run_traced(in.graph, closed_config(in), in.placement,
                                          seeds.protocol);
      const std::string mismatch = traced_mismatch(run.result, traced);
      check(mismatch.empty(), name + " seed " + std::to_string(seed) +
                                  ": traced replica reproduces run_kbroadcast " + mismatch);
      if (seed != 1) continue;
      TracedRun diverged = traced;
      diverged.result.counters.deliveries += 1;
      check(!traced_mismatch(run.result, diverged).empty(),
            name + ": a counter divergence is flagged");
      TracedRun uncovered = traced;
      uncovered.loop_s *= 2;
      check(!traced_mismatch(run.result, uncovered).empty(),
            name + ": stage time under 95% of the loop is flagged");
    }
  }
}

void digest_mismatch_counts_as_failure() {
  RunLedger ledger;
  check(ledger.record(true, "digest-a"), "ledger: first run sets the reference");
  check(!ledger.record(true, "digest-b"), "ledger: a different digest fails the run");
  check(!ledger.record(false, "digest-a"), "ledger: a failed verdict fails the run");
  check(ledger.attempted() == 3 && ledger.failed() == 2 && ledger.fail_frac() == 2.0 / 3.0,
        "ledger: failures land in fail_frac");
}

}  // namespace

int main() {
  two_runs_identical();
  replica_matches_runner();
  digest_mismatch_counts_as_failure();
  if (failures != 0) {
    std::cout << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "all checks passed\n";
  return 0;
}
