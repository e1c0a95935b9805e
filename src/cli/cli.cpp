#include "cli/cli.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "exp/jsonval.hpp"
#include "exp/manifest.hpp"
#include "gf2/simd.hpp"
#include "exp/report.hpp"
#include "exp/run.hpp"
#include "exp/scenario.hpp"

namespace radiocast::cli {

namespace {

constexpr const char* kUsage = R"(radiocast — declarative experiment orchestration

usage:
  radiocast run <spec.json> [--out DIR] [--seeds N] [--threads N]
                [--audit] [--quiet] [--require-delivery]
  radiocast trace <spec.json> [run options]
  radiocast report <results.json> [--out FILE]
  radiocast validate <spec.json>
  radiocast list [DIR]
  radiocast version

run       execute a scenario; writes <id>.results.json + <id>.manifest.json
          (+ <id>.telemetry.jsonl when the spec enables telemetry)
trace     run with per-packet telemetry + flight paths forced on; also
          writes <id>.flight_trace.json (Chrome trace_event format)
report    render a results file as a markdown table
validate  parse + validate a spec, print its canonical resolved form
list      summarize the scenario files in DIR (default: scenarios/)
version   build provenance (git describe, compiler, flags, simd)

exit codes: 0 ok | 1 usage/spec/IO error | 2 audit violations
            3 delivery failure (with --require-delivery)

See docs/experiments.md for the scenario schema and manifest format.
)";

std::string now_utc_iso8601() {
  const std::time_t t =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Parses the value of an integer flag: the whole string must be a base-10
/// integer in [min_value, INT_MAX], or the run fails with a usage error
/// naming the flag and the value.
int parse_int_flag(const std::string& flag, const std::string& value,
                   int min_value) {
  int v = 0;
  const char* const last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, v);
  if (value.empty() || ec != std::errc() || ptr != last || v < min_value) {
    throw std::runtime_error(flag + " expects a " +
                             (min_value > 0 ? "positive" : "non-negative") +
                             " integer, got '" + value + "'");
  }
  return v;
}

int cmd_run(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err, bool trace_mode = false) {
  std::string spec_path, out_dir = ".";
  int seeds_override = 0, threads_override = -1;
  bool audit_override = false, quiet = false, require_delivery = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw std::runtime_error("missing value after " + a);
      return args[++i];
    };
    if (a == "--out") {
      out_dir = next();
    } else if (a == "--seeds") {
      seeds_override = parse_int_flag(a, next(), 1);
    } else if (a == "--threads") {
      threads_override = parse_int_flag(a, next(), 0);
    } else if (a == "--audit") {
      audit_override = true;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--require-delivery") {
      require_delivery = true;
    } else if (!a.empty() && a[0] == '-') {
      throw std::runtime_error("unknown option " + a);
    } else if (spec_path.empty()) {
      spec_path = a;
    } else {
      throw std::runtime_error("unexpected argument " + a);
    }
  }
  if (spec_path.empty()) throw std::runtime_error("run: missing <spec.json>");

  exp::ScenarioSpec spec = exp::parse_scenario(read_file(spec_path));
  if (seeds_override > 0) spec.seeds = seeds_override;
  if (threads_override >= 0) spec.threads = threads_override;
  if (audit_override) spec.audit = true;
  if (trace_mode) {
    spec.telemetry.enabled = true;
    spec.telemetry.flight_paths = true;
  }
  exp::validate_scenario(spec);  // overrides may have invalidated the spec

  exp::ScenarioOutcome outcome = exp::run_scenario(spec);

  // Stamp the wall clock into the (digest-excluded) environment section.
  exp::JsonObject& manifest = outcome.manifest.as_object("manifest");
  if (exp::JsonValue* env = manifest.find("environment"))
    env->as_object("manifest.environment").set("timestamp_utc", now_utc_iso8601());

  std::filesystem::create_directories(out_dir);
  const std::string results_path = out_dir + "/" + spec.id + ".results.json";
  const std::string manifest_path = out_dir + "/" + spec.id + ".manifest.json";
  write_file(results_path, exp::json_serialize(outcome.results, 2));
  write_file(manifest_path, exp::json_serialize(outcome.manifest, 2));

  if (!quiet) out << exp::render_report(outcome.results) << "\n";
  out << "results:  " << results_path << "\n";
  out << "manifest: " << manifest_path << " ("
      << exp::manifest_digest(outcome.manifest) << ")\n";

  if (spec.telemetry.enabled) {
    const std::string telemetry_path = out_dir + "/" + spec.id + ".telemetry.jsonl";
    write_file(telemetry_path, outcome.telemetry);
    std::string digest;
    if (const exp::JsonValue* d = manifest.find("telemetry_digest"))
      digest = d->as_string("manifest.telemetry_digest");
    out << "telemetry: " << telemetry_path << " (" << digest << ")\n";
    if (!outcome.flight_trace.empty()) {
      const std::string trace_path = out_dir + "/" + spec.id + ".flight_trace.json";
      write_file(trace_path, outcome.flight_trace);
      out << "flight trace: " << trace_path << "\n";
    }
  }
  if (outcome.dropped_trace_events > 0) {
    err << "warning: " << outcome.dropped_trace_events
        << " engine trace events were dropped (bounded event log overflowed); "
           "per-event artifacts are incomplete\n";
  }

  if (!outcome.audit_clean) {
    err << "AUDIT VIOLATIONS:\n";
    for (const std::string& v : outcome.audit_violations) err << "  " << v << "\n";
    return 2;
  }
  if (require_delivery && !outcome.all_delivered) {
    err << "delivery failure: at least one trial did not deliver all packets\n";
    return 3;
  }
  return 0;
}

int cmd_report(const std::vector<std::string>& args, std::ostream& out) {
  std::string results_path, out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--out") {
      if (i + 1 >= args.size()) throw std::runtime_error("missing value after --out");
      out_path = args[++i];
    } else if (!a.empty() && a[0] == '-') {
      throw std::runtime_error("unknown option " + a);
    } else if (results_path.empty()) {
      results_path = a;
    } else {
      throw std::runtime_error("unexpected argument " + a);
    }
  }
  if (results_path.empty()) throw std::runtime_error("report: missing <results.json>");

  const std::string markdown =
      exp::render_report(exp::json_parse(read_file(results_path)));
  if (out_path.empty()) {
    out << markdown;
  } else {
    write_file(out_path, markdown);
    out << "report: " << out_path << "\n";
  }
  return 0;
}

int cmd_validate(const std::vector<std::string>& args, std::ostream& out) {
  if (args.size() != 1) throw std::runtime_error("validate: expected one <spec.json>");
  const exp::ScenarioSpec spec = exp::parse_scenario(read_file(args[0]));
  out << exp::serialize_scenario(spec) << "\n";
  return 0;
}

int cmd_list(const std::vector<std::string>& args, std::ostream& out) {
  const std::string dir = args.empty() ? "scenarios" : args[0];
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    try {
      const exp::ScenarioSpec spec = exp::parse_scenario(read_file(path.string()));
      std::size_t cells = 0;
      if (spec.mode == "dynamic") {
        cells = spec.dynamic.load.size();
      } else if (spec.mode == "stream") {
        cells = spec.stream.rate.size() * spec.stream.buffer.size() *
                spec.stream.policy.size();
      } else {
        cells = spec.algos.size() * spec.placement.size() * spec.k.size() *
                spec.loss.size() * spec.collision_detection.size();
      }
      out << path.string() << "\n  " << spec.id << " [" << spec.mode << ", "
          << cells << " cells x " << spec.seeds << " seeds] " << spec.title
          << "\n";
    } catch (const std::exception& e) {
      out << path.string() << "\n  INVALID: " << e.what() << "\n";
    }
  }
  return 0;
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << content;
  if (content.empty() || content.back() != '\n') out << '\n';
  if (!out) throw std::runtime_error("write failed for " + path);
}

int cli_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  try {
    if (args.empty() || args[0] == "--help" || args[0] == "-h" || args[0] == "help") {
      out << kUsage;
      return args.empty() ? 1 : 0;
    }
    const std::string& cmd = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (cmd == "run") return cmd_run(rest, out, err);
    if (cmd == "trace") return cmd_run(rest, out, err, /*trace_mode=*/true);
    if (cmd == "report") return cmd_report(rest, out);
    if (cmd == "validate") return cmd_validate(rest, out);
    if (cmd == "list") return cmd_list(rest, out);
    if (cmd == "version" || cmd == "--version") {
      const exp::BuildInfo b = exp::build_info();
      out << "radiocast " << b.git_describe << "\n"
          << "  compiler:   " << b.compiler << "\n"
          << "  build_type: " << b.build_type << "\n"
          << "  cxx_flags:  " << b.cxx_flags << "\n"
          << "  simd:       " << gf2::simd_kernel_name() << "\n";
      return 0;
    }
    err << "unknown command \"" << cmd << "\"\n\n" << kUsage;
    return 1;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace radiocast::cli
