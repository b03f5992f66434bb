// End-to-end benchmark runner.
//
//   perfbench --workload build|serve|ingest|fanout --seed N --seconds S
//             --trace 0|1 --tmp DIR
//   perfbench --selftest
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Untraced runs report the end-to-end metrics. Traced
// runs first repeat the workload untraced, then run it traced, and report
// every per-layer metric plus trace.overhead_pct, the traced run's change in
// the workload's headline metric. Most layers are timed in replays after the
// timed phase, so only what tracing adds inside that phase counts: the
// timing shard backend on fanout, per-kind samples on serve, nothing on build
// or ingest, where the figure is run-to-run noise. Layers the named workload
// does not exercise are filled from short traced runs of the workloads that
// do.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using namespace perfbench;

const Clock::time_point kProcessStart = Clock::now();

// Length of the traced runs that fill layers the named workload skips.
constexpr int kProbeSeconds = 2;

struct WorkloadDef {
  const char* name;
  Report (*run)(const RunConfig&);
  const char* headline;                // trace.overhead_pct is taken on this
  std::vector<std::string> layers;     // metric-name prefixes it traces
};

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"build", RunBuild, "build_s",
       {"mining.", "flowcube.", "serve.exec_us.", "flowgraph."}},
      {"serve", RunServe, "p50_us",
       {"mining.", "flowcube.", "flowgraph.", "store.", "serve.exec_us.",
        "serve.wire_us.", "serve.response_bytes."}},
      {"ingest", RunIngest, "p50_us",
       {"mining.", "flowcube.", "store.", "serve.publish_ms", "stream."}},
      {"fanout", RunFanout, "p50_us", {"shard."}},
  };
  return defs;
}

std::vector<std::string> EndToEndNames() {
  return {"setup_s", "build_s",      "qps",        "p50_us",
          "p99_us",  "freshness_ms", "peak_rss_mb"};
}

std::vector<std::string> LayerNames() {
  std::vector<std::string> names = {
      "mining.transform_s", "mining.count_s", "mining.candidates",
      "flowcube.build_s", "flowcube.self_s", "flowcube.cells",
      "flowcube.redundant_cells", "flowgraph.compare_us", "store.save_s",
      "store.file_bytes", "store.load_ms", "store.resident_bytes"};
  for (const char* prefix :
       {"serve.exec_us.", "serve.wire_us.", "serve.response_bytes."}) {
    for (int k = 0; k < kNumKinds; ++k) {
      names.push_back(std::string(prefix) + KindName(k));
    }
  }
  for (const char* name :
       {"serve.publish_ms", "stream.ingest_ms", "stream.apply_ms",
        "stream.cells_rebuilt", "stream.redundancy_updates",
        "stream.rebuild_ms", "stream.writer_late_ms", "shard.load_s",
        "shard.call_us", "shard.fanout_sum_us", "shard.fanout_max_us",
        "shard.internal_bytes", "shard.merge_us", "trace.overhead_pct"}) {
    names.push_back(name);
  }
  return names;
}

void PrintResult(const Report& report,
                 const std::map<std::string, Metric>& metrics,
                 const std::vector<std::string>& names) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const auto it = metrics.find(name);
    if (it == metrics.end()) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second.value);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           it->second.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Marks the report incorrect for every expected metric that is missing or
// not a finite number.
void RequireMetrics(const std::map<std::string, Metric>& metrics,
                    const std::vector<std::string>& names, Report* report) {
  for (const std::string& name : names) {
    const auto it = metrics.find(name);
    if (it == metrics.end()) {
      report->Check("not measured", name);
    } else if (!std::isfinite(it->second.value)) {
      report->Check("not a finite number", name);
    }
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload build|serve|ingest|fanout "
               "--seed N --seconds S --trace 0|1 --tmp DIR\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig rc;
  rc.process_start = kProcessStart;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return RunSelfTest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      rc.workload = value;
    } else if (arg == "--seed") {
      rc.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      rc.seconds = std::atoi(value);
    } else if (arg == "--trace") {
      rc.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--tmp") {
      rc.tmp_dir = value;
    } else {
      return Usage();
    }
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : Workloads()) {
    if (rc.workload == w.name) def = &w;
  }
  if (def == nullptr || rc.seconds < 1 || rc.tmp_dir.empty()) return Usage();

  if (!rc.trace) {
    Report report = def->run(rc);
    RequireMetrics(report.e2e, EndToEndNames(), &report);
    for (const std::string& p : report.problems) {
      std::fprintf(stderr, "FAILED CHECK: %s\n", p.c_str());
    }
    PrintResult(report, report.e2e, EndToEndNames());
    return 0;
  }

  RunConfig untraced = rc;
  untraced.trace = false;
  const Report base = def->run(untraced);
  Report report = def->run(rc);
  report.correct = report.correct && base.correct;
  report.problems.insert(report.problems.end(), base.problems.begin(),
                         base.problems.end());
  const double before = base.e2e.at(def->headline).value;
  report.SetLayer("trace.overhead_pct",
                  100.0 * (report.e2e.at(def->headline).value - before) / before,
                  "%");
  const std::vector<std::string> names = LayerNames();
  for (const WorkloadDef& probe : Workloads()) {
    if (&probe == def) continue;
    std::set<std::string> wanted;
    for (const std::string& name : names) {
      if (report.layers.count(name) != 0) continue;
      for (const std::string& prefix : probe.layers) {
        if (name.rfind(prefix, 0) == 0) wanted.insert(name);
      }
    }
    if (wanted.empty()) continue;
    RunConfig probe_rc = rc;
    probe_rc.workload = probe.name;
    probe_rc.seconds = kProbeSeconds;
    const Report filled = probe.run(probe_rc);
    report.correct = report.correct && filled.correct;
    report.problems.insert(report.problems.end(), filled.problems.begin(),
                           filled.problems.end());
    for (const std::string& name : wanted) {
      const auto it = filled.layers.find(name);
      if (it != filled.layers.end()) report.layers[name] = it->second;
    }
  }
  RequireMetrics(report.layers, names, &report);
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "FAILED CHECK: %s\n", p.c_str());
  }
  PrintResult(report, report.layers, names);
  return 0;
}
