#ifndef FLOWCUBE_PERFBENCH_BENCH_H_
#define FLOWCUBE_PERFBENCH_BENCH_H_

// Shared pieces of the end-to-end benchmark: run configuration, the report
// every workload fills, the seeded request mix, the closed-loop client
// loop, and the independent correctness oracles (oracles.cc).

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "flowcube/builder.h"
#include "flowcube/flowcube.h"
#include "flowcube/plan.h"
#include "gen/generator_config.h"
#include "path/path.h"
#include "path/path_database.h"
#include "serve/protocol.h"
#include "serve/query_service.h"

namespace perfbench {

using namespace flowcube;
using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 when empty.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Sum(const std::vector<double>& v);

// Peak resident set of this process so far, in MiB (getrusage ru_maxrss).
double PeakRssMb();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string tmp_dir;  // scratch files (checkpoints) live here
  Clock::time_point process_start;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one workload run produced. `e2e` holds the end-to-end metrics,
// `layers` the per-layer ones (filled only when tracing).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;

  // Records an oracle verdict: an empty string means the check passed.
  void Check(const std::string& verdict, const std::string& what);
  void SetE2e(const std::string& name, double value, const char* unit) {
    e2e[name] = Metric{value, unit};
  }
  void SetLayer(const std::string& name, double value, const char* unit) {
    layers[name] = Metric{value, unit};
  }
};

Report RunBuild(const RunConfig& rc);
Report RunServe(const RunConfig& rc);
Report RunIngest(const RunConfig& rc);
Report RunFanout(const RunConfig& rc);

// Feeds every oracle one corrupted input and returns the number of checkers
// that failed to notice (0 = every check can fail).
int RunSelfTest();

// ---------------------------------------------------------------------------
// Inputs.

// The paper's Section 6.1 baseline generator knobs (dataset "b"), shared
// with the figure benchmarks. Its generator seed is fixed, so every run
// serves the same database; the benchmark seed picks the record order and
// the request streams (Shuffled, MakeMix), which keeps the amount of work
// per run the same across seeds.
using bench::BaselineConfig;
// The records of `db` in a seeded random order.
PathDatabase Shuffled(const PathDatabase& db, uint64_t seed);

// A cell coordinate as one hierarchy node per dimension (the root stands for
// '*'), packed 16 bits per dimension.
using CellKey = uint64_t;
CellKey PackKey(const std::vector<NodeId>& nodes);
std::vector<NodeId> UnpackKey(CellKey key, size_t num_dims);
// The packed key of a materialized cell, read through the cube's catalog.
CellKey KeyOfCell(const FlowCube& cube, const Itemset& dims);

// Support of every cell of every item level in the plan, counted by walking
// each record's dimension values up to that level's ancestors. Indexed like
// plan.item_levels.
using SupportTable = std::vector<std::unordered_map<CellKey, uint32_t>>;
SupportTable CountSupports(const PathSchema& schema, const FlowCubePlan& plan,
                           std::span<const PathRecord> records);

// ---------------------------------------------------------------------------
// Request mix.

enum ReqKind { kPoint = 0, kAncestor, kDrill, kSimilar, kStats, kNumKinds };
const char* KindName(int kind);
int KindOf(const QueryRequest& request);

// `count` requests over the cells `supports` counts at or above
// `min_support`. Cells are drawn Zipf (alpha 1) over their support rank. The
// kinds have equal shares: point lookup, cell-or-ancestor on random leaf
// coordinates, drill-down (into a dimension where the cell has a frequent
// child), similarity between two cells and, `with_stats`, stats. No traffic
// record backs these choices; they are assumed. Path levels are drawn
// uniformly.
std::vector<QueryRequest> MakeMix(const PathSchema& schema,
                                  const FlowCubePlan& plan,
                                  const SupportTable& supports,
                                  uint32_t min_support, uint64_t seed,
                                  size_t count, bool with_stats);

// ---------------------------------------------------------------------------
// Closed-loop load: `lists.size()` client threads, each sending its list in
// whole rounds with no pause between requests, until `keep_going()` turns
// false at a round boundary (checked after every round, at least one round).

struct CallOutcome {
  bool ok = false;
  size_t bytes = 0;  // response body bytes
};
// One client's request sender; built on the client's own thread.
using Caller = std::function<CallOutcome(const QueryRequest&)>;
using CallerFactory = std::function<Caller(size_t client)>;

struct Sample {
  Clock::time_point done;  // completion time
  double latency_us = 0.0;
};

struct LoopResult {
  std::vector<Sample> samples;                       // every request
  std::vector<std::vector<double>> by_kind_us;       // per ReqKind
  std::vector<std::vector<double>> bytes_by_kind;    // per ReqKind
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
};
LoopResult ClosedLoop(const std::vector<std::vector<QueryRequest>>& lists,
                      const CallerFactory& factory,
                      const std::function<bool()>& keep_going,
                      bool per_kind);

// Sets qps / p50_us / p99_us from a timed loop: the samples are cut, in
// completion order, into chunks of kChunk requests; each chunk gives its own
// throughput, median and 99th percentile (ten samples beyond it), and the
// report takes the median over chunks, so a few seconds of interference from
// outside the process move no metric.
inline constexpr size_t kChunk = 1000;
void ReportLoop(const LoopResult& loop, Report* report);
// Sets serve.wire_us.<kind> / serve.response_bytes.<kind> from a traced loop
// and the in-process exec medians of the same requests.
void ReportWire(const LoopResult& loop,
                const std::vector<std::vector<double>>& exec_by_kind,
                Report* report);

// ---------------------------------------------------------------------------
// Per-layer replays from the benchmark's own files.

// Times TransformPathDatabase and SharedMiner::Run with the options Build
// uses, then Build itself: mining.* and flowcube.*.
void TraceBuild(const PathDatabase& db, const FlowCubePlan& plan,
                const FlowCubeBuilderOptions& options, Report* report);
// Times QueryService::Execute per request kind, replaying the lists in
// process on the service a server worker would call (returns the samples by
// kind), and FlowCubeQuery::Compare on the similarity requests over `cube`
// (flowgraph.compare_us).
std::vector<std::vector<double>> TraceExec(
    const QueryService& service, std::shared_ptr<const FlowCube> cube,
    const std::vector<std::vector<QueryRequest>>& lists, Report* report);

// ---------------------------------------------------------------------------
// Oracles. Each returns "" when the property holds, else what broke.

// Every materialized cell's support equals the ancestor-walk count, and every
// cell at or above min_support is materialized, in every cuboid.
std::string CheckSupports(const FlowCube& cube, const SupportTable& oracle,
                          uint32_t min_support);
// Flowgraph count conservation for one cell: root count = support; at every
// node, children + terminations = node count; below the root, duration
// counts sum to the node count.
std::string CheckGraph(const FlowGraph& graph, uint32_t support);
std::string CheckConservation(const FlowCube& cube);
// Byte comparison of two FCQP responses (status, message, body).
std::string CompareResponse(const QueryResponse& got,
                            const QueryResponse& want);
// Byte comparison of two canonical cube dumps (DumpFlowCube).
std::string CompareDumps(const FlowCube& got, const FlowCube& want);
// No cell of `earlier` lost support (or vanished) in `later`; ingestion is
// append-only.
std::string CheckMonotone(const FlowCube& earlier, const FlowCube& later);

}  // namespace perfbench

#endif  // FLOWCUBE_PERFBENCH_BENCH_H_
