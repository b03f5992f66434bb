// The four workloads. Each one generates its inputs from the seed, sets up
// the system (timed as setup_s from process start), warms up, runs a timed
// phase, samples peak RSS, and only then runs its correctness oracles. With
// RunConfig::trace it also fills the per-layer metrics of the layers it
// exercises, timed around calls into each layer's public functions.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/logging.h"
#include "gen/path_generator.h"
#include "rfid/reader_simulator.h"
#include "serve/client.h"
#include "serve/query_service.h"
#include "serve/server.h"
#include "serve/snapshot_registry.h"
#include "shard/backend.h"
#include "shard/coordinator.h"
#include "shard/ingest_splitter.h"
#include "shard/partitioner.h"
#include "shard/shard_node.h"
#include "store/mapped_cube.h"
#include "store/warm_start.h"
#include "stream/checkpoint.h"
#include "stream/incremental_maintainer.h"
#include "stream/stream_ingestor.h"

namespace perfbench {
namespace {

// Load shape shared by the served workloads: two closed-loop clients against
// two server workers, so client and server threads fit in four cores.
constexpr size_t kClients = 2;
constexpr int kServerWorkers = 2;

double Millis(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void SetSetup(const RunConfig& rc, Report* report) {
  report->SetE2e("setup_s", Seconds(rc.process_start, Clock::now()), "s");
}

std::function<bool()> Until(Clock::time_point deadline) {
  return [deadline] { return Clock::now() < deadline; };
}

Clock::time_point DeadlineAfter(int seconds) {
  return Clock::now() + std::chrono::seconds(seconds);
}

// One request list per client, each from its own seed.
std::vector<std::vector<QueryRequest>> ClientLists(
    const PathSchema& schema, const FlowCubePlan& plan,
    const SupportTable& supports, uint32_t min_support, uint64_t seed,
    size_t clients, size_t per_round, bool with_stats) {
  std::vector<std::vector<QueryRequest>> lists;
  for (size_t c = 0; c < clients; ++c) {
    lists.push_back(MakeMix(schema, plan, supports, min_support,
                            seed * 31 + c + 1, per_round, with_stats));
  }
  return lists;
}

// A caller per client thread, each over its own FCQP connection.
CallerFactory WireCallers(uint16_t port) {
  return [port](size_t) -> Caller {
    Result<ServeClient> connected = ServeClient::Connect(port);
    FC_CHECK_MSG(connected.ok(), connected.status().message());
    auto client = std::make_shared<ServeClient>(std::move(connected).value());
    return [client](const QueryRequest& req) {
      const Result<QueryResponse> resp = client->Call(req);
      CallOutcome out;
      out.ok = resp.ok() && resp->code == Status::Code::kOk;
      if (resp.ok()) out.bytes = resp->body.size();
      return out;
    };
  };
}

// Replays the first chunk of every list over a fresh connection and
// byte-compares each response with QueryService::ExecuteOn on `want` (epoch
// included).
std::string CompareWire(uint16_t port,
                        const std::vector<std::vector<QueryRequest>>& lists,
                        const CubeSnapshot& want) {
  Result<ServeClient> client = ServeClient::Connect(port);
  if (!client.ok()) return "connect: " + client.status().message();
  for (const std::vector<QueryRequest>& list : lists) {
    for (size_t i = 0; i < std::min(list.size(), kChunk); ++i) {
      const QueryRequest& req = list[i];
      const Result<QueryResponse> got = client->Call(req);
      if (!got.ok()) return "call: " + got.status().message();
      const QueryResponse expected = QueryService::ExecuteOn(want, req);
      if (got->epoch != expected.epoch) return "epoch differs";
      const std::string verdict = CompareResponse(got.value(), expected);
      if (!verdict.empty()) {
        return std::string(KindName(KindOf(req))) + " request: " + verdict;
      }
    }
  }
  return "";
}

void SetStoreLayers(double save_s, const std::string& file, double load_ms,
                    size_t resident_bytes, Report* report) {
  report->SetLayer("store.save_s", save_s, "s");
  report->SetLayer("store.file_bytes",
                   static_cast<double>(std::filesystem::file_size(file)),
                   "bytes");
  report->SetLayer("store.load_ms", load_ms, "ms");
  report->SetLayer("store.resident_bytes",
                   static_cast<double>(resident_bytes), "bytes");
}

// build_s outside the build workload: the median of kBuilds
// FlowCubeBuilder::Build calls over the workload's records, run after the
// timed phase. One build is too short a sample on a shared machine. Returns
// the last cube for the oracles.
constexpr int kBuilds = 5;
FlowCube MedianBuild(const PathDatabase& db, const FlowCubePlan& plan,
                     const FlowCubeBuilderOptions& options, Report* report) {
  std::vector<double> seconds;
  std::unique_ptr<FlowCube> cube;
  for (int i = 0; i < kBuilds; ++i) {
    const Clock::time_point t0 = Clock::now();
    Result<FlowCube> built = FlowCubeBuilder(options).Build(db, plan);
    seconds.push_back(Seconds(t0, Clock::now()));
    FC_CHECK_MSG(built.ok(), built.status().message());
    cube = std::make_unique<FlowCube>(std::move(built).value());
  }
  report->SetE2e("build_s", Median(seconds), "s");
  return std::move(*cube);
}

}  // namespace

// ---------------------------------------------------------------------------
// build: repeated FlowCubeBuilder::Build of the Section 6.1 baseline at 3
// dimensions, each followed by a fixed batch of in-process queries on the
// fresh cube. Mining and measure assembly dominate; nothing crosses a wire.

Report RunBuild(const RunConfig& rc) {
  constexpr size_t kPaths = 10000;
  constexpr size_t kChunksPerRound = 3;
  constexpr size_t kListChunks = 10;  // distinct chunks, used round-robin
  constexpr size_t kMinRounds = 3;
  Report report;
  const PathDatabase db =
      Shuffled(PathGenerator(BaselineConfig(3)).Generate(kPaths), rc.seed);
  const FlowCubePlan plan = FlowCubePlan::Default(db.schema()).value();
  FlowCubeBuilderOptions options;
  options.min_support = static_cast<uint32_t>(db.size() / 100);
  const SupportTable supports = CountSupports(db.schema(), plan, db.records());
  const std::vector<std::vector<QueryRequest>> lists =
      ClientLists(db.schema(), plan, supports, options.min_support, rc.seed,
                  1, kListChunks * kChunk, /*with_stats=*/true);

  // One round: a Build, its publication, and kChunksPerRound chunks of
  // queries on the fresh cube. Build metrics are medians over rounds, query
  // metrics medians over chunks.
  const FlowCubeBuilder builder(options);
  SnapshotRegistry registry;
  const QueryService service(&registry);
  std::vector<double> build_s, fresh_ms, qps, p50, p99;
  size_t next_query = 0;
  const auto round = [&] {
    const Clock::time_point t0 = Clock::now();
    Result<FlowCube> cube = builder.Build(db, plan);
    const Clock::time_point t1 = Clock::now();
    report.attempted++;
    if (!cube.ok()) {
      report.failed++;
      return;
    }
    registry.Publish(std::make_shared<const FlowCube>(std::move(cube).value()),
                     db.size());
    build_s.push_back(Seconds(t0, t1));
    std::vector<double> lat;
    for (size_t i = 0; i < kChunksPerRound * kChunk; ++i) {
      const QueryRequest& req = lists[0][next_query];
      next_query = (next_query + 1) % lists[0].size();
      const Clock::time_point q0 = Clock::now();
      const QueryResponse resp = service.Execute(req);
      const Clock::time_point q1 = Clock::now();
      report.attempted++;
      if (resp.code != Status::Code::kOk) {
        report.failed++;
      } else {
        if (i == 0) fresh_ms.push_back(Millis(t0, q1));
        lat.push_back(Micros(q0, q1));
      }
      if (lat.size() == kChunk) {
        qps.push_back(static_cast<double>(kChunk) / (Sum(lat) / 1e6));
        p50.push_back(Quantile(lat, 0.50));
        p99.push_back(Quantile(lat, 0.99));
        lat.clear();
      }
    }
  };

  // The first round is the warm-up and the last step of set-up, as the
  // preload build is in the other workloads.
  round();
  SetSetup(rc, &report);
  next_query = 0;
  report.attempted = report.failed = 0;
  build_s.clear();
  fresh_ms.clear();
  qps.clear();
  p50.clear();
  p99.clear();
  const Clock::time_point deadline = DeadlineAfter(rc.seconds);
  size_t rounds = 0;
  do {
    round();
  } while (++rounds < kMinRounds || Clock::now() < deadline);
  report.SetE2e("peak_rss_mb", PeakRssMb(), "MiB");
  report.SetE2e("build_s", Median(build_s), "s");
  report.SetE2e("freshness_ms", Median(fresh_ms), "ms");
  report.SetE2e("qps", Median(qps), "req/s");
  report.SetE2e("p50_us", Median(p50), "us");
  report.SetE2e("p99_us", Median(p99), "us");

  const SnapshotPtr last = registry.Acquire();
  report.Check(CheckSupports(*last->cube, supports, options.min_support),
               "build: supports");
  report.Check(CheckConservation(*last->cube), "build: conservation");
  if (rc.trace) {
    TraceBuild(db, plan, options, &report);
    TraceExec(service, last->cube, lists, &report);
  }
  return report;
}

// ---------------------------------------------------------------------------
// serve: a static snapshot warm-started from an FCSP v2 checkpoint and served
// over FCQP to two closed-loop clients.

Report RunServe(const RunConfig& rc) {
  constexpr size_t kPaths = 10000;
  constexpr size_t kPerRound = 5000;
  constexpr int kWarmStarts = 20;
  Report report;
  const PathDatabase db =
      Shuffled(PathGenerator(BaselineConfig(3)).Generate(kPaths), rc.seed);
  const FlowCubePlan plan = FlowCubePlan::Default(db.schema()).value();
  IncrementalMaintainerOptions options;
  options.build.min_support = static_cast<uint32_t>(db.size() / 100);
  const SupportTable supports = CountSupports(db.schema(), plan, db.records());
  const std::vector<std::vector<QueryRequest>> lists =
      ClientLists(db.schema(), plan, supports, options.build.min_support,
                  rc.seed, kClients, kPerRound, /*with_stats=*/true);

  const std::string file = rc.tmp_dir + "/serve.fcsp";
  double save_s = 0.0;
  {
    Result<IncrementalMaintainer> m =
        IncrementalMaintainer::Create(db.schema_ptr(), plan, options);
    FC_CHECK(m.ok());
    FC_CHECK(m->ApplyRecords(db.records()).ok());
    const Clock::time_point t0 = Clock::now();
    FC_CHECK(SaveCheckpoint(m.value(), nullptr, file, kCheckpointFormatV2).ok());
    save_s = Seconds(t0, Clock::now());
  }
  SnapshotRegistry registry;
  const Clock::time_point l0 = Clock::now();
  const Result<WarmStart> ws = WarmStartFromCheckpoint(
      file, db.schema_ptr(), plan, options, &registry);
  const double load_ms = Millis(l0, Clock::now());
  FC_CHECK_MSG(ws.ok(), ws.status().message());
  const QueryService service(&registry);
  ServerOptions sopts;
  sopts.num_workers = kServerWorkers;
  std::unique_ptr<QueryServer> server =
      std::move(QueryServer::Start(&service, sopts)).value();
  SetSetup(rc, &report);

  const CallerFactory callers = WireCallers(server->port());
  ClosedLoop(lists, callers, [] { return false; }, false);  // warm-up
  const LoopResult loop =
      ClosedLoop(lists, callers, Until(DeadlineAfter(rc.seconds)), rc.trace);
  report.SetE2e("peak_rss_mb", PeakRssMb(), "MiB");
  ReportLoop(loop, &report);
  const size_t resident = ws->mapped->ResidentBytes();

  // Freshness of a restart: checkpoint on disk to first answer.
  std::vector<double> fresh_ms;
  for (int i = 0; i < kWarmStarts; ++i) {
    const Clock::time_point t0 = Clock::now();
    SnapshotRegistry fresh_registry;
    const Result<WarmStart> again = WarmStartFromCheckpoint(
        file, db.schema_ptr(), plan, options, &fresh_registry);
    FC_CHECK(again.ok());
    QueryRequest stats;
    stats.type = RequestType::kStats;
    const QueryResponse resp =
        QueryService::ExecuteOn(*fresh_registry.Acquire(), stats);
    fresh_ms.push_back(Millis(t0, Clock::now()));
    report.attempted++;
    if (resp.code != Status::Code::kOk) report.failed++;
  }
  report.SetE2e("freshness_ms", Median(fresh_ms), "ms");

  const FlowCube heap = MedianBuild(db, plan, options.build, &report);
  const FlowCube& served = ws->mapped->cube();
  report.Check(CompareDumps(served, heap), "serve: mapped vs rebuild");
  report.Check(CheckSupports(served, supports, options.build.min_support),
               "serve: supports");
  report.Check(CheckConservation(served), "serve: conservation");
  CubeSnapshot want;
  want.epoch = ws->epoch;
  want.records = ws->live_records;
  want.cube = std::make_shared<const FlowCube>(heap.Clone());
  report.Check(CompareWire(server->port(), lists, want),
               "serve: wire vs in-process rebuild");

  if (rc.trace) {
    TraceBuild(db, plan, options.build, &report);
    const std::vector<std::vector<double>> exec =
        TraceExec(service, ws->mapped->shared_cube(), lists, &report);
    ReportWire(loop, exec, &report);
    SetStoreLayers(save_s, file, load_ms, resident, &report);
  }
  server->Shutdown();
  std::filesystem::remove(file);
  return report;
}

// ---------------------------------------------------------------------------
// ingest: raw readings on an open-loop schedule through StreamIngestor into
// IncrementalMaintainer::ApplyRecords, each batch published as an epoch,
// while two closed-loop readers query the live epochs over FCQP.

Report RunIngest(const RunConfig& rc) {
  constexpr size_t kPreload = 4000;
  constexpr size_t kBatch = 40;  // 1% of the preloaded records
  constexpr auto kPeriod = std::chrono::milliseconds(500);
  constexpr int64_t kBinSeconds = 3600;
  constexpr int64_t kCloseAfter = 4 * kBinSeconds;
  constexpr size_t kPerRound = 500;
  constexpr EpcId kHeartbeatEpc = EpcId{1} << 40;
  const size_t batches = static_cast<size_t>(std::max(2, 2 * rc.seconds));
  Report report;
  const PathDatabase db = Shuffled(
      PathGenerator(BaselineConfig(2)).Generate(kPreload + batches * kBatch),
      rc.seed);
  const SchemaPtr schema = db.schema_ptr();
  const FlowCubePlan plan = FlowCubePlan::Default(*schema).value();
  IncrementalMaintainerOptions options;
  options.build.min_support = static_cast<uint32_t>(kPreload / 100);
  const std::span<const PathRecord> preload =
      std::span<const PathRecord>(db.records()).first(kPreload);
  const std::vector<std::vector<QueryRequest>> lists = ClientLists(
      *schema, plan, CountSupports(*schema, plan, preload),
      options.build.min_support, rc.seed, kClients, kPerRound,
      /*with_stats=*/true);

  // The streamed items' readings, batch b in its own time window, each batch
  // ending with a heartbeat from an unregistered reference tag that moves the
  // watermark past the batch so every item of the batch closes in it.
  PathDatabase streamed(schema);
  for (size_t i = kPreload; i < db.size(); ++i) {
    FC_CHECK(streamed.Append(db.record(static_cast<uint32_t>(i))).ok());
  }
  const std::vector<RawReading> readings =
      ReaderSimulator(ReaderSimulatorOptions{}, rc.seed)
          .Simulate(PathGenerator::ToItineraries(streamed, kBinSeconds));
  int64_t span = 0;
  for (const RawReading& r : readings) span = std::max(span, r.timestamp);
  const int64_t window = span + kCloseAfter + 1;
  std::vector<std::vector<RawReading>> batch_readings(batches);
  for (RawReading r : readings) {
    const size_t b = static_cast<size_t>(r.epc - 1) / kBatch;
    r.timestamp += static_cast<int64_t>(b) * window;
    batch_readings[b].push_back(r);
  }
  for (size_t b = 0; b < batches; ++b) {
    batch_readings[b].push_back(
        RawReading{kHeartbeatEpc + b, readings.front().location,
                   static_cast<int64_t>(b) * window + span + kCloseAfter});
  }

  IncrementalMaintainer maintainer =
      std::move(IncrementalMaintainer::Create(schema, plan, options)).value();
  SnapshotRegistry registry;
  struct Published {
    Clock::time_point begin;
    Clock::time_point end;
    std::shared_ptr<const FlowCube> cube;
  };
  // Appended only from inside ApplyRecords, on whichever thread applies.
  std::vector<Published> published;
  maintainer.SetPublishHook([&](const IncrementalMaintainer& m) {
    const Clock::time_point t0 = Clock::now();
    auto clone = std::make_shared<const FlowCube>(m.cube().Clone());
    registry.Publish(clone, m.live_record_count());
    published.push_back(Published{t0, Clock::now(), std::move(clone)});
  });
  FC_CHECK(maintainer.ApplyRecords(preload).ok());
  StreamIngestorOptions iopts;
  iopts.bin_seconds = kBinSeconds;
  iopts.close_after_seconds = kCloseAfter;
  StreamIngestor ingestor(schema, iopts);
  for (size_t i = 0; i < streamed.size(); ++i) {
    FC_CHECK(ingestor.RegisterItem(static_cast<EpcId>(i + 1),
                                   streamed.record(static_cast<uint32_t>(i)).dims)
                 .ok());
  }
  const QueryService service(&registry);
  ServerOptions sopts;
  sopts.num_workers = kServerWorkers;
  std::unique_ptr<QueryServer> server =
      std::move(QueryServer::Start(&service, sopts)).value();
  SetSetup(rc, &report);

  const CallerFactory callers = WireCallers(server->port());
  ClosedLoop(lists, callers, [] { return false; }, false);  // warm-up

  std::vector<Clock::time_point> due(batches), pushed(batches);
  std::vector<double> fresh_ms, ingest_ms, apply_ms, publish_ms, late_ms;
  std::vector<double> cells_rebuilt, redundancy_updates;
  std::atomic<bool> done{false};
  size_t applied = 0;
  const Clock::time_point start = Clock::now();
  std::thread writer([&] {
    for (size_t b = 0; b < batches; ++b) {
      due[b] = start + b * kPeriod;
      std::this_thread::sleep_until(due[b]);
      pushed[b] = Clock::now();
      FC_CHECK(ingestor.Push(std::move(batch_readings[b])).ok());
    }
    ingestor.Close();
  });
  std::thread applier([&] {
    while (std::optional<StreamDelta> delta = ingestor.Pop()) {
      const Clock::time_point popped = Clock::now();
      const size_t b = delta->batch_sequence;
      FC_CHECK(b < batches);
      const size_t before = published.size();
      ApplyStats stats;
      const Clock::time_point a0 = Clock::now();
      const Status s = maintainer.ApplyRecords(delta->records, &stats);
      const Clock::time_point a1 = Clock::now();
      if (!s.ok() || published.size() != before + 1) continue;
      applied++;
      const Published& p = published.back();
      fresh_ms.push_back(Millis(due[b], p.end));
      publish_ms.push_back(Millis(p.begin, p.end));
      apply_ms.push_back(Millis(a0, a1) - publish_ms.back());
      ingest_ms.push_back(Millis(pushed[b], popped));
      late_ms.push_back(Millis(due[b], pushed[b]));
      cells_rebuilt.push_back(static_cast<double>(stats.cells_rebuilt));
      redundancy_updates.push_back(
          static_cast<double>(stats.redundancy_updates));
    }
    done.store(true);
  });
  const LoopResult loop =
      ClosedLoop(lists, callers, [&] { return !done.load(); }, false);
  writer.join();
  applier.join();
  report.SetE2e("peak_rss_mb", PeakRssMb(), "MiB");
  ReportLoop(loop, &report);
  report.attempted += batches;
  report.failed += batches - applied;
  report.SetE2e("freshness_ms", Median(fresh_ms), "ms");

  // The figure the maintainer must beat: a rebuild over the live records.
  const std::vector<PathRecord> live = maintainer.LiveRecords();
  PathDatabase live_db(schema);
  for (const PathRecord& rec : live) FC_CHECK(live_db.Append(rec).ok());
  const FlowCube rebuilt = MedianBuild(live_db, plan, options.build, &report);

  // After the last batch: save a v2 checkpoint and reload it.
  const std::string file = rc.tmp_dir + "/ingest.fcsp";
  const Clock::time_point s0 = Clock::now();
  FC_CHECK(SaveCheckpoint(maintainer, nullptr, file, kCheckpointFormatV2).ok());
  const Clock::time_point s1 = Clock::now();
  const Result<std::shared_ptr<const MappedCube>> reloaded =
      MappedCube::Load(file, schema, plan, options);
  const Clock::time_point s2 = Clock::now();
  FC_CHECK_MSG(reloaded.ok(), reloaded.status().message());

  report.Check(CompareDumps(maintainer.cube(), rebuilt),
               "ingest: maintained cube vs rebuild over LiveRecords");
  report.Check(CompareDumps(reloaded.value()->cube(), rebuilt),
               "ingest: reloaded checkpoint vs rebuild over LiveRecords");
  report.Check(CheckSupports(maintainer.cube(),
                             CountSupports(*schema, plan, live),
                             options.build.min_support),
               "ingest: supports");
  report.Check(CheckConservation(maintainer.cube()), "ingest: conservation");
  for (size_t i = 1; i < published.size(); ++i) {
    report.Check(CheckMonotone(*published[i - 1].cube, *published[i].cube),
                 "ingest: support across epochs " + std::to_string(i));
  }

  if (rc.trace) {
    TraceBuild(live_db, plan, options.build, &report);
    SetStoreLayers(Seconds(s0, s1), file, Millis(s1, s2),
                   reloaded.value()->ResidentBytes(), &report);
    report.SetLayer("serve.publish_ms", Median(publish_ms), "ms");
    report.SetLayer("stream.ingest_ms", Median(ingest_ms), "ms");
    report.SetLayer("stream.apply_ms", Median(apply_ms), "ms");
    report.SetLayer("stream.cells_rebuilt", Median(cells_rebuilt), "count");
    report.SetLayer("stream.redundancy_updates", Median(redundancy_updates),
                    "count");
    report.SetLayer("stream.rebuild_ms", report.e2e.at("build_s").value * 1e3,
                    "ms");
    report.SetLayer("stream.writer_late_ms", Median(late_ms), "ms");
  }
  server->Shutdown();
  std::filesystem::remove(file);
  return report;
}

// ---------------------------------------------------------------------------
// fanout: ShardCoordinator::Execute over RemoteShardBackend to four remote
// ShardNodes, driven by two closed-loop callers.

namespace {

// Times every shard call and groups the calls by the public request id the
// coordinator copies into its internal requests.
class TimingBackend : public ShardBackend {
 public:
  struct Calls {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
    size_t bytes = 0;
  };

  explicit TimingBackend(ShardBackend* inner) : inner_(inner) {}

  Result<QueryResponse> Call(size_t shard,
                             const QueryRequest& request) override {
    const Clock::time_point t0 = Clock::now();
    Result<QueryResponse> resp = inner_->Call(shard, request);
    const Clock::time_point t1 = Clock::now();
    const std::lock_guard<std::mutex> lock(mu_);
    Calls& calls = calls_[request.request_id];
    calls.spans.emplace_back(t0, t1);
    if (resp.ok()) calls.bytes += resp->body.size();
    return resp;
  }
  size_t num_shards() const override { return inner_->num_shards(); }

  Calls Take(uint64_t request_id) {
    const std::lock_guard<std::mutex> lock(mu_);
    auto node = calls_.extract(request_id);
    return node.empty() ? Calls{} : std::move(node.mapped());
  }

 private:
  ShardBackend* inner_;
  std::mutex mu_;
  std::map<uint64_t, Calls> calls_;
};

// Length of the union of the call intervals, in microseconds.
double CoveredMicros(
    std::vector<std::pair<Clock::time_point, Clock::time_point>> spans) {
  std::sort(spans.begin(), spans.end());
  double covered = 0.0;
  Clock::time_point reach = Clock::time_point::min();
  for (const auto& [begin, end] : spans) {
    const Clock::time_point from = std::max(begin, reach);
    if (end > from) covered += Micros(from, end);
    reach = std::max(reach, end);
  }
  return covered;
}

}  // namespace

Report RunFanout(const RunConfig& rc) {
  constexpr size_t kPaths = 4000;
  constexpr size_t kShards = 4;
  constexpr size_t kPerRound = 500;
  constexpr size_t kFreshBatches = 20;
  constexpr size_t kFreshBatch = 5;
  Report report;
  const PathDatabase db = Shuffled(
      PathGenerator(BaselineConfig(2))
          .Generate(kPaths + kFreshBatches * kFreshBatch),
      rc.seed);
  const SchemaPtr schema = db.schema_ptr();
  const FlowCubePlan plan = FlowCubePlan::Default(*schema).value();
  FlowCubeBuilderOptions global;
  global.min_support = static_cast<uint32_t>(kPaths / 100);
  global.compute_exceptions = false;  // holistic passes the coordinator
  global.mark_redundant = false;      // does not merge
  const std::span<const PathRecord> records(db.records());
  // Stats is left out of the mix: a coordinator kStats ships every shard
  // cell and takes about a second.
  const std::vector<std::vector<QueryRequest>> lists = ClientLists(
      *schema, plan, CountSupports(*schema, plan, records.first(kPaths)),
      global.min_support, rc.seed, kClients, kPerRound,
      /*with_stats=*/false);

  const std::unique_ptr<ShardPartitioner> partitioner =
      MakePartitioner("dims_hash", kShards,
                      schema->dimensions[0].NodeCount())
          .value();
  std::vector<std::unique_ptr<ShardNode>> nodes;
  std::vector<ShardNode*> raw;
  std::vector<uint16_t> ports;
  for (size_t s = 0; s < kShards; ++s) {
    ShardNodeOptions nopts;
    nopts.global_build = global;
    nopts.serve_remote = true;
    nodes.push_back(std::move(ShardNode::Create(schema, plan, nopts)).value());
    raw.push_back(nodes.back().get());
    ports.push_back(nodes.back()->port());
  }
  ShardIngestSplitter splitter(partitioner.get(), raw);
  const Clock::time_point b0 = Clock::now();
  FC_CHECK(splitter.Apply(records.first(kPaths)).ok());
  const double load_s = Seconds(b0, Clock::now());
  RemoteShardBackend remote(ports);
  TimingBackend timing(&remote);
  ShardCoordinatorOptions copts;
  copts.min_support = global.min_support;
  const ShardCoordinator coordinator(
      schema, plan, rc.trace ? static_cast<ShardBackend*>(&timing) : &remote,
      copts);
  SetSetup(rc, &report);

  // Traced callers give each request a unique id so the timing backend can
  // group its shard calls; untraced callers send the list as is.
  struct FanoutSample {
    std::vector<double> call_us, sum_us, max_us, bytes, merge_us;
  };
  std::vector<FanoutSample> samples(kClients);
  bool tracing = false;
  const CallerFactory callers = [&](size_t c) -> Caller {
    if (!tracing) {
      return [&coordinator](const QueryRequest& req) {
        const CoordinatorResult r = coordinator.Execute(req);
        return CallOutcome{r.response.code == Status::Code::kOk,
                           r.response.body.size()};
      };
    }
    auto next_id = std::make_shared<uint64_t>((uint64_t{c} + 1) << 40);
    return [&, c, next_id](const QueryRequest& req) {
      QueryRequest tagged = req;
      tagged.request_id = (*next_id)++;
      const Clock::time_point t0 = Clock::now();
      const CoordinatorResult r = coordinator.Execute(tagged);
      const double exec_us = Micros(t0, Clock::now());
      const TimingBackend::Calls calls = timing.Take(tagged.request_id);
      FanoutSample& out = samples[c];
      double sum = 0.0, max = 0.0;
      for (const auto& [begin, end] : calls.spans) {
        out.call_us.push_back(Micros(begin, end));
        sum += out.call_us.back();
        max = std::max(max, out.call_us.back());
      }
      out.sum_us.push_back(sum);
      out.max_us.push_back(max);
      out.bytes.push_back(static_cast<double>(calls.bytes));
      out.merge_us.push_back(exec_us - CoveredMicros(calls.spans));
      return CallOutcome{r.response.code == Status::Code::kOk,
                         r.response.body.size()};
    };
  };
  ClosedLoop(lists, callers, [] { return false; }, false);  // warm-up
  tracing = rc.trace;
  const LoopResult loop =
      ClosedLoop(lists, callers, Until(DeadlineAfter(rc.seconds)), false);
  tracing = false;
  report.SetE2e("peak_rss_mb", PeakRssMb(), "MiB");
  ReportLoop(loop, &report);

  // Freshness: a small batch through the splitter until the coordinator
  // answers from the epochs that hold it.
  QueryRequest apex;
  apex.type = RequestType::kPointLookup;
  apex.values.assign(schema->num_dimensions(), "*");
  std::vector<uint64_t> epochs = coordinator.Execute(apex).epochs;
  std::vector<double> fresh_ms;
  for (size_t b = 0; b < kFreshBatches; ++b) {
    const Clock::time_point t0 = Clock::now();
    const Status applied =
        splitter.Apply(records.subspan(kPaths + b * kFreshBatch, kFreshBatch));
    const CoordinatorResult r = coordinator.Execute(apex);
    fresh_ms.push_back(Millis(t0, Clock::now()));
    report.attempted++;
    if (!applied.ok() || r.response.code != Status::Code::kOk) {
      report.failed++;
      continue;
    }
    if (r.epochs == epochs) {
      report.Check("no shard epoch advanced", "fanout: freshness batch");
    }
    epochs = r.epochs;
  }
  report.SetE2e("freshness_ms", Median(fresh_ms), "ms");
  timing.Take(0);

  // Every public response byte-matches single-node execution on a
  // monolithic build over all records, once the monolithic graphs are put in
  // the canonical node numbering the coordinator's merge emits.
  FlowCube canonical = MedianBuild(db, plan, global, &report);
  canonical.ForEachCuboidMutable([](Cuboid* cuboid) {
    cuboid->ForEachMutable(
        [](FlowCell* cell) { cell->graph = cell->graph.Canonical(); });
  });
  CubeSnapshot want;
  want.epoch = 1;
  want.records = db.size();
  want.cube = std::make_shared<const FlowCube>(std::move(canonical));
  std::string verdict;
  for (const std::vector<QueryRequest>& list : lists) {
    for (const QueryRequest& req : list) {
      if (!verdict.empty()) break;
      verdict = CompareResponse(coordinator.Execute(req).response,
                                QueryService::ExecuteOn(want, req));
      if (!verdict.empty()) {
        verdict = std::string(KindName(KindOf(req))) + " request: " + verdict;
      }
    }
  }
  report.Check(verdict, "fanout: coordinator vs monolithic");

  if (rc.trace) {
    std::vector<double> call_us, sum_us, max_us, bytes, merge_us;
    for (const FanoutSample& s : samples) {
      call_us.insert(call_us.end(), s.call_us.begin(), s.call_us.end());
      sum_us.insert(sum_us.end(), s.sum_us.begin(), s.sum_us.end());
      max_us.insert(max_us.end(), s.max_us.begin(), s.max_us.end());
      bytes.insert(bytes.end(), s.bytes.begin(), s.bytes.end());
      merge_us.insert(merge_us.end(), s.merge_us.begin(), s.merge_us.end());
    }
    report.SetLayer("shard.load_s", load_s, "s");
    report.SetLayer("shard.call_us", Median(call_us), "us");
    report.SetLayer("shard.fanout_sum_us", Median(sum_us), "us");
    report.SetLayer("shard.fanout_max_us", Median(max_us), "us");
    report.SetLayer("shard.internal_bytes", Median(bytes), "bytes");
    report.SetLayer("shard.merge_us", Median(merge_us), "us");
  }
  return report;
}

}  // namespace perfbench
