#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <thread>

#include "bench.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/zipf.h"
#include "flowcube/query.h"
#include "mining/shared_miner.h"
#include "mining/transform.h"
#include "serve/query_service.h"
#include "serve/snapshot_registry.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void Report::Check(const std::string& verdict, const std::string& what) {
  if (verdict.empty()) return;
  correct = false;
  problems.push_back(what + ": " + verdict);
}

PathDatabase Shuffled(const PathDatabase& db, uint64_t seed) {
  std::vector<PathRecord> records = db.records();
  Random rng(seed * 0xD1B54A32D192ED03ull + 5);
  for (size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[rng.Uniform(i)]);
  }
  PathDatabase out(db.schema_ptr());
  for (PathRecord& rec : records) FC_CHECK(out.Append(std::move(rec)).ok());
  return out;
}

CellKey PackKey(const std::vector<NodeId>& nodes) {
  FC_CHECK(nodes.size() <= 4);
  CellKey key = 0;
  for (size_t d = 0; d < nodes.size(); ++d) {
    FC_CHECK(nodes[d] < 0xFFFF);
    key |= static_cast<CellKey>(nodes[d]) << (16 * d);
  }
  return key;
}

std::vector<NodeId> UnpackKey(CellKey key, size_t num_dims) {
  std::vector<NodeId> nodes(num_dims);
  for (size_t d = 0; d < num_dims; ++d) {
    nodes[d] = static_cast<NodeId>((key >> (16 * d)) & 0xFFFF);
  }
  return nodes;
}

CellKey KeyOfCell(const FlowCube& cube, const Itemset& dims) {
  const ItemCatalog& cat = cube.catalog();
  std::vector<NodeId> nodes(cube.schema().num_dimensions(), 0);
  for (const ItemId item : dims) nodes[cat.DimOf(item)] = cat.NodeOf(item);
  return PackKey(nodes);
}

SupportTable CountSupports(const PathSchema& schema, const FlowCubePlan& plan,
                           std::span<const PathRecord> records) {
  const size_t num_dims = schema.num_dimensions();
  SupportTable table(plan.item_levels.size());
  std::vector<NodeId> nodes(num_dims);
  for (size_t il = 0; il < plan.item_levels.size(); ++il) {
    const std::vector<int>& levels = plan.item_levels[il].levels;
    for (const PathRecord& rec : records) {
      for (size_t d = 0; d < num_dims; ++d) {
        nodes[d] = schema.dimensions[d].AncestorAtLevel(rec.dims[d], levels[d]);
      }
      table[il][PackKey(nodes)]++;
    }
  }
  return table;
}

const char* KindName(int kind) {
  static const char* const kNames[kNumKinds] = {"point", "ancestor", "drill",
                                                "similar", "stats"};
  return kNames[kind];
}

int KindOf(const QueryRequest& request) {
  switch (request.type) {
    case RequestType::kPointLookup:
      return kPoint;
    case RequestType::kCellOrAncestor:
      return kAncestor;
    case RequestType::kDrillDown:
      return kDrill;
    case RequestType::kSimilarity:
      return kSimilar;
    default:
      return kStats;
  }
}

std::vector<QueryRequest> MakeMix(const PathSchema& schema,
                                  const FlowCubePlan& plan,
                                  const SupportTable& supports,
                                  uint32_t min_support, uint64_t seed,
                                  size_t count, bool with_stats) {
  const size_t num_dims = schema.num_dimensions();
  // Popularity rank follows support: the coarsest aggregates are the most
  // requested. The rank order is fixed by the data, so the seed changes
  // which requests are drawn, not how expensive the popular ones are.
  std::vector<std::tuple<uint32_t, size_t, CellKey>> ranked;
  for (size_t il = 0; il < supports.size(); ++il) {
    for (const auto& [key, support] : supports[il]) {
      if (support >= min_support) ranked.emplace_back(support, il, key);
    }
  }
  FC_CHECK(!ranked.empty());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (std::get<0>(a) != std::get<0>(b)) return std::get<0>(a) > std::get<0>(b);
    return std::make_pair(std::get<1>(a), std::get<2>(a)) <
           std::make_pair(std::get<1>(b), std::get<2>(b));
  });
  std::vector<std::pair<size_t, CellKey>> cells;
  for (const auto& [support, il, key] : ranked) cells.emplace_back(il, key);
  Random rng(seed * 0x9E3779B97F4A7C15ull + 17);
  // Drill-down targets: (cell, dimension) pairs with at least one frequent
  // child, so every drill-down returns cells.
  std::vector<std::pair<size_t, uint32_t>> drills;  // (index in cells, dim)
  {
    std::unordered_map<size_t, std::unordered_map<CellKey, size_t>> index;
    for (size_t i = 0; i < cells.size(); ++i) {
      index[cells[i].first][cells[i].second] = i;
    }
    for (const auto& [il, key] : cells) {
      std::vector<NodeId> nodes = UnpackKey(key, num_dims);
      for (size_t d = 0; d < num_dims; ++d) {
        const ConceptHierarchy& h = schema.dimensions[d];
        if (h.Level(nodes[d]) == 0) continue;
        ItemLevel parent_level = plan.item_levels[il];
        parent_level.levels[d]--;
        const int pil = plan.FindItemLevel(parent_level);
        if (pil < 0) continue;
        const NodeId child = nodes[d];
        nodes[d] = h.Parent(child);
        const auto it = index[static_cast<size_t>(pil)].find(PackKey(nodes));
        nodes[d] = child;
        if (it == index[static_cast<size_t>(pil)].end()) continue;
        drills.emplace_back(it->second, static_cast<uint32_t>(d));
      }
    }
    std::sort(drills.begin(), drills.end());
    drills.erase(std::unique(drills.begin(), drills.end()), drills.end());
  }
  FC_CHECK(!drills.empty());
  const ZipfSampler zipf(cells.size(), 1.0);
  const ZipfSampler drill_zipf(drills.size(), 1.0);
  std::vector<std::vector<NodeId>> leaves(num_dims);
  for (size_t d = 0; d < num_dims; ++d) {
    leaves[d] = schema.dimensions[d].Leaves();
  }
  const auto values_of = [&](CellKey key) {
    const std::vector<NodeId> nodes = UnpackKey(key, num_dims);
    std::vector<std::string> values(num_dims, "*");
    for (size_t d = 0; d < num_dims; ++d) {
      if (nodes[d] != 0) values[d] = schema.dimensions[d].Name(nodes[d]);
    }
    return values;
  };

  std::vector<QueryRequest> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    QueryRequest req;
    req.request_id = i;
    req.pl_index = static_cast<uint32_t>(rng.Uniform(plan.path_levels.size()));
    const uint64_t kind = rng.Uniform(with_stats ? kNumKinds : kStats);
    if (kind == kPoint) {
      req.type = RequestType::kPointLookup;
      req.values = values_of(cells[zipf.Sample(rng)].second);
    } else if (kind == kAncestor) {
      req.type = RequestType::kCellOrAncestor;
      for (size_t d = 0; d < num_dims; ++d) {
        req.values.push_back(schema.dimensions[d].Name(
            leaves[d][rng.Uniform(leaves[d].size())]));
      }
    } else if (kind == kDrill) {
      req.type = RequestType::kDrillDown;
      const auto& [cell, dim] = drills[drill_zipf.Sample(rng)];
      req.values = values_of(cells[cell].second);
      req.dim = dim;
    } else if (kind == kSimilar) {
      req.type = RequestType::kSimilarity;
      req.values = values_of(cells[zipf.Sample(rng)].second);
      req.values_b = values_of(cells[zipf.Sample(rng)].second);
    } else {
      req.type = RequestType::kStats;
    }
    out.push_back(std::move(req));
  }
  return out;
}

LoopResult ClosedLoop(const std::vector<std::vector<QueryRequest>>& lists,
                      const CallerFactory& factory,
                      const std::function<bool()>& keep_going,
                      bool per_kind) {
  std::vector<LoopResult> parts(lists.size());
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < lists.size(); ++c) {
    threads.emplace_back([&, c] {
      LoopResult& part = parts[c];
      part.by_kind_us.resize(kNumKinds);
      part.bytes_by_kind.resize(kNumKinds);
      const Caller call = factory(c);
      do {
        for (const QueryRequest& req : lists[c]) {
          const Clock::time_point t0 = Clock::now();
          const CallOutcome out = call(req);
          const Clock::time_point t1 = Clock::now();
          part.attempted++;
          if (!out.ok) {
            part.failed++;
            continue;
          }
          part.samples.push_back(Sample{t1, Micros(t0, t1)});
          if (per_kind) {
            const int kind = KindOf(req);
            part.by_kind_us[kind].push_back(Micros(t0, t1));
            part.bytes_by_kind[kind].push_back(static_cast<double>(out.bytes));
          }
        }
      } while (keep_going());
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult all;
  all.wall_s = Seconds(start, Clock::now());
  all.by_kind_us.resize(kNumKinds);
  all.bytes_by_kind.resize(kNumKinds);
  for (LoopResult& part : parts) {
    all.attempted += part.attempted;
    all.failed += part.failed;
    all.samples.insert(all.samples.end(), part.samples.begin(),
                       part.samples.end());
    for (int k = 0; k < kNumKinds; ++k) {
      all.by_kind_us[k].insert(all.by_kind_us[k].end(),
                               part.by_kind_us[k].begin(),
                               part.by_kind_us[k].end());
      all.bytes_by_kind[k].insert(all.bytes_by_kind[k].end(),
                                  part.bytes_by_kind[k].begin(),
                                  part.bytes_by_kind[k].end());
    }
  }
  return all;
}

void ReportLoop(const LoopResult& loop, Report* report) {
  report->attempted += loop.attempted;
  report->failed += loop.failed;
  std::vector<Sample> samples = loop.samples;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.done < b.done; });
  std::vector<double> qps, p50, p99;
  for (size_t begin = 0; begin + kChunk <= samples.size(); begin += kChunk) {
    std::vector<double> lat;
    for (size_t i = begin; i < begin + kChunk; ++i) {
      lat.push_back(samples[i].latency_us);
    }
    // A chunk's span runs from the previous chunk's last completion; the
    // first chunk loses one request's worth of span to keep the rule simple.
    const Clock::time_point from =
        begin == 0 ? samples.front().done : samples[begin - 1].done;
    const double span = Seconds(from, samples[begin + kChunk - 1].done);
    qps.push_back(static_cast<double>(begin == 0 ? kChunk - 1 : kChunk) /
                  span);
    p50.push_back(Quantile(lat, 0.50));
    p99.push_back(Quantile(lat, 0.99));
  }
  if (qps.empty()) {
    report->Check("fewer completed requests than one chunk", "load");
    return;
  }
  report->SetE2e("qps", Median(qps), "req/s");
  report->SetE2e("p50_us", Median(p50), "us");
  report->SetE2e("p99_us", Median(p99), "us");
}

void ReportWire(const LoopResult& loop,
                const std::vector<std::vector<double>>& exec_by_kind,
                Report* report) {
  for (int k = 0; k < kNumKinds; ++k) {
    if (loop.by_kind_us[k].empty()) continue;
    const std::string kind = KindName(k);
    report->SetLayer("serve.wire_us." + kind,
                     Median(loop.by_kind_us[k]) - Median(exec_by_kind[k]),
                     "us");
    report->SetLayer("serve.response_bytes." + kind,
                     Median(loop.bytes_by_kind[k]), "bytes");
  }
}

void TraceBuild(const PathDatabase& db, const FlowCubePlan& plan,
                const FlowCubeBuilderOptions& options, Report* report) {
  const Clock::time_point t0 = Clock::now();
  Result<TransformedDatabase> tdb = TransformPathDatabase(db, plan.mining);
  const Clock::time_point t1 = Clock::now();
  FC_CHECK(tdb.ok());
  SharedMinerOptions mopts = options.mining;
  mopts.min_support = options.min_support;
  mopts.num_threads = static_cast<int>(ResolveNumThreads(options.num_threads));
  SharedMiner miner(tdb.value(), mopts);
  const Clock::time_point t2 = Clock::now();
  const SharedMiningOutput mined = miner.Run();
  const Clock::time_point t3 = Clock::now();
  const Result<FlowCube> cube = FlowCubeBuilder(options).Build(db, plan);
  const Clock::time_point t4 = Clock::now();
  FC_CHECK(cube.ok());
  report->SetLayer("mining.transform_s", Seconds(t0, t1), "s");
  report->SetLayer("mining.count_s", Seconds(t2, t3), "s");
  report->SetLayer("mining.candidates",
                   static_cast<double>(mined.stats.TotalCandidates()), "count");
  report->SetLayer("flowcube.build_s", Seconds(t3, t4), "s");
  report->SetLayer("flowcube.self_s",
                   Seconds(t3, t4) - Seconds(t0, t1) - Seconds(t2, t3), "s");
  report->SetLayer("flowcube.cells", static_cast<double>(cube->TotalCells()),
                   "count");
  report->SetLayer("flowcube.redundant_cells",
                   static_cast<double>(cube->RedundantCells()), "count");
}

std::vector<std::vector<double>> TraceExec(
    const QueryService& service, std::shared_ptr<const FlowCube> cube,
    const std::vector<std::vector<QueryRequest>>& lists, Report* report) {
  std::vector<std::vector<double>> by_kind(kNumKinds);
  std::vector<double> compare_us;
  const FlowCubeQuery query(cube.get());
  for (const std::vector<QueryRequest>& list : lists) {
    for (const QueryRequest& req : list) {
      const Clock::time_point t0 = Clock::now();
      const QueryResponse resp = service.Execute(req);
      by_kind[KindOf(req)].push_back(Micros(t0, Clock::now()));
      if (req.type != RequestType::kSimilarity) continue;
      const Result<CellRef> a = query.Cell(req.values, req.pl_index);
      const Result<CellRef> b = query.Cell(req.values_b, req.pl_index);
      if (!a.ok() || !b.ok()) continue;
      const Clock::time_point c0 = Clock::now();
      volatile double distance = query.Compare(*a, *b);
      (void)distance;
      compare_us.push_back(Micros(c0, Clock::now()));
    }
  }
  for (int k = 0; k < kNumKinds; ++k) {
    if (by_kind[k].empty()) continue;
    report->SetLayer(std::string("serve.exec_us.") + KindName(k),
                     Median(by_kind[k]), "us");
  }
  report->SetLayer("flowgraph.compare_us", Median(compare_us), "us");
  return by_kind;
}

}  // namespace perfbench
