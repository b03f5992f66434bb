// Correctness oracles. None of them reads a stored copy of earlier output:
// supports are recounted from the records, flowgraphs are checked for count
// conservation, and responses and dumps are compared against from-scratch
// builds made here.

#include "bench.h"
#include "common/string_util.h"
#include "flowcube/dump.h"

namespace perfbench {

std::string CheckSupports(const FlowCube& cube, const SupportTable& oracle,
                          uint32_t min_support) {
  const FlowCubePlan& plan = cube.plan();
  if (oracle.size() != plan.item_levels.size()) {
    return "oracle covers a different number of item levels";
  }
  for (size_t il = 0; il < plan.item_levels.size(); ++il) {
    size_t frequent = 0;
    for (const auto& [key, support] : oracle[il]) {
      if (support >= min_support) frequent++;
    }
    for (size_t pl = 0; pl < plan.path_levels.size(); ++pl) {
      const Cuboid& cuboid = cube.cuboid(il, pl);
      std::string problem;
      cuboid.ForEach([&](const FlowCell& cell) {
        if (!problem.empty()) return;
        const auto it = oracle[il].find(KeyOfCell(cube, cell.dims));
        const uint32_t want = it == oracle[il].end() ? 0 : it->second;
        if (cell.support != want) {
          problem = StrFormat("cell %s at il %zu pl %zu has support %u, "
                              "records give %u",
                              cube.CellName(cell.dims).c_str(), il, pl,
                              cell.support, want);
        } else if (want < min_support) {
          problem = "cell " + cube.CellName(cell.dims) +
                    " is materialized below the iceberg threshold";
        }
      });
      if (!problem.empty()) return problem;
      if (cuboid.size() != frequent) {
        return StrFormat("cuboid il %zu pl %zu holds %zu cells, records give "
                         "%zu frequent cells",
                         il, pl, cuboid.size(), frequent);
      }
    }
  }
  return "";
}

std::string CheckGraph(const FlowGraph& graph, uint32_t support) {
  if (graph.total_paths() != support) {
    return StrFormat("root count %u differs from support %u",
                     graph.total_paths(), support);
  }
  for (FlowNodeId n = 0; n < graph.num_nodes(); ++n) {
    uint64_t out = graph.terminate_count(n);
    for (const FlowNodeId child : graph.children(n)) {
      out += graph.path_count(child);
    }
    if (out != graph.path_count(n)) {
      return StrFormat("node %u: children + terminations = %llu, count %u", n,
                       static_cast<unsigned long long>(out),
                       graph.path_count(n));
    }
    if (n == FlowGraph::kRoot) continue;
    uint64_t durations = 0;
    for (const DurationCount& dc : graph.duration_counts(n)) {
      durations += dc.count;
    }
    if (durations != graph.path_count(n)) {
      return StrFormat("node %u: duration counts sum to %llu, count %u", n,
                       static_cast<unsigned long long>(durations),
                       graph.path_count(n));
    }
  }
  return "";
}

std::string CheckConservation(const FlowCube& cube) {
  std::string problem;
  cube.ForEachCuboid([&](const Cuboid& cuboid) {
    cuboid.ForEach([&](const FlowCell& cell) {
      if (!problem.empty()) return;
      const std::string verdict = CheckGraph(cell.graph, cell.support);
      if (!verdict.empty()) {
        problem = "cell " + cube.CellName(cell.dims) + ": " + verdict;
      }
    });
  });
  return problem;
}

std::string CompareResponse(const QueryResponse& got,
                            const QueryResponse& want) {
  if (got.code != want.code) {
    return StrFormat("status %d, expected %d", static_cast<int>(got.code),
                     static_cast<int>(want.code));
  }
  if (got.message != want.message) return "message differs";
  if (got.body.size() != want.body.size()) {
    return StrFormat("body is %zu bytes, expected %zu", got.body.size(),
                     want.body.size());
  }
  for (size_t i = 0; i < got.body.size(); ++i) {
    if (got.body[i] != want.body[i]) {
      return StrFormat("body differs at byte %zu", i);
    }
  }
  return "";
}

std::string CompareDumps(const FlowCube& got, const FlowCube& want) {
  const std::string a = DumpFlowCube(got);
  const std::string b = DumpFlowCube(want);
  if (a == b) return "";
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return StrFormat("cube dumps differ at byte %zu", i);
}

std::string CheckMonotone(const FlowCube& earlier, const FlowCube& later) {
  const FlowCubePlan& plan = earlier.plan();
  for (size_t il = 0; il < plan.item_levels.size(); ++il) {
    for (size_t pl = 0; pl < plan.path_levels.size(); ++pl) {
      std::unordered_map<CellKey, uint32_t> after;
      later.cuboid(il, pl).ForEach([&](const FlowCell& cell) {
        after[KeyOfCell(later, cell.dims)] = cell.support;
      });
      std::string problem;
      earlier.cuboid(il, pl).ForEach([&](const FlowCell& cell) {
        if (!problem.empty()) return;
        const auto it = after.find(KeyOfCell(earlier, cell.dims));
        if (it == after.end() || it->second < cell.support) {
          problem = StrFormat(
              "cell %s dropped from support %u to %u",
              earlier.CellName(cell.dims).c_str(), cell.support,
              it == after.end() ? 0u : it->second);
        }
      });
      if (!problem.empty()) return problem;
    }
  }
  return "";
}

}  // namespace perfbench
