// Oracle self-test: every checker must accept a correct input and reject
// one corrupted input (a support off by one, a flipped response byte, a
// dropped record). A checker that cannot fail proves nothing.

#include <cstdio>

#include "bench.h"
#include "common/logging.h"
#include "gen/path_generator.h"
#include "serve/query_service.h"
#include "serve/snapshot_registry.h"

namespace perfbench {

int RunSelfTest() {
  const PathDatabase db = PathGenerator(BaselineConfig(2)).Generate(400);
  const FlowCubePlan plan = FlowCubePlan::Default(db.schema()).value();
  FlowCubeBuilderOptions options;
  options.min_support = 4;
  const FlowCube cube = FlowCubeBuilder(options).Build(db, plan).value();
  const SupportTable supports = CountSupports(db.schema(), plan, db.records());

  int missed = 0;
  const auto expect = [&missed](const char* name, const std::string& clean,
                                const std::string& corrupted) {
    const bool ok = clean.empty() && !corrupted.empty();
    if (!ok) missed++;
    std::fprintf(stderr, "selftest %-34s %s%s%s\n", name,
                 ok ? "ok: " : "MISSED: ",
                 clean.empty() ? "" : ("rejects a correct input: " + clean).c_str(),
                 corrupted.c_str());
  };

  // A support off by one: in the records' counts, and against a cell graph.
  SupportTable off_by_one = supports;
  for (auto& [key, support] : off_by_one[0]) {
    if (support >= options.min_support) {
      support++;
      break;
    }
  }
  expect("supports / support off by one",
         CheckSupports(cube, supports, options.min_support),
         CheckSupports(cube, off_by_one, options.min_support));
  const FlowCell* first = nullptr;
  cube.cuboid(0, 0).ForEach([&first](const FlowCell& cell) {
    if (first == nullptr) first = &cell;
  });
  FC_CHECK(first != nullptr);
  expect("conservation / support off by one",
         CheckGraph(first->graph, first->support),
         CheckGraph(first->graph, first->support + 1));

  // A flipped response byte.
  CubeSnapshot snap;
  snap.epoch = 1;
  snap.records = db.size();
  snap.cube = std::make_shared<const FlowCube>(cube.Clone());
  QueryRequest req;
  req.type = RequestType::kPointLookup;
  req.values.assign(db.schema().num_dimensions(), "*");
  const QueryResponse want = QueryService::ExecuteOn(snap, req);
  QueryResponse flipped = QueryService::ExecuteOn(snap, req);
  FC_CHECK(!flipped.body.empty());
  flipped.body[flipped.body.size() / 2] ^= 0x01;
  expect("responses / flipped byte",
         CompareResponse(QueryService::ExecuteOn(snap, req), want),
         CompareResponse(flipped, want));

  // A dropped record: a rebuild without it dumps differently, and as a later
  // epoch it loses support.
  std::vector<PathRecord> dropped = db.records();
  dropped.erase(dropped.begin() + static_cast<long>(dropped.size() / 2));
  PathDatabase smaller(db.schema_ptr());
  for (const PathRecord& rec : dropped) FC_CHECK(smaller.Append(rec).ok());
  const FlowCube rebuilt = FlowCubeBuilder(options).Build(db, plan).value();
  const FlowCube earlier = FlowCubeBuilder(options).Build(smaller, plan).value();
  expect("rebuild dumps / dropped record", CompareDumps(cube, rebuilt),
         CompareDumps(cube, earlier));
  expect("monotone epochs / dropped record", CheckMonotone(earlier, cube),
         CheckMonotone(cube, earlier));

  std::fprintf(stderr, "selftest: %d of 5 checks could not fail\n", missed);
  return missed;
}

}  // namespace perfbench
