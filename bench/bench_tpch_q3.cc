// R-T6 (extension): TPC-H Q3 end-to-end — the join-heavy query.
//
// Per library the joins fall back to nested loops (Table II); the
// handwritten backend hash-joins. Also reports the handwritten backend
// FORCED onto nested loops, isolating "hashing missing" from "everything
// else": the gap between Handwritten-nlj and Handwritten is purely the
// join algorithm the libraries cannot express.
#include "bench_common.h"
#include "tpch/queries.h"

namespace bench {

void Q3Bench(benchmark::State& state, const std::string& name,
             bool nested_loops) {
  tpch::Config config;
  config.scale_factor = state.range(0) / 1000.0;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table customer = tpch::GenerateCustomer(config);
  plan::QueryShape shape;
  shape.query = plan::TpchQuery::kQ3;
  TimeTpchQuery(state, name, shape,
                {.lineitem = &lineitem, .orders = &orders,
                 .customer = &customer},
                nested_loops);
  state.counters["lineitem_rows"] = static_cast<double>(lineitem.num_rows());
}

void RegisterBenchmarks() {
  for (const auto& name : AllBackendNames()) {
    auto* b = benchmark::RegisterBenchmark(
        ("TpchQ3/" + name).c_str(),
        [name](benchmark::State& s) { Q3Bench(s, name, false); });
    b->UseManualTime()->Iterations(1)->Arg(10);  // SF 0.01
  }
  // Ablation: the handwritten kernels forced onto the libraries' join.
  auto* nlj = benchmark::RegisterBenchmark(
      "TpchQ3/Handwritten-nlj", [](benchmark::State& s) {
        Q3Bench(s, backends::kHandwritten, true);
      });
  nlj->UseManualTime()->Iterations(1)->Arg(10);
}

}  // namespace bench

BENCH_MAIN()
