// R-T7 (extension): TPC-H Q4 end-to-end — the semi-join (EXISTS) query.
//
// Pipeline: column-column selection, gather, Unique (sort+unique in every
// library), semi-join against the filtered orders, grouped count.
#include "bench_common.h"
#include "tpch/queries.h"

namespace bench {

void Q4Bench(benchmark::State& state, const std::string& name,
             bool nested_loops) {
  tpch::Config config;
  config.scale_factor = state.range(0) / 1000.0;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  plan::QueryShape shape;
  shape.query = plan::TpchQuery::kQ4;
  TimeTpchQuery(state, name, shape,
                {.lineitem = &lineitem, .orders = &orders}, nested_loops);
  state.counters["lineitem_rows"] = static_cast<double>(lineitem.num_rows());
}

void RegisterBenchmarks() {
  for (const auto& name : AllBackendNames()) {
    auto* b = benchmark::RegisterBenchmark(
        ("TpchQ4/" + name).c_str(),
        [name](benchmark::State& s) { Q4Bench(s, name, false); });
    b->UseManualTime()->Iterations(1)->Arg(10);  // SF 0.01
  }
  auto* nlj = benchmark::RegisterBenchmark(
      "TpchQ4/Handwritten-nlj", [](benchmark::State& s) {
        Q4Bench(s, backends::kHandwritten, true);
      });
  nlj->UseManualTime()->Iterations(1)->Arg(10);
}

}  // namespace bench

BENCH_MAIN()
