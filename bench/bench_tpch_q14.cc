// R-T8 (extension): TPC-H Q14 end-to-end — part-lineitem join with a
// conditional (CASE WHEN) aggregate realized as a second selection.
#include "bench_common.h"
#include "tpch/queries.h"

namespace bench {

void Q14Bench(benchmark::State& state, const std::string& name,
              bool nested_loops) {
  tpch::Config config;
  config.scale_factor = state.range(0) / 1000.0;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table part = tpch::GeneratePart(config);
  plan::QueryShape shape;
  shape.query = plan::TpchQuery::kQ14;
  const plan::TpchQueryResult result = TimeTpchQuery(
      state, name, shape, {.lineitem = &lineitem, .part = &part},
      nested_loops);
  state.counters["promo_pct"] = result.scalar;
  state.counters["lineitem_rows"] = static_cast<double>(lineitem.num_rows());
}

void RegisterBenchmarks() {
  for (const auto& name : AllBackendNames()) {
    auto* b = benchmark::RegisterBenchmark(
        ("TpchQ14/" + name).c_str(),
        [name](benchmark::State& s) { Q14Bench(s, name, false); });
    b->UseManualTime()->Iterations(1)->Arg(10);  // SF 0.01
  }
  auto* nlj = benchmark::RegisterBenchmark(
      "TpchQ14/Handwritten-nlj", [](benchmark::State& s) {
        Q14Bench(s, backends::kHandwritten, true);
      });
  nlj->UseManualTime()->Iterations(1)->Arg(10);
}

}  // namespace bench

BENCH_MAIN()
