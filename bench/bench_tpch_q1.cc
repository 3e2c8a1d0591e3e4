// R-T3: TPC-H Q1 end-to-end per library, at two scale factors.
//
// Q1 = low-selectivity date filter + 5 gathers + projection arithmetic + six
// grouped aggregations. The libraries' sort-based reduce_by_key re-sorts for
// every aggregate; the handwritten backend hashes. This is the heaviest
// operator-chaining workload in the study.
#include "bench_common.h"
#include "tpch/queries.h"

namespace bench {

void Q1Bench(benchmark::State& state, const std::string& name) {
  tpch::Config config;
  config.scale_factor = state.range(0) / 1000.0;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  plan::QueryShape shape;
  shape.query = plan::TpchQuery::kQ1;
  const plan::TpchQueryResult result =
      TimeTpchQuery(state, name, shape, {.lineitem = &lineitem});
  state.counters["rows"] = static_cast<double>(lineitem.num_rows());
  state.counters["result_groups"] = static_cast<double>(result.q1.size());
}

void RegisterBenchmarks() {
  for (const auto& name : AllBackendNames()) {
    auto* b = benchmark::RegisterBenchmark(
        ("TpchQ1/" + name).c_str(),
        [name](benchmark::State& s) { Q1Bench(s, name); });
    b->UseManualTime()->Iterations(2);
    b->Arg(10);   // SF 0.01
    b->Arg(100);  // SF 0.1
  }
}

}  // namespace bench

BENCH_MAIN()
