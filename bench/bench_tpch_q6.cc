// R-T4: TPC-H Q6 end-to-end per library, at two scale factors.
//
// Q6 = 5-predicate conjunctive selection + 2 gathers + product + reduction.
// The per-backend differences compound: ArrayFire pays one where() pipeline
// per predicate plus setIntersect chains; Thrust/Boost pay one transform per
// predicate plus scan+scatter; handwritten runs one fused kernel. Transfer
// time (upload of lineitem) is reported separately.
#include "bench_common.h"
#include "tpch/queries.h"

namespace bench {

void Q6Bench(benchmark::State& state, const std::string& name) {
  tpch::Config config;
  config.scale_factor = state.range(0) / 1000.0;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  plan::QueryShape shape;
  shape.query = plan::TpchQuery::kQ6;
  double upload_ms = 0;
  const plan::TpchQueryResult result =
      TimeTpchQuery(state, name, shape, {.lineitem = &lineitem},
                    /*nested_loops=*/false, &upload_ms);
  state.counters["rows"] = static_cast<double>(lineitem.num_rows());
  state.counters["upload_ms"] = upload_ms;
  state.counters["revenue"] = result.scalar;
}

/// The expert upper bound: the entire query body as one fused kernel.
void Q6FusedBench(benchmark::State& state) {
  tpch::Config config;
  config.scale_factor = state.range(0) / 1000.0;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  gpusim::Stream stream(gpusim::Device::Default(),
                        gpusim::ApiProfile::Cuda());
  const auto dev = storage::UploadTable(stream, lineitem);
  for (auto _ : state) {
    Region region(stream);
    benchmark::DoNotOptimize(tpch::RunQ6FusedHandwritten(stream, dev));
    region.Stop(state);
  }
  state.counters["rows"] = static_cast<double>(lineitem.num_rows());
}

void RegisterBenchmarks() {
  for (const auto& name : AllBackendNames()) {
    auto* b = benchmark::RegisterBenchmark(
        ("TpchQ6/" + name).c_str(),
        [name](benchmark::State& s) { Q6Bench(s, name); });
    b->UseManualTime()->Iterations(2);
    b->Arg(10);   // SF 0.01
    b->Arg(100);  // SF 0.1
  }
  auto* fused = benchmark::RegisterBenchmark(
      "TpchQ6/Handwritten-fused",
      [](benchmark::State& s) { Q6FusedBench(s); });
  fused->UseManualTime()->Iterations(2);
  fused->Arg(10);
  fused->Arg(100);
}

}  // namespace bench

BENCH_MAIN()
