// R-F3: Conjunctive and disjunctive selection with 2..4 predicates.
//
// Table II realizations: Thrust/Boost combine per-predicate flag vectors
// with bit_and/bit_or (one extra transform per predicate); ArrayFire
// intersects/unions per-predicate where() index sets (setIntersect/
// setUnion); handwritten evaluates all predicates in one fused kernel.
#include "bench_common.h"

namespace bench {

void ConjunctionBench(benchmark::State& state, const std::string& name,
                      bool conjunctive) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int num_preds = static_cast<int>(state.range(1));
  auto backend = core::BackendRegistry::Instance().Create(name);

  std::vector<storage::DeviceColumn> cols;
  std::vector<const storage::DeviceColumn*> col_ptrs;
  std::vector<core::Predicate> preds;
  for (int p = 0; p < num_preds; ++p) {
    cols.push_back(Upload(*backend, UniformInts(n, 100, 100 + p)));
  }
  for (int p = 0; p < num_preds; ++p) {
    col_ptrs.push_back(&cols[p]);
    // ~70% per predicate: conjunction ~0.7^k, disjunction saturates.
    preds.push_back(
        core::Predicate::Make(std::string("c").append(std::to_string(p)),
                              core::CompareOp::kLt, 70.0));
  }
  auto run = [&] {
    return conjunctive ? backend->SelectConjunctive(col_ptrs, preds)
                       : backend->SelectDisjunctive(col_ptrs, preds);
  };
  run();  // warm program cache

  size_t selected = 0;
  for (auto _ : state) {
    Region region(*backend);
    const auto sel = run();
    region.Stop(state);
    selected = sel.count;
  }
  state.counters["selected"] = static_cast<double>(selected);
}

void RegisterBenchmarks() {
  for (const bool conjunctive : {true, false}) {
    const char* kind = conjunctive ? "Conjunction" : "Disjunction";
    for (const auto& name : AllBackendNames()) {
      auto* b = benchmark::RegisterBenchmark(
          (std::string(kind) + "/" + name).c_str(),
          [name, conjunctive](benchmark::State& s) {
            ConjunctionBench(s, name, conjunctive);
          });
      b->UseManualTime()->Iterations(3);
      for (const int64_t p : {2, 3, 4}) b->Args({1 << 20, p});
    }
  }
}

}  // namespace bench

BENCH_MAIN()
