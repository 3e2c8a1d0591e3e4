// Host-reference verification shared by the TPC-H benches.
//
// A bench that runs TPC-H queries through the plan runners (governed,
// sharded, served) checks every answer against the scalar host references
// of tpch/queries.h. Keys, flags and counts must match exactly; float sums
// may be re-associated by device plans, partition merges and shard merges,
// so they compare within |got - want| <= 1e-9 * |want| + 1e-6.
#ifndef BENCH_TPCH_VERIFY_H_
#define BENCH_TPCH_VERIFY_H_

#include <cmath>
#include <map>
#include <string>

#include "plan/partition.h"
#include "tpch/queries.h"

namespace bench {

inline bool Near(double got, double want) {
  return std::abs(got - want) <= std::abs(want) * 1e-9 + 1e-6;
}

/// Compares every field of two results, so it needs no knowledge of which
/// query produced them (fields a query does not set are empty or zero on
/// both sides). On a mismatch names the first differing row in `why`.
inline bool SameResult(const plan::TpchQueryResult& got,
                       const plan::TpchQueryResult& want, std::string* why) {
  if (got.q1.size() != want.q1.size() || got.q3.size() != want.q3.size() ||
      got.q4.size() != want.q4.size()) {
    *why = "row count mismatch";
    return false;
  }
  for (size_t i = 0; i < want.q1.size(); ++i) {
    const tpch::Q1Row& g = got.q1[i];
    const tpch::Q1Row& w = want.q1[i];
    if (g.returnflag != w.returnflag || g.linestatus != w.linestatus ||
        g.count_order != w.count_order || !Near(g.sum_qty, w.sum_qty) ||
        !Near(g.sum_base_price, w.sum_base_price) ||
        !Near(g.sum_disc_price, w.sum_disc_price) ||
        !Near(g.sum_charge, w.sum_charge) || !Near(g.avg_qty, w.avg_qty) ||
        !Near(g.avg_price, w.avg_price) || !Near(g.avg_disc, w.avg_disc)) {
      *why = "row " + std::to_string(i) + " mismatch";
      return false;
    }
  }
  for (size_t i = 0; i < want.q3.size(); ++i) {
    if (got.q3[i].orderkey != want.q3[i].orderkey ||
        !Near(got.q3[i].revenue, want.q3[i].revenue)) {
      *why = "row " + std::to_string(i) + " mismatch";
      return false;
    }
  }
  for (size_t i = 0; i < want.q4.size(); ++i) {
    if (got.q4[i].orderpriority != want.q4[i].orderpriority ||
        got.q4[i].order_count != want.q4[i].order_count) {
      *why = "row " + std::to_string(i) + " mismatch";
      return false;
    }
  }
  if (!Near(got.scalar, want.scalar)) {
    *why = "scalar mismatch";
    return false;
  }
  return true;
}

/// Host-reference answers of all five queries over one set of tables (every
/// table must be set).
class References {
 public:
  explicit References(const plan::TpchHostTables& t) {
    using plan::TpchQuery;
    by_query_[TpchQuery::kQ1].q1 = tpch::ReferenceQ1(*t.lineitem);
    by_query_[TpchQuery::kQ3].q3 =
        tpch::ReferenceQ3(*t.customer, *t.orders, *t.lineitem);
    by_query_[TpchQuery::kQ4].q4 = tpch::ReferenceQ4(*t.orders, *t.lineitem);
    by_query_[TpchQuery::kQ6].scalar = tpch::ReferenceQ6(*t.lineitem);
    by_query_[TpchQuery::kQ14].scalar =
        tpch::ReferenceQ14(*t.part, *t.lineitem);
  }

  const plan::TpchQueryResult& Of(plan::TpchQuery query) const {
    return by_query_.at(query);
  }

 private:
  std::map<plan::TpchQuery, plan::TpchQueryResult> by_query_;
};

/// Checks `got` against the reference answer of `query`; on a mismatch
/// `why` names the query and the first differing row.
inline bool Verify(plan::TpchQuery query, const plan::TpchQueryResult& got,
                   const References& ref, std::string* why) {
  if (SameResult(got, ref.Of(query), why)) return true;
  *why = std::string(plan::TpchQueryName(query)) + " " + *why;
  return false;
}

}  // namespace bench

#endif  // BENCH_TPCH_VERIFY_H_
