#include "plan/explain.h"

#include <iomanip>
#include <set>
#include <sstream>

#include "gpusim/cost_model.h"
#include "storage/encoding.h"

namespace plan {
namespace {

const char* AlgoName(JoinAlgo algo) {
  switch (algo) {
    case JoinAlgo::kAuto: return "auto";
    case JoinAlgo::kNestedLoops: return "nested-loops";
    case JoinAlgo::kHash: return "hash";
  }
  return "?";
}

std::string NodeTitle(const PlanNode& n) {
  std::string title = NodeKindName(n.kind);
  if (n.kind == NodeKind::kJoin) {
    title += std::string("[") + AlgoName(n.join_algo) + "]";
  }
  if (n.kind == NodeKind::kGroupBy) {
    if (n.aggregates.size() > 1) {
      title += '[';
      title += std::to_string(n.aggregates.size());
      title += " aggs]";
    }
    if (n.group_rows.node >= 0) title += "[codes]";
  }
  if (!n.label.empty()) title += " " + n.label;
  return title;
}

/// One line per distinct base-table scan: storage encoding, encoded vs raw
/// bytes, and the estimated PCIe upload time those bytes cost (the default
/// device profile at CUDA latency — indicative, not a stream measurement).
void RenderScans(const PhysicalPlan& phys, std::ostringstream& os) {
  const gpusim::CostModel model{gpusim::DeviceProperties{}};
  const gpusim::ApiProfile api = gpusim::ApiProfile::Cuda();
  std::set<std::string> seen;
  bool header = false;
  for (const PlanNode& n : phys.plan.nodes) {
    if (n.dead || n.kind != NodeKind::kScan) continue;
    if (!seen.insert(n.table + "." + n.column).second) continue;
    if (!header) {
      header = true;
      os << "scans\n"
         << std::left << std::setw(28) << "  column" << std::setw(12)
         << "encoding" << std::right << std::setw(12) << "bytes"
         << std::setw(12) << "raw_bytes" << std::setw(10) << "ratio"
         << std::setw(13) << "transfer_ns" << "\n";
    }
    uint64_t bytes = 0, raw = 0;
    const char* enc = "raw";
    if (n.scan_enc != nullptr) {
      enc = storage::EncodingName(n.scan_enc->encoding);
      bytes = n.scan_enc->encoded_byte_size();
      raw = n.scan_enc->raw_byte_size();
    } else if (n.scan_col != nullptr) {
      bytes = raw = n.scan_col->byte_size();
    }
    os << std::left << "  " << std::setw(26)
       << (n.table + "." + n.column).substr(0, 25) << std::setw(12) << enc
       << std::right << std::setw(12) << bytes << std::setw(12) << raw
       << std::setw(10) << std::fixed << std::setprecision(2)
       << (bytes == 0 ? 1.0 : static_cast<double>(raw) / bytes)
       << std::setw(13) << model.TransferTime(bytes, api) << "\n";
    os.unsetf(std::ios::fixed);
  }
}

std::string Render(const PhysicalPlan& phys, const ExecutionResult* result) {
  std::ostringstream os;
  os << (phys.hybrid ? "hybrid plan" : "pinned plan") << " ("
     << phys.plan.nodes.size() << " nodes)\n";
  RenderScans(phys, os);
  os << std::left << std::setw(4) << "id" << std::setw(44) << "operator"
     << std::setw(15) << "backend" << std::right << std::setw(8) << "rows"
     << std::setw(13) << "est_ns" << std::setw(12) << "boundary";
  if (result != nullptr) os << std::setw(13) << "measured_ns";
  os << "\n";
  uint64_t est_total = 0, measured_total = 0;
  for (size_t i = 0; i < phys.plan.nodes.size(); ++i) {
    const PlanNode& n = phys.plan.nodes[i];
    if (n.dead || n.kind == NodeKind::kScan) continue;
    const std::string& backend =
        phys.node_backend[i].empty() ? "-" : phys.node_backend[i];
    est_total += phys.est_ns[i];
    os << std::left << std::setw(4) << i << std::setw(44)
       << NodeTitle(n).substr(0, 43) << std::setw(15) << backend << std::right
       << std::setw(8) << phys.est_rows[i] << std::setw(13) << phys.est_ns[i]
       << std::setw(12) << phys.est_boundary_ns[i];
    if (result != nullptr) {
      const NodeValue& v = result->values[i];
      if (v.skipped) {
        os << std::setw(13) << "skipped";
      } else {
        os << std::setw(13) << v.measured_ns;
        measured_total += v.measured_ns;
      }
    }
    os << "\n";
  }
  os << "estimated total: " << est_total << " ns";
  if (result != nullptr) {
    os << "; measured total: " << measured_total << " ns";
  }
  os << "\n";
  return os.str();
}

}  // namespace

std::string Explain(const PhysicalPlan& plan) { return Render(plan, nullptr); }

std::string Explain(const PhysicalPlan& plan, const ExecutionResult& result) {
  return Render(plan, &result);
}

}  // namespace plan
