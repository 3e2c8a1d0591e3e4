#include "plan/exchange.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "core/resilience.h"
#include "gpusim/fault.h"
#include "gpusim/trace.h"
#include "plan/explain.h"
#include "plan/optimizer.h"
#include "plan/partition_detail.h"

namespace plan {
namespace {

/// Partition count the OOM ladder never exceeds; past it the OOM propagates.
constexpr size_t kMaxPartitions = 256;

/// One device of a partitioned run. Its backend is the caller's (a governed
/// run) or a registry instance bound to the device, made the first time the
/// lane is handed slices. Lane state persists across recovery rounds: a
/// surviving device that takes replacement slices keeps its backend, stream
/// timeline, grant and accumulated partials.
struct Lane {
  Lane() = default;
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;
  ~Lane() { Release(); }

  /// Returns the lane's admission grant, if it holds one.
  void Release() {
    if (grantor == nullptr) return;
    grantor->Release(index, backend->stream().id());
    grantor = nullptr;
  }

  int index = 0;
  gpusim::Device* device = nullptr;
  core::Backend* backend = nullptr;
  std::unique_ptr<core::Backend> owned;
  uint64_t start_ns = 0;
  core::MultiGovernor* grantor = nullptr;  ///< set while holding a grant
  std::vector<detail::RowRange> assigned;  ///< this round's slices
  Partial partials;
  DeviceShardStats stats;
  uint64_t broadcast_bytes = 0;
  std::exception_ptr error;
  /// Non-empty when the device fired a sticky DeviceLost this round. Unlike
  /// `error` this is recoverable: it holds the slices that still need a
  /// home, and `partials` keeps everything the device finished before dying.
  std::vector<detail::RowRange> unfinished;
  /// Checkpoint ledger: row ranges whose results have been accumulated into
  /// `partials` (host memory). A loss reuses these instead of recomputing;
  /// `checkpoints_counted` marks how many have already been credited to
  /// ShardedRunStats::checkpointed_slices_reused, so a device that dies,
  /// readmits, and dies again never double-counts.
  std::vector<detail::RowRange> checkpoints;
  size_t checkpoints_counted = 0;
};

/// What every lane of one run shares.
struct RunContext {
  const QuerySpec& spec;
  const TpchHostTables& tables;
  gpusim::DeviceGroup* group;  ///< null: one lane on a borrowed backend
  const std::string& backend_name;
  const ShardedQueryOptions& options;
  const std::function<void(const PressureEvent&)>& on_event;
  const detail::QueryEncodings* encodings;
  size_t partitions = 1;     ///< K of the attempt in flight
  uint64_t admit_bytes = 0;  ///< per-device admission footprint
};

/// Reports a memory-pressure event to the observer and, when `stream`'s
/// device has a tracer, to its "memory" category.
void Emit(const RunContext& run, gpusim::Stream* stream,
          PressureEvent::Kind kind, std::string detail, uint64_t bytes) {
  gpusim::Tracer* tracer =
      stream != nullptr ? stream->device().tracer() : nullptr;
  if (tracer != nullptr) {
    gpusim::TraceEvent e;
    e.name = std::string(PressureEventKindName(kind)) + ": " + detail;
    e.category = "memory";
    e.start_ns = stream->now_ns();
    e.stream_id = stream->id();
    tracer->Record(std::move(e));
  }
  if (!run.on_event) return;
  PressureEvent event;
  event.kind = kind;
  event.detail = std::move(detail);
  event.bytes = bytes;
  event.partitions = run.partitions;
  run.on_event(event);
}

/// Runs one lane's slices for this round: admit against the device's
/// governor (the grant is held until the run ends or the device dies), then
/// run the slices with the stream's reservation bound. A sticky DeviceLost
/// on a group device is caught here: the device is marked dead in the
/// group, its per-device breaker records the failure, the grant is
/// returned, and the slices that did not finish are reported for
/// re-placement. Any other error (and a DeviceLost with no group to recover
/// in) is left in `lane.error`.
void RunLane(const RunContext& run, Lane& lane) {
  gpusim::Stream& stream = lane.backend->stream();
  size_t next = 0;    // first range not yet accumulated
  uint64_t bcast = 0;  // set once the build sides are resident
  try {
    gpusim::Device::DeviceGuard guard(*lane.device);
    core::MultiGovernor* governor = run.options.governor;
    if (governor != nullptr && lane.grantor == nullptr) {
      const core::AdmissionTicket ticket =
          governor->Admit(lane.index, stream.id(), run.admit_bytes,
                          run.options.admit_timeout_ms);
      if (!ticket.admitted()) {
        throw std::runtime_error("device " + std::to_string(lane.index) +
                                 " admission rejected for " + run.spec.name);
      }
      lane.grantor = governor;
      lane.stats.granted_bytes = ticket.granted_bytes;
    }
    // Bind this thread's allocations to the stream's admission reservation
    // (no-op without one): every pool-miss upload/intermediate below draws
    // from the grant instead of racing concurrent clients for capacity.
    gpusim::Device::ReservationScope scope(stream.device(), stream.id());
    detail::RunSlices(
        run.spec, run.tables, *lane.backend, run.encodings, lane.assigned,
        &next, lane.partials, &bcast, [&](const detail::SliceDone& s) {
          lane.checkpoints.push_back(s.rows);  // host partials now cover it
          lane.stats.upload_bytes += s.h2d_bytes;
          lane.stats.download_bytes += s.d2h_bytes;
          lane.stats.rows += s.rows.second - s.rows.first;
          ++lane.stats.shards;
          if (run.partitions <= 1) return;
          Emit(run, &stream, PressureEvent::Kind::kSpill,
               "partition " + std::to_string(s.index) + "/" +
                   std::to_string(run.partitions) + " rows [" +
                   std::to_string(s.rows.first) + ", " +
                   std::to_string(s.rows.second) + ") h2d " +
                   std::to_string(s.h2d_bytes) + " B, d2h " +
                   std::to_string(s.d2h_bytes) + " B",
               s.h2d_bytes + s.d2h_bytes);
        });
  } catch (const gpusim::DeviceLost&) {
    if (run.group == nullptr) {
      lane.error = std::current_exception();
    } else {
      lane.Release();
      run.group->MarkLost(lane.index);
      core::ResilienceManager::Global().RecordFailure(run.backend_name,
                                                      lane.index);
      lane.stats.lost = true;
      // The slice in flight (nothing of it was accumulated) and everything
      // after it still need a home; finished slices stay in lane.partials.
      lane.unfinished.assign(lane.assigned.begin() + next,
                             lane.assigned.end());
    }
  } catch (...) {
    lane.error = std::current_exception();
  }
  lane.stats.busy_ns = stream.now_ns() - lane.start_ns;
  lane.broadcast_bytes += bcast;
  lane.stats.upload_bytes += bcast;
}

/// Drives the group's lifecycle machine at a round boundary. When `tick` is
/// set the armed auto-reset policy advances first (Lost devices that have
/// waited their drawn number of rounds move to Probing); then every Probing
/// device gets its half-open probe, and the outcome is mirrored into every
/// backend@ordinal breaker at that ordinal (SyncDeviceProbe). A device that
/// passes is readmitted on the spot: its lane keeps its backend (the stream
/// is just a timeline; nothing device-resident survives a round) and its
/// checkpointed host partials, and the next round's broadcast upload
/// restores build-side state before any slice runs on it. On a healthy run
/// no device is ever Probing, so nothing here executes or charges.
void ProbeAndReadmit(gpusim::DeviceGroup& group, std::vector<Lane>& lanes,
                     bool tick, ShardedRunStats& st) {
  if (tick) group.TickLostDevices();
  for (int d : group.ProbingDevices()) {
    const bool ok = group.Probe(d);
    core::ResilienceManager::Global().SyncDeviceProbe(d, ok);
    if (!ok) {
      ++st.probe_failures;
      continue;
    }
    lanes[static_cast<size_t>(d)].stats.readmitted = true;
    group.CompleteReadmission(d);
    ++st.devices_readmitted;
  }
}

bool IsOutOfMemory(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const gpusim::OutOfDeviceMemory&) {
    return true;
  } catch (...) {
    return false;
  }
}

/// Runs `pending` slices at one partition count in rounds until every slice
/// has executed somewhere. Each round deals the slices, sorted by
/// row_begin, over the live devices; a round ends by collecting the
/// unfinished slices of lanes that lost their device for the next deal.
/// Placement depends only on which devices died, never on host thread
/// timing, so a given fault schedule always yields the same degraded
/// placement. Returns the first lane's OutOfDeviceMemory, for the caller's
/// ladder; any other lane error is rethrown.
std::exception_ptr RunRounds(const RunContext& run, std::vector<Lane>& lanes,
                             std::vector<detail::RowRange> pending,
                             ShardedRunStats& st) {
  for (;;) {
    std::sort(pending.begin(), pending.end());
    const std::vector<int> where = detail::PlaceRanges(
        pending.size(), run.group != nullptr ? run.group->AliveDevices()
                                             : std::vector<int>{0});
    std::vector<Lane*> busy;
    for (size_t i = 0; i < pending.size(); ++i) {
      Lane& lane = lanes[static_cast<size_t>(where[i])];
      if (lane.assigned.empty()) busy.push_back(&lane);
      lane.assigned.push_back(pending[i]);
    }
    for (Lane* lane : busy) {
      if (lane->backend != nullptr) continue;
      gpusim::Device::DeviceGuard guard(*lane->device);
      lane->owned = core::BackendRegistry::Instance().Create(run.backend_name);
      lane->backend = lane->owned.get();
      lane->start_ns = lane->backend->stream().now_ns();
    }
    if (busy.size() == 1) {
      RunLane(run, *busy[0]);  // one device: inline, no thread
    } else {
      // A backend routed through process-global library state (ArrayFire's
      // implicit JIT stream, the adaptive hybrid) cannot run one instance
      // per device thread.
      for (Lane* lane : busy) {
        if (!lane->backend->concurrency_safe()) {
          throw std::invalid_argument(
              "backend '" + run.backend_name +
              "' is not concurrency-safe and cannot run on " +
              std::to_string(busy.size()) + " devices at once");
        }
      }
      std::vector<std::thread> threads;
      threads.reserve(busy.size());
      for (Lane* lane : busy) {
        threads.emplace_back([&run, lane] { RunLane(run, *lane); });
      }
      for (std::thread& t : threads) t.join();
    }

    std::exception_ptr oom;
    for (Lane& lane : lanes) {
      lane.assigned.clear();
      if (lane.error == nullptr) continue;
      if (!IsOutOfMemory(lane.error)) std::rethrow_exception(lane.error);
      if (oom == nullptr) oom = lane.error;
    }

    pending.clear();
    for (Lane& lane : lanes) {
      if (lane.unfinished.empty()) continue;
      ++st.devices_lost;
      // Everything the dead device had finished is checkpointed in host
      // memory (lane.partials); those slices merge into the answer without
      // ever re-running. Credit each checkpoint at most once across
      // repeated losses of the same device.
      st.checkpointed_slices_reused +=
          lane.checkpoints.size() - lane.checkpoints_counted;
      lane.checkpoints_counted = lane.checkpoints.size();
      pending.insert(pending.end(), lane.unfinished.begin(),
                     lane.unfinished.end());
      lane.unfinished.clear();
    }
    if (oom != nullptr || pending.empty()) return oom;

    // Round boundary: advance the lifecycle machine before re-dealing, so a
    // device whose reset came through in time takes replacement slices
    // itself instead of leaving the survivors to absorb them.
    ProbeAndReadmit(*run.group, lanes, /*tick=*/true, st);
    ++st.recovery_rounds;
    st.replaced_shards += pending.size();
  }
}

}  // namespace

const char* ExchangeEdgeKindName(ExchangeEdge::Kind kind) {
  switch (kind) {
    case ExchangeEdge::Kind::kScatter: return "scatter";
    case ExchangeEdge::Kind::kBroadcast: return "broadcast";
    case ExchangeEdge::Kind::kGather: return "gather";
  }
  return "?";
}

ShardedPlanSpec PlanShardedExecution(TpchQuery query,
                                     const TpchHostTables& tables,
                                     const gpusim::DeviceGroup& group,
                                     size_t force_shards) {
  const QuerySpec& query_spec = GetQuerySpec(query);
  detail::RequireTables(query_spec, tables);
  ShardedPlanSpec spec;
  spec.devices = group.size();
  spec.shards = force_shards > 0 ? force_shards
                                 : static_cast<size_t>(group.size());
  const std::vector<detail::RowRange> ranges = detail::PartitionRanges(
      *tables.lineitem, spec.shards, query_spec.align_orderkey);
  const size_t li_rows = tables.lineitem->num_rows();
  const uint64_t li_bytes = detail::HostTableBytes(*tables.lineitem);
  const uint64_t row_bytes = li_rows > 0 ? li_bytes / li_rows : 0;

  const std::vector<int> where =
      detail::PlaceRanges(ranges.size(), group.AliveDevices());
  for (size_t s = 0; s < ranges.size(); ++s) {
    ShardPlacement p;
    p.device = where[s];
    p.row_begin = ranges[s].first;
    p.row_end = ranges[s].second;
    p.upload_bytes = (p.row_end - p.row_begin) * row_bytes;
    spec.placements.push_back(p);

    ExchangeEdge e;
    e.kind = ExchangeEdge::Kind::kScatter;
    e.device = p.device;
    e.bytes = p.upload_bytes;
    e.rows = p.row_end - p.row_begin;
    e.what = "lineitem[" + std::to_string(p.row_begin) + "," +
             std::to_string(p.row_end) + ")";
    spec.edges.push_back(e);
    spec.exchange_plan.ExchangeScatter(e.device, e.bytes, e.rows, e.what);
  }

  // Devices that received at least one shard get the build-side broadcasts.
  std::vector<bool> used(static_cast<size_t>(group.size()), false);
  for (const ShardPlacement& p : spec.placements) {
    used[static_cast<size_t>(p.device)] = true;
  }
  const PerTable<const storage::Table*> host = HostTablesByRole(tables);
  for (const TpchTable table : query_spec.broadcast) {
    const char* name = TpchTableName(table);
    const storage::Table& t = *host[static_cast<size_t>(table)];
    for (int d = 0; d < group.size(); ++d) {
      if (!used[static_cast<size_t>(d)]) continue;
      ExchangeEdge e;
      e.kind = ExchangeEdge::Kind::kBroadcast;
      e.device = d;
      e.bytes = detail::HostTableBytes(t);
      e.rows = t.num_rows();
      e.what = name;
      spec.edges.push_back(e);
      spec.exchange_plan.ExchangeBroadcast(d, e.bytes, e.rows,
                                           std::string(name) + "->dev" +
                                               std::to_string(d));
    }
  }

  // One gather edge per other device with a shard into the coordinator,
  // routed by the topology.
  spec.coordinator = where.empty() ? 0 : *std::min_element(where.begin(),
                                                           where.end());
  const size_t shard_rows =
      spec.shards > 0 ? (li_rows + spec.shards - 1) / spec.shards : li_rows;
  for (int d = 0; d < group.size(); ++d) {
    if (d == spec.coordinator || !used[static_cast<size_t>(d)]) continue;
    const gpusim::LinkPath link = group.Link(d, spec.coordinator);
    ExchangeEdge e;
    e.kind = ExchangeEdge::Kind::kGather;
    e.device = d;
    e.target = spec.coordinator;
    e.bytes = query_spec.estimate_partial_bytes(shard_rows);
    e.rows = shard_rows;
    e.what = "partials";
    e.peer = link.peer;
    e.hops = link.hops;
    spec.edges.push_back(e);
    spec.exchange_plan.ExchangeGather(
        d, e.bytes, e.rows,
        "partials dev" + std::to_string(d) + "->dev" +
            std::to_string(spec.coordinator));
  }
  return spec;
}

std::string ExplainSharded(const ShardedPlanSpec& spec,
                           const gpusim::DeviceGroup& group,
                           const std::string& backend_name) {
  std::ostringstream os;
  os << "sharded execution: " << spec.devices << " device(s), " << spec.shards
     << " shard(s), peer islands of " << group.topology().peer_island_size
     << "\n";
  os << "shard placement:\n";
  for (size_t s = 0; s < spec.placements.size(); ++s) {
    const ShardPlacement& p = spec.placements[s];
    os << "  shard " << s << " -> device " << p.device << "  rows ["
       << p.row_begin << ", " << p.row_end << ")  " << p.upload_bytes
       << " B\n";
  }
  os << "exchange edges:\n";
  for (const ExchangeEdge& e : spec.edges) {
    os << "  " << ExchangeEdgeKindName(e.kind) << "  " << e.what;
    if (e.kind == ExchangeEdge::Kind::kGather) {
      os << "  dev" << e.device << " -> dev" << e.target << "  " << e.bytes
         << " B  "
         << (e.peer ? "p2p link (1 hop)" : "via host (2 hops)");
    } else {
      os << "  host -> dev" << e.device << "  " << e.bytes << " B  pcie";
    }
    os << "\n";
  }
  os << "exchange plan (cost-estimated, " << backend_name << "):\n";
  OptimizerOptions opt;
  opt.pin_backend = backend_name;
  os << Explain(Optimize(spec.exchange_plan, opt));
  return os.str();
}

namespace detail {

std::vector<int> PlaceRanges(size_t slices, const std::vector<int>& devices) {
  if (devices.empty()) {
    throw gpusim::DeviceLost("no live device to place " +
                             std::to_string(slices) + " slice(s) on");
  }
  std::vector<int> where(slices);
  for (size_t i = 0; i < slices; ++i) where[i] = devices[i % devices.size()];
  return where;
}

TpchQueryResult RunPartitioned(
    const QuerySpec& spec, const TpchHostTables& tables,
    gpusim::DeviceGroup* group, core::Backend* borrowed,
    const std::string& backend_name, const ShardedQueryOptions& options,
    const std::function<void(const PressureEvent&)>& on_event,
    GovernedRunStats& gst, ShardedRunStats& st) {
  RequireTables(spec, tables);
  gst = GovernedRunStats();
  st = ShardedRunStats();
  const int nd = group != nullptr ? group->size() : 1;
  st.devices = nd;

  std::vector<Lane> lanes(static_cast<size_t>(nd));
  for (int d = 0; d < nd; ++d) {
    Lane& lane = lanes[static_cast<size_t>(d)];
    lane.index = d;
    lane.device = group != nullptr ? &group->device(d)
                                   : &borrowed->stream().device();
  }
  if (borrowed != nullptr) {
    lanes[0].backend = borrowed;
    lanes[0].start_ns = borrowed->stream().now_ns();
  } else {
    // A group whose operator reset a lost device between runs (MarkReset)
    // re-admits here, before placement, so this run plans onto the
    // recovered ordinal. No-op — and charge-free — unless some device is
    // Probing.
    ProbeAndReadmit(*group, lanes, /*tick=*/false, st);
  }

  // One analysis of the tables serves every footprint estimate and every
  // device's build-side uploads.
  QueryEncodings enc;
  if (options.use_encoding) enc = AnalyzeQueryTables(spec, tables);
  RunContext run{spec,         tables,   group,
                 backend_name, options,  on_event,
                 options.use_encoding ? &enc : nullptr};

  // Size K: one slice per device. On one device K then doubles while a
  // slice's footprint exceeds the budget — the stream's grant, else the
  // device's capacity. Several devices keep one slice each and rely on the
  // OOM ladder below: the estimate is a deliberate over-bound, and slices
  // that fit in practice keep their size.
  const uint64_t footprint =
      EstimateFootprint(spec, tables, backend_name, nd, run.encodings);
  const uint64_t grant =
      borrowed != nullptr
          ? lanes[0].device->ReservationRemaining(borrowed->stream().id())
          : 0;
  const uint64_t budget =
      grant > 0 ? grant : lanes[0].device->memory_capacity();
  size_t k = static_cast<size_t>(nd);
  uint64_t at_k = footprint;
  if (options.force_shards > 0) {
    k = options.force_shards;
    if (k != static_cast<size_t>(nd) && options.governor != nullptr) {
      at_k = EstimateFootprint(spec, tables, backend_name, k, run.encodings);
    }
  } else if (nd == 1) {
    while (k < kMaxPartitions && at_k > budget) {
      k *= 2;
      at_k = EstimateFootprint(spec, tables, backend_name, k, run.encodings);
    }
    k = std::min(k, kMaxPartitions);
  }
  run.partitions = k;
  run.admit_bytes = at_k;
  gst.footprint_bytes = footprint;
  gst.grant_bytes = grant;
  gpusim::Stream* home = borrowed != nullptr ? &borrowed->stream() : nullptr;
  Emit(run, home, PressureEvent::Kind::kAdmission,
       std::string(spec.name) + " footprint " + std::to_string(footprint) +
           " B, budget " + std::to_string(budget) + " B (" +
           (grant > 0 ? "granted" : "ungoverned") + ") -> " +
           std::to_string(k) + " partition(s)",
       budget);

  for (;;) {
    if (k > 1) {
      Emit(run, home, PressureEvent::Kind::kPartition,
           std::string(spec.name) + " executing in " + std::to_string(k) +
               " row-range partitions",
           0);
    }
    // An abandoned attempt's partials and traffic do not count.
    for (Lane& lane : lanes) {
      lane.partials = Partial();
      lane.checkpoints.clear();
      lane.checkpoints_counted = 0;
      lane.error = nullptr;
      lane.broadcast_bytes = 0;
      lane.stats.shards = 0;
      lane.stats.rows = 0;
      lane.stats.upload_bytes = 0;
      lane.stats.download_bytes = 0;
    }
    const std::exception_ptr oom = RunRounds(
        run, lanes,
        PartitionRanges(*tables.lineitem, k, spec.align_orderkey), st);
    if (oom == nullptr) break;
    for (Lane& lane : lanes) {
      if (lane.backend != nullptr) lane.backend->stream().device().TrimPool();
    }
    if (options.force_shards > 0 || k >= kMaxPartitions) {
      std::rethrow_exception(oom);
    }
    k = std::min(kMaxPartitions, k * 2);
    run.partitions = k;
    ++gst.oom_fallbacks;
    Emit(run, home, PressureEvent::Kind::kFallback,
         std::string(spec.name) + " hit device OOM; repartitioning to " +
             std::to_string(k),
         0);
  }

  // Gather: every non-coordinator device ships its partials to the
  // coordinator — the lowest live device that ran work; device 0 on the
  // healthy path — over the fabric (in fixed device order, so the
  // coordinator stream's timeline is deterministic); the host merge itself
  // is free. Dead devices cannot touch the fabric: their partials are
  // already host-resident (Accumulate downloads every slice result), so
  // they are drained from host staging without an exchange charge.
  const auto alive = [&](int d) {
    return group == nullptr || group->IsAlive(d);
  };
  int coord = -1;
  for (int d = 0; d < nd; ++d) {
    if (lanes[static_cast<size_t>(d)].backend != nullptr && alive(d)) {
      coord = d;
      break;
    }
  }
  if (coord < 0) {
    throw gpusim::DeviceLost(
        "partitioned run: no live device left to coordinate the gather");
  }
  Partial acc = std::move(lanes[static_cast<size_t>(coord)].partials);
  gpusim::Stream& dst = lanes[static_cast<size_t>(coord)].backend->stream();
  for (int d = 0; d < nd; ++d) {
    Lane& lane = lanes[static_cast<size_t>(d)];
    if (d == coord || lane.backend == nullptr) continue;
    const uint64_t bytes =
        std::max<uint64_t>(lane.partials.Bytes(), sizeof(double));
    bool charged = false;
    if (alive(d)) {
      // A transient TransferFault on the gather edge replays the exchange (a
      // fault fires before any pricing, so the successful attempt charges
      // exactly once). After the retry budget — or a DeviceLost on the edge
      // — fall back to draining the host-resident partials uncharged.
      for (int attempt = 0; attempt < 4; ++attempt) {
        try {
          group->ChargeExchange(d, lane.backend->stream(), coord, dst, bytes);
          charged = true;
          break;
        } catch (const gpusim::TransferFault&) {
          ++st.transfer_retries;
          core::ResilienceManager::Global().NoteFaultSeen();
        } catch (const gpusim::DeviceLost&) {
          group->MarkLost(d);
          core::ResilienceManager::Global().RecordFailure(backend_name, d);
          lane.stats.lost = true;
          ++st.devices_lost;
          break;
        }
      }
    }
    if (charged) {
      st.exchange_bytes += bytes;
      if (group->IsPeer(d, coord)) {
        st.exchange_p2p_bytes += bytes;
      } else {
        st.exchange_via_host_bytes += bytes;
      }
    }
    acc.Merge(lane.partials);
  }

  uint64_t makespan = 0;
  for (Lane& lane : lanes) {
    if (lane.backend == nullptr) continue;
    DeviceShardStats ds = lane.stats;
    ds.device = lane.index;
    ds.peak_bytes = lane.device->peak_bytes();
    st.broadcast_bytes += lane.broadcast_bytes;
    makespan =
        std::max(makespan, lane.backend->stream().now_ns() - lane.start_ns);
    if (k > 1) {
      gst.spill_h2d_bytes += lane.stats.upload_bytes - lane.broadcast_bytes;
      gst.spill_d2h_bytes += lane.stats.download_bytes;
    }
    st.per_device.push_back(ds);
  }
  st.shards = k;
  st.simulated_ns = makespan;
  gst.partitions = k;
  gst.simulated_ns = makespan;
  return spec.finalize(acc, QueryShape());
}

}  // namespace detail

TpchQueryResult RunSharded(TpchQuery query, const TpchHostTables& tables,
                           gpusim::DeviceGroup& group,
                           const std::string& backend_name,
                           const ShardedQueryOptions& options,
                           ShardedRunStats* stats) {
  if (group.size() <= 0) throw std::invalid_argument("empty device group");
  ShardedRunStats local;
  GovernedRunStats unused;
  return detail::RunPartitioned(GetQuerySpec(query), tables, &group,
                                /*borrowed=*/nullptr, backend_name, options,
                                /*on_event=*/nullptr, unused,
                                stats != nullptr ? *stats : local);
}

}  // namespace plan
