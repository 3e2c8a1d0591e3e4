#include "plan/exchange.h"

#include <algorithm>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/registry.h"
#include "core/resilience.h"
#include "gpusim/fault.h"
#include "plan/explain.h"
#include "plan/optimizer.h"
#include "plan/partition_detail.h"
#include "storage/encoded_column.h"

namespace plan {
namespace {

/// Per-device state of one sharded run; the backend outlives the worker
/// thread so the coordinator can charge exchanges against its stream. The
/// state persists across recovery rounds: a surviving device that takes
/// replacement slices keeps its backend, stream timeline, and accumulated
/// partials.
struct WorkerState {
  std::unique_ptr<core::Backend> backend;
  Partial partials;
  DeviceShardStats stats;
  uint64_t broadcast_bytes = 0;
  uint64_t start_ns = 0;
  std::exception_ptr error;
  /// The device fired a sticky DeviceLost during this round. Unlike `error`
  /// this is recoverable: `unfinished` holds the slices that still need a
  /// home, and `partials` keeps everything the device finished before dying.
  bool device_lost = false;
  std::vector<detail::RowRange> unfinished;
  /// Checkpoint ledger: row ranges whose results have been accumulated into
  /// `partials` (host memory). A loss reuses these instead of recomputing;
  /// `checkpoints_counted` marks how many have already been credited to
  /// ShardedRunStats::checkpointed_slices_reused, so a device that dies,
  /// readmits, and dies again never double-counts.
  std::vector<detail::RowRange> checkpoints;
  size_t checkpoints_counted = 0;
};

/// Runs one device's shard list: bind the device, build a private backend
/// (or reuse the round-1 backend on a recovery round), admit against the
/// device's governor, broadcast the build-side tables, then execute each
/// slice exactly as the single-device partitioned path does (upload, pinned
/// plan, accumulate). A sticky DeviceLost is caught here: the device is
/// marked dead in the group, its per-device breaker records the failure, the
/// governor grant is returned, and the slices that did not finish are
/// reported for re-placement.
void RunDeviceShards(const QuerySpec& spec, const TpchHostTables& tables,
                     gpusim::DeviceGroup& group, int d,
                     const std::string& backend_name,
                     const std::vector<detail::RowRange>& ranges,
                     const ShardedQueryOptions& options,
                     const detail::QueryEncodings* encodings,
                     uint64_t footprint, WorkerState& ws) {
  bool admitted = false;
  uint64_t stream_id = 0;
  size_t next_range = 0;  // first range not yet accumulated
  uint64_t bcast = 0;     // set once the build sides are resident
  ws.device_lost = false;
  ws.unfinished.clear();
  try {
    gpusim::Device& dev = group.device(d);
    gpusim::Device::DeviceGuard guard(dev);
    if (ws.backend == nullptr) {
      ws.backend = core::BackendRegistry::Instance().Create(backend_name);
      ws.start_ns = ws.backend->stream().now_ns();
    }
    stream_id = ws.backend->stream().id();

    if (options.governor != nullptr) {
      const core::AdmissionTicket ticket = options.governor->Admit(
          d, stream_id, footprint, options.admit_timeout_ms);
      if (!ticket.admitted()) {
        throw std::runtime_error("device " + std::to_string(d) +
                                 " admission rejected for " + spec.name);
      }
      admitted = true;
      ws.stats.granted_bytes = ticket.granted_bytes;
    }
    {
      gpusim::Device::ReservationScope scope(dev, stream_id);
      detail::SliceOptions slices;
      slices.use_encoding = options.use_encoding;
      slices.encodings = encodings;
      slices.upload_attempts = 4;
      detail::RunSlices(
          spec, tables, *ws.backend, slices, ranges, &next_range, ws.partials,
          &bcast, [&](const detail::SliceDone& s) {
            ws.checkpoints.push_back(s.rows);  // host partials now cover it
            ws.stats.upload_bytes += s.h2d_bytes;
            ws.stats.download_bytes += s.d2h_bytes;
            ws.stats.rows += s.rows.second - s.rows.first;
            ++ws.stats.shards;
          });
    }
    ws.stats.busy_ns = ws.backend->stream().now_ns() - ws.start_ns;
    if (admitted) options.governor->Release(d, stream_id);
  } catch (const gpusim::DeviceLost&) {
    if (admitted) options.governor->Release(d, stream_id);
    group.MarkLost(d);
    core::ResilienceManager::Global().RecordFailure(backend_name, d);
    ws.device_lost = true;
    ws.stats.lost = true;
    // The slice in flight (nothing of it was accumulated) and everything
    // after it still need a home; finished slices stay in ws.partials.
    for (size_t i = next_range; i < ranges.size(); ++i) {
      ws.unfinished.push_back(ranges[i]);
    }
    if (ws.backend != nullptr) {
      ws.stats.busy_ns = ws.backend->stream().now_ns() - ws.start_ns;
    }
  } catch (...) {
    if (admitted) options.governor->Release(d, stream_id);
    ws.error = std::current_exception();
  }
  ws.broadcast_bytes += bcast;
  ws.stats.upload_bytes += bcast;
}

/// Drives the group's lifecycle machine at a round boundary. When `tick` is
/// set the armed auto-reset policy advances first (Lost devices that have
/// waited their drawn number of rounds move to Probing); then every Probing
/// device gets its half-open probe, and the outcome is mirrored into every
/// backend@ordinal breaker at that ordinal (SyncDeviceProbe). A device that
/// passes is readmitted on the spot: its worker keeps its backend (the
/// stream is just a timeline; nothing device-resident survives a round) and
/// its checkpointed host partials, and the next round's broadcast upload
/// restores build-side state before any slice runs on it. On a healthy run
/// no device is ever Probing, so nothing here executes or charges.
void ProbeAndReadmit(gpusim::DeviceGroup& group,
                     std::vector<WorkerState>& workers, bool tick,
                     ShardedRunStats& st) {
  if (tick) group.TickLostDevices();
  for (int d : group.ProbingDevices()) {
    const bool ok = group.Probe(d);
    core::ResilienceManager::Global().SyncDeviceProbe(d, ok);
    if (!ok) {
      ++st.probe_failures;
      continue;
    }
    workers[static_cast<size_t>(d)].stats.readmitted = true;
    group.CompleteReadmission(d);
    ++st.devices_readmitted;
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

  // Shard s lands on device s % N (round-robin, same as RunSharded).
  for (size_t s = 0; s < ranges.size(); ++s) {
    ShardPlacement p;
    p.device = static_cast<int>(s % static_cast<size_t>(group.size()));
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

  // One gather edge per non-coordinator device, routed by the topology.
  const size_t shard_rows =
      spec.shards > 0 ? (li_rows + spec.shards - 1) / spec.shards : li_rows;
  for (int d = 1; d < group.size(); ++d) {
    if (!used[static_cast<size_t>(d)]) continue;
    const gpusim::LinkPath link = group.Link(d, 0);
    ExchangeEdge e;
    e.kind = ExchangeEdge::Kind::kGather;
    e.device = d;
    e.bytes = query_spec.estimate_partial_bytes(shard_rows);
    e.rows = shard_rows;
    e.what = "partials";
    e.peer = link.peer;
    e.hops = link.hops;
    spec.edges.push_back(e);
    spec.exchange_plan.ExchangeGather(d, e.bytes, e.rows,
                                      "partials dev" + std::to_string(d) +
                                          "->dev0");
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
      os << "  dev" << e.device << " -> dev0  " << e.bytes << " B  "
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

TpchQueryResult RunSharded(TpchQuery query, const TpchHostTables& tables,
                           gpusim::DeviceGroup& group,
                           const std::string& backend_name,
                           const ShardedQueryOptions& options,
                           ShardedRunStats* stats) {
  const QuerySpec& spec = GetQuerySpec(query);
  detail::RequireTables(spec, tables);
  const int nd = group.size();
  if (nd <= 0) throw std::invalid_argument("empty device group");

  ShardedRunStats local;
  ShardedRunStats& st = stats != nullptr ? *stats : local;
  st = ShardedRunStats();
  st.devices = nd;

  if (nd == 1) {
    // Degenerate case: exactly the governed single-device path (bit-identical
    // simulated timeline), with the group's device bound for the backend.
    gpusim::Device::DeviceGuard guard(group.device(0));
    std::unique_ptr<core::Backend> backend =
        core::BackendRegistry::Instance().Create(backend_name);
    gpusim::Stream& stream = backend->stream();
    detail::QueryEncodings enc;
    if (options.use_encoding) enc = detail::AnalyzeQueryTables(spec, tables);
    const detail::QueryEncodings* encodings =
        options.use_encoding ? &enc : nullptr;
    bool admitted = false;
    uint64_t granted = 0;
    if (options.governor != nullptr) {
      const uint64_t footprint = detail::EstimateFootprint(
          spec, tables, backend_name, 1, encodings);
      const core::AdmissionTicket ticket = options.governor->Admit(
          0, stream.id(), footprint, options.admit_timeout_ms);
      if (!ticket.admitted()) {
        throw std::runtime_error(
            std::string("device 0 admission rejected for ") + spec.name);
      }
      admitted = true;
      granted = ticket.granted_bytes;
    }
    GovernedQueryOptions gopt;
    gopt.force_partitions = options.force_shards;
    gopt.use_encoding = options.use_encoding;
    GovernedRunStats gstats;
    TpchQueryResult result;
    try {
      result = detail::RunGovernedAnalyzed(query, tables, *backend, gopt,
                                           &gstats, encodings);
    } catch (...) {
      if (admitted) options.governor->Release(0, stream.id());
      throw;
    }
    if (admitted) options.governor->Release(0, stream.id());
    st.shards = gstats.partitions;
    st.simulated_ns = gstats.simulated_ns;
    DeviceShardStats ds;
    ds.device = 0;
    ds.shards = gstats.partitions;
    ds.rows = tables.lineitem->num_rows();
    ds.upload_bytes = gstats.spill_h2d_bytes;
    ds.download_bytes = gstats.spill_d2h_bytes;
    ds.busy_ns = gstats.simulated_ns;
    ds.granted_bytes = granted;
    ds.peak_bytes = group.PerDevicePeakBytes()[0];
    st.per_device.push_back(ds);
    return result;
  }

  {
    // Probe once: a backend routed through process-global library state
    // (ArrayFire's implicit JIT stream, the adaptive hybrid) cannot run one
    // instance per device-thread.
    gpusim::Device::DeviceGuard guard(group.device(0));
    const std::unique_ptr<core::Backend> probe =
        core::BackendRegistry::Instance().Create(backend_name);
    if (!probe->concurrency_safe()) {
      throw std::invalid_argument(
          "backend '" + backend_name +
          "' is not concurrency-safe and cannot shard across " +
          std::to_string(nd) + " devices");
    }
  }

  std::vector<WorkerState> workers(static_cast<size_t>(nd));
  // A group whose operator reset a lost device between runs (MarkReset)
  // re-admits here, before placement, so this run plans onto the recovered
  // ordinal. No-op — and charge-free — unless some device is Probing.
  ProbeAndReadmit(group, workers, /*tick=*/false, st);

  const size_t shards =
      options.force_shards > 0 ? options.force_shards : static_cast<size_t>(nd);
  st.shards = shards;
  const std::vector<detail::RowRange> ranges =
      detail::PartitionRanges(*tables.lineitem, shards, spec.align_orderkey);
  // Shards are dealt round-robin over the devices alive at planning time —
  // with every device healthy this is exactly `s % nd`, so the healthy-path
  // placement (and therefore the simulated timeline) is unchanged.
  std::vector<std::vector<detail::RowRange>> assigned(
      static_cast<size_t>(nd));
  {
    const std::vector<int> alive = group.AliveDevices();
    if (alive.empty()) {
      throw gpusim::DeviceLost("sharded run: no live device in the group");
    }
    for (size_t s = 0; s < ranges.size(); ++s) {
      assigned[static_cast<size_t>(alive[s % alive.size()])].push_back(
          ranges[s]);
    }
  }
  // One analysis of the tables serves the footprint and every device's
  // broadcast uploads.
  detail::QueryEncodings enc;
  if (options.use_encoding) enc = detail::AnalyzeQueryTables(spec, tables);
  const detail::QueryEncodings* encodings =
      options.use_encoding ? &enc : nullptr;
  // Each device's grant covers its largest single slice plus the broadcast
  // tables — the same per-slice footprint the governed ladder would size.
  const uint64_t footprint = detail::EstimateFootprint(
      spec, tables, backend_name, shards, encodings);

  // Run rounds until every slice has executed somewhere. Round 1 is the
  // normal sharded run; a round ends by collecting the unfinished slices of
  // workers that lost their device and dealing them — sorted by row_begin,
  // round-robin in ascending device order — onto the survivors. Placement
  // depends only on which devices died, never on host thread timing, so a
  // given fault schedule always yields the same degraded placement.
  while (true) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(nd));
    for (int d = 0; d < nd; ++d) {
      if (assigned[static_cast<size_t>(d)].empty()) continue;
      threads.emplace_back([&, d] {
        RunDeviceShards(spec, tables, group, d, backend_name,
                        assigned[static_cast<size_t>(d)], options, encodings,
                        footprint, workers[static_cast<size_t>(d)]);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const WorkerState& ws : workers) {
      if (ws.error != nullptr) std::rethrow_exception(ws.error);
    }

    std::vector<detail::RowRange> unfinished;
    for (int d = 0; d < nd; ++d) {
      WorkerState& ws = workers[static_cast<size_t>(d)];
      assigned[static_cast<size_t>(d)].clear();
      if (!ws.device_lost) continue;
      ws.device_lost = false;
      ++st.devices_lost;
      // Everything the dead device had finished is checkpointed in host
      // memory (ws.partials); those slices merge into the answer without
      // ever re-running. Credit each checkpoint at most once across
      // repeated losses of the same device.
      st.checkpointed_slices_reused +=
          ws.checkpoints.size() - ws.checkpoints_counted;
      ws.checkpoints_counted = ws.checkpoints.size();
      unfinished.insert(unfinished.end(), ws.unfinished.begin(),
                        ws.unfinished.end());
      ws.unfinished.clear();
    }
    if (unfinished.empty()) break;

    // Round boundary: advance the lifecycle machine before re-dealing, so a
    // device whose reset came through in time takes replacement slices
    // itself instead of leaving the survivors to absorb them.
    ProbeAndReadmit(group, workers, /*tick=*/true, st);

    const std::vector<int> alive = group.AliveDevices();
    if (alive.empty()) {
      throw gpusim::DeviceLost(
          "sharded run: every device of the group was lost; " +
          std::to_string(unfinished.size()) + " slice(s) of " + spec.name +
          " never ran");
    }
    std::sort(unfinished.begin(), unfinished.end());
    for (size_t i = 0; i < unfinished.size(); ++i) {
      const int d = alive[i % alive.size()];
      assigned[static_cast<size_t>(d)].push_back(unfinished[i]);
    }
    ++st.recovery_rounds;
    st.replaced_shards += unfinished.size();
  }

  // Gather: every non-coordinator device ships its partials to the
  // coordinator — the lowest live device that ran work; device 0 on the
  // healthy path — over the fabric (in fixed device order, so the
  // coordinator stream's timeline is deterministic); the host merge itself
  // is free. Dead devices cannot touch the fabric: their partials are
  // already host-resident (Accumulate downloads every slice result), so
  // they are drained from host staging without an exchange charge.
  int coord = -1;
  for (int d = 0; d < nd; ++d) {
    if (workers[static_cast<size_t>(d)].backend != nullptr &&
        group.IsAlive(d)) {
      coord = d;
      break;
    }
  }
  if (coord < 0) {
    throw gpusim::DeviceLost(
        "sharded run: no live device left to coordinate the gather");
  }
  Partial acc = std::move(workers[static_cast<size_t>(coord)].partials);
  gpusim::Stream& dst = workers[static_cast<size_t>(coord)].backend->stream();
  for (int d = 0; d < nd; ++d) {
    if (d == coord) continue;
    WorkerState& ws = workers[static_cast<size_t>(d)];
    if (ws.backend == nullptr) continue;  // no shards landed on this device
    const uint64_t bytes =
        std::max<uint64_t>(ws.partials.Bytes(), sizeof(double));
    bool charged = false;
    if (group.IsAlive(d)) {
      // A transient TransferFault on the gather edge replays the exchange (a
      // fault fires before any pricing, so the successful attempt charges
      // exactly once). After the retry budget — or a DeviceLost on the edge
      // — fall back to draining the host-resident partials uncharged.
      for (int attempt = 0; attempt < 4; ++attempt) {
        try {
          group.ChargeExchange(d, ws.backend->stream(), coord, dst, bytes);
          charged = true;
          break;
        } catch (const gpusim::TransferFault&) {
          ++st.transfer_retries;
          core::ResilienceManager::Global().NoteFaultSeen();
        } catch (const gpusim::DeviceLost&) {
          group.MarkLost(d);
          core::ResilienceManager::Global().RecordFailure(backend_name, d);
          ws.stats.lost = true;
          ++st.devices_lost;
          break;
        }
      }
    }
    if (charged) {
      st.exchange_bytes += bytes;
      if (group.IsPeer(d, coord)) {
        st.exchange_p2p_bytes += bytes;
      } else {
        st.exchange_via_host_bytes += bytes;
      }
    }
    acc.Merge(ws.partials);
  }

  const std::vector<uint64_t> peaks = group.PerDevicePeakBytes();
  uint64_t makespan = 0;
  for (int d = 0; d < nd; ++d) {
    WorkerState& ws = workers[static_cast<size_t>(d)];
    if (ws.backend == nullptr) continue;
    DeviceShardStats ds = ws.stats;
    ds.device = d;
    ds.peak_bytes = peaks[static_cast<size_t>(d)];
    st.broadcast_bytes += ws.broadcast_bytes;
    makespan = std::max(makespan, ws.backend->stream().now_ns() - ws.start_ns);
    st.per_device.push_back(ds);
  }
  st.simulated_ns = makespan;
  return spec.finalize(acc, QueryShape());
}

core::QueryFn MakeShardedQuery(TpchQuery query, TpchHostTables tables,
                               gpusim::DeviceGroup& group,
                               ShardedQueryOptions options,
                               TpchQueryResult* out, ShardedRunStats* stats) {
  // `group` is captured by reference: the caller keeps it (and the host
  // tables) alive until the scheduler drains.
  return [query, tables, &group, options = std::move(options), out,
          stats](core::Backend& backend) {
    ShardedRunStats local;
    ShardedRunStats& st = stats != nullptr ? *stats : local;
    TpchQueryResult result =
        RunSharded(query, tables, group, backend.name(), options, &st);
    // The sharded run happened on the group's own streams; advance the
    // client's timeline by its makespan so scheduler latency percentiles
    // price the query at its true simulated cost.
    backend.stream().ChargeOverhead(st.simulated_ns);
    if (out != nullptr) *out = std::move(result);
  };
}

}  // namespace plan
