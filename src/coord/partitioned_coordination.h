// PartitionedCoordination: the sharded, *elastic* coordination plane. N
// independent SmrCluster partitions — each a full BFT-SMaRt-style pipeline
// with its own leader, batching, read fast path, checkpoints and state
// transfer — behind a versioned router that places every tuple key on
// exactly one partition by a stable hash. Ordered throughput then scales
// with the number of partitions instead of capping out at one consensus
// pipeline, while every single-key operation keeps exactly the semantics of
// the unsharded cluster:
//
//   * Elastic routing — an epoch-numbered RouteMap assigns contiguous
//     64-bit hash ranges to partitions (initially uniform over the active
//     partitions; spares own nothing). Clients learn the map lazily: every
//     command carries the epoch of the map its submitter routed with, and a
//     partition that no longer owns the command's key rejects it together
//     with the current map, so the client re-routes and retries
//     transparently (counted in ElasticCounters::route_epoch_retries).
//   * Per-key linearizability — a key lives on exactly one partition, so
//     single-key commands (metadata writes, consistency-anchor publishes,
//     the whole lock recipe) inherit the partition's total order unchanged.
//     There is NO cross-partition total order: commands on different keys
//     routed to different partitions are concurrent, exactly like the
//     commuting-commands contract SubmitAsync already imposes.
//   * Scatter-gather prefix operations — kReadPrefix, kExportPrefix and the
//     lease commands fan out to every partition concurrently (max-of-
//     children charge, like a DepSky quorum fan-out) and merge the
//     per-partition results sorted by key, deduplicated by key with the
//     range's current owner winning — mid-migration an entry legitimately
//     exists on both the source (until retirement) and the destination
//     (after import), and the merge must not double-count it.
//   * Live splitting (DESIGN.md "Elastic partitioning") — a load-aware
//     controller watches windowed per-partition ops/s EWMAs and, past a
//     configurable hot-share threshold, splits the hot partition's range
//     onto a spare cluster by migrating the range through a
//     crash-recoverable intent-record protocol (prepare-intent →
//     kExportPrefix/kImportEntry → commit-marker → retire), the same shape
//     as the cross-partition rename. Mutations aimed into the migrating
//     range stall until the commit flips the map; leases covering migrated
//     keys are revoked at commit through the on_migration_commit hook so no
//     client serves stale delegated state. MergePartitions folds a cooled
//     partition back, returning the spare.
//   * Cross-partition writes — kRenamePrefix cannot be atomic across
//     partitions and is rejected with kNotSupported when N > 1; the
//     metadata service layers a crash-recoverable intent-record protocol
//     over ExportPrefix/ImportEntry instead (see DESIGN.md "Partitioned
//     coordination").
//   * Operations surface — StateDigest() combines the per-partition
//     order-quorum digests deterministically, sorted by partition index, so
//     operators can compare partitioned deployments across restarts exactly
//     like single-cluster ones; empty while any partition lacks quorum
//     backing.
//
// With N = 1 the router degenerates to a pass-through around one SmrCluster
// and behaves identically to ReplicatedCoordination (Deployment constructs
// ReplicatedCoordination directly in that case, keeping the single-cluster
// code path byte-identical to the unpartitioned deployment).

#ifndef SCFS_COORD_PARTITIONED_COORDINATION_H_
#define SCFS_COORD_PARTITIONED_COORDINATION_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/executor.h"
#include "src/coord/smr.h"

namespace scfs {

// The stable routing hash: FNV-1a64 of PartitionRoutingKey(key) with a
// SplitMix64 avalanche finalizer (see the .cc for why raw FNV-1a is not
// enough). Pure function of the key — clients, replayed intents, restarted
// deployments and benchmark key generators all agree on it.
uint64_t PartitionRoutingHash(const std::string& key);

// One contiguous hash-range assignment: entry i of RouteMap::ranges covers
// [ranges[i].start, ranges[i+1].start), the last entry up to 2^64.
struct RouteRange {
  uint64_t start = 0;
  unsigned partition = 0;
};

// The epoch-numbered routing table. Epochs rise by exactly one per
// committed migration; clients cache a map snapshot and are corrected
// lazily (see "Elastic routing" above).
struct RouteMap {
  uint64_t epoch = 1;
  std::vector<RouteRange> ranges;  // sorted by start; ranges[0].start == 0

  unsigned PartitionForHash(uint64_t hash) const;
  // Uniform assignment of the hash space over partitions [0, active).
  static RouteMap Uniform(unsigned active);
};

struct PartitionedCoordinationConfig {
  unsigned partitions = 2;  // initially active (each owns a hash range)
  // Extra SmrClusters constructed with no assigned range: the split
  // controller's migration targets. A deployment with zero spares can still
  // merge, but never split.
  unsigned spare_partitions = 0;
  // Per-partition SMR geometry; every partition is configured identically.
  SmrConfig smr;

  // -- Load-aware split controller (DESIGN.md "Elastic partitioning") -----
  // Off by default: splits then happen only through SplitPartition().
  bool auto_split = false;
  // Sampling window for the controller's per-partition ops/s EWMAs. Load is
  // always judged on windowed deltas of SmrCounters — never on cumulative
  // counters, which would blend current load with all history since mount.
  VirtualDuration split_window = 2 * kSecond;
  // Split when the busiest partition's EWMA share of total ops/s exceeds
  // this and a spare partition is available.
  double split_hot_share = 0.5;
  // ...but only while the plane is doing real work: below this aggregate
  // ops/s the controller stays idle (an idle plane's share is noise).
  double split_min_total_ops_s = 1.0;

  // Mutations aimed into a range that is mid-migration stall (the range is
  // write-frozen between prepare and commit); past this budget they fail
  // kUnavailable instead of waiting forever behind a wedged migration.
  VirtualDuration migration_stall_timeout = 120 * kSecond;

  // Invoked at migration commit, before the route change is visible, with
  // one revocation per migrated key: the deployment wires this to
  // LeaseManager::NotifyRevocations so holders of leases covering migrated
  // prefixes drop them before any client can read the moved entries from
  // the new owner (the no-stale-delegated-read rule). The controller
  // executes migration commands directly on the clusters — below the
  // LeasedCoordination decorator — so the piggybacked revocation plumbing
  // does not fire for it; this hook is the replacement.
  std::function<void(const std::vector<LeaseRevocation>&)> on_migration_commit;
};

// A timestamped per-partition counter snapshot: the introspection unit the
// load-aware split controller and the scenario engine's hot-partition
// accounting consume. Two snapshots of the same deployment bracket a
// window; PartitionOpsPerSecond turns the pair into per-partition service
// rates. Hot-share style judgements must always be made on such windowed
// deltas — a single (cumulative-since-mount) snapshot sees history, not
// current load.
struct PartitionLoadSnapshot {
  VirtualTime at = 0;
  std::vector<SmrCounters> per_partition;
};

// Per-partition completed operations per second (ordered commands plus
// fast-path reads) between two snapshots of the same deployment. Empty if
// the snapshots disagree on partition count or the window is empty.
std::vector<double> PartitionOpsPerSecond(const PartitionLoadSnapshot& before,
                                          const PartitionLoadSnapshot& after);

// The busiest partition's share of total ops in the window bracketed by the
// two snapshots (0 when the window saw no ops). The one true hot-share
// computation — windowed, never cumulative.
double PartitionHotShare(const PartitionLoadSnapshot& before,
                         const PartitionLoadSnapshot& after);

// Elastic-plane counters (all monotone except last_split_duration).
struct ElasticCounters {
  // Commands a partition rejected because the submitter routed them with a
  // stale map — each is one transparent client re-route + retry, the lazy
  // map distribution's visible cost.
  uint64_t route_epoch_retries = 0;
  // Mutations that stalled at least once against a write-frozen migrating
  // range (counted once per command, not per poll).
  uint64_t migration_stalls = 0;
  uint64_t splits = 0;          // committed range splits
  uint64_t merges = 0;          // committed range merges
  uint64_t keys_migrated = 0;   // entries moved across partitions
  // Wall (virtual) duration of the most recent committed migration,
  // prepare through retire, in microseconds of virtual time.
  uint64_t last_migration_us = 0;
};

class PartitionedCoordination : public CoordinationService {
 public:
  PartitionedCoordination(Environment* env,
                          PartitionedCoordinationConfig config,
                          uint64_t seed = 29);
  ~PartitionedCoordination();

  Result<CoordReply> Submit(const CoordCommand& command) override;
  Future<Result<CoordReply>> SubmitAsync(const CoordCommand& command) override;
  Bytes StateDigest() override;

  unsigned partition_count() const override {
    return static_cast<unsigned>(partitions_.size());
  }
  unsigned PartitionOf(const std::string& key) const override;

  // -- Elastic repartitioning ---------------------------------------------

  // Splits `src`'s largest owned hash range at its midpoint onto a spare
  // partition (one owning no ranges), migrating the entries through the
  // intent-record protocol. kBusy while another migration is in flight;
  // kUnavailable with no spare.
  Status SplitPartition(unsigned src);
  // Migrates every range owned by `src` onto `dst`, leaving `src` a spare.
  Status MergePartitions(unsigned src, unsigned dst);
  // Crash-recovery replay (the coordination plane's Mount analog): scans
  // every partition for outstanding migration intents and rolls each
  // forward — re-import before the commit marker (imports are idempotent),
  // retire-only after it — to a consistent map with exactly-once entry
  // migration.
  Status ReplayMigrations();

  // Authoritative map snapshot / epoch (operations surface).
  RouteMap route_map() const;
  uint64_t route_epoch() const;
  // Partitions currently owning at least one range.
  unsigned active_partition_count() const;
  ElasticCounters elastic_counters() const;

  // Test hook: abort the next manually-triggered migration at a phase
  // boundary, modeling a controller crash. The aborted migration leaves its
  // durable records (and the write freeze) in place for ReplayMigrations.
  enum class MigrationCrashPoint { kNone, kAfterIntent, kMidImport,
                                   kAfterCommit };
  void set_migration_crash_point(MigrationCrashPoint point) {
    crash_point_ = point;
  }

  // Per-partition introspection and fault injection for tests/benchmarks.
  SmrCluster& cluster(unsigned partition) { return *partitions_[partition]; }
  // Aggregate protocol counters across all partitions.
  SmrCounters counters() const;
  // Timestamped per-partition counter snapshot; see PartitionLoadSnapshot.
  PartitionLoadSnapshot LoadSnapshot() const;
  uint64_t reply_bytes_out() const;

 private:
  // A migration in flight: the half-open hash range moving src -> dst. The
  // merge flag rides the durable intent record so a replay attributes the
  // recovered migration to the right counter.
  struct MigrationSpec {
    uint64_t begin = 0;
    uint64_t end = 0;  // exclusive; 0 means "up to 2^64"
    unsigned src = 0;
    unsigned dst = 0;
    bool merge = false;
  };

  // Single-key commands: route with the submitter's cached map, enforce the
  // authoritative map at the partition boundary, retry on rejection.
  Result<CoordReply> RoutedExecute(const CoordCommand& command);
  // Fan a prefix command out to every partition, merge entries by key
  // (current owner wins on duplicates).
  Result<CoordReply> ScatterGather(const CoordCommand& command);
  // The lazily-updated per-principal map cache ("the client's copy").
  std::shared_ptr<const RouteMap> ClientRouteMap(const std::string& client);

  // Executes one command directly on a partition under the admin principal.
  Result<CoordReply> AdminExecute(unsigned partition, CoordOp op,
                                  const std::string& key, Bytes value = {});
  // Claims the migration slot and freezes the range. kBusy if taken.
  Status BeginMigration(const MigrationSpec& spec);
  // Phases prepare → retire; shared by the live path and replay.
  // `crash_injection` honors crash_point_ (live path only).
  Status RunMigration(const MigrationSpec& spec, bool crash_injection,
                      bool intent_exists);
  // The keys currently on `spec.src` whose hashes fall in the migrating
  // range (internal records excluded) together with their export payloads.
  Result<std::vector<CoordEntryView>> ExportRange(const MigrationSpec& spec);
  // Installs the post-migration map (epoch + 1), clears the freeze and
  // fires the lease-revocation hook. Idempotent: skipped if the range
  // already routes to dst (a replay after a crash mid-retire).
  void CommitRouteChange(const MigrationSpec& spec,
                         const std::vector<CoordEntryView>& moved);
  Status MigrateRange(const MigrationSpec& spec);

  void ControllerLoop();

  static std::string IntentKey(const MigrationSpec& spec);
  static std::string CommitKey(const MigrationSpec& spec);
  static Bytes EncodeSpec(const MigrationSpec& spec);
  static bool DecodeSpec(ConstByteSpan payload, MigrationSpec* spec);
  static bool HashInRange(uint64_t hash, const MigrationSpec& spec);

  Environment* env_;
  PartitionedCoordinationConfig config_;
  std::vector<std::unique_ptr<SmrCluster>> partitions_;

  mutable std::mutex route_mu_;
  std::shared_ptr<const RouteMap> map_;  // authoritative (the servers' map)
  // Per-principal cached snapshots — the lazily-updated "client copies".
  std::map<std::string, std::shared_ptr<const RouteMap>> client_maps_;
  std::optional<MigrationSpec> migrating_;  // also the write freeze
  std::vector<double> windowed_ops_s_;      // controller EWMAs, by partition
  ElasticCounters elastic_;

  std::atomic<MigrationCrashPoint> crash_point_{MigrationCrashPoint::kNone};
  std::atomic<bool> controller_stop_{false};
  std::thread controller_;

  // Declared after partitions_: destroyed first, so in-flight async
  // submissions drain before any partition shuts down.
  InFlightTracker inflight_;
};

}  // namespace scfs

#endif  // SCFS_COORD_PARTITIONED_COORDINATION_H_
