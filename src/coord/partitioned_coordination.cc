#include "src/coord/partitioned_coordination.h"

#include <algorithm>
#include <utility>

#include "src/crypto/sha256.h"

namespace scfs {

namespace {

// FNV-1a 64-bit: stable across platforms and processes, so a key's
// partition is a pure function of the key and the route map — clients,
// replayed intents and restarted deployments all agree on it.
//
// Raw FNV-1a needs the avalanche finalizer below: its low k bits are an
// affine function (over GF(2)) of the input bits — the xor is linear and
// the prime multiply is carry-free mod small 2^k — so for key families
// sharing a suffix, like "m:<path>/" vs "lk:<path>" of the same path,
// hash agreement mod a power-of-two partition count is *constant* across
// all paths (always or never co-located) instead of 1/N. The SplitMix64
// finalizer mixes high bits into low, restoring per-key independence. The
// elastic plane routes by contiguous hash *ranges* rather than mod-N, so
// the finalizer additionally guarantees keys spread uniformly over the
// whole 64-bit space (range boundaries are quantiles of a uniform hash).
uint64_t Fnv1a64(const std::string& key) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : key) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  hash ^= hash >> 30;
  hash *= 0xbf58476d1ce4e5b9ull;
  hash ^= hash >> 27;
  hash *= 0x94d049bb133111ebull;
  hash ^= hash >> 31;
  return hash;
}

// Internal migration-record keyspace. Entries under it are owned by the
// coordination admin principal, so user ReadPrefix sweeps skip them (ACL
// filtering) and user traffic can never collide with them.
constexpr const char kElasticPrefix[] = "__elastic:";
constexpr const char kIntentPrefix[] = "__elastic:intent:";
constexpr const char kCommitPrefix[] = "__elastic:commit:";

std::string Hex64(uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// How many times a single-key command re-routes on a stale-map rejection
// before giving up. Each committed migration bumps the epoch by one, and at
// most one migration is in flight, so one retry normally suffices; the
// budget only guards against a pathological storm of back-to-back splits.
constexpr int kMaxRouteRetries = 8;
// How often a mutation stalled behind a migrating range re-checks the freeze.
constexpr VirtualDuration kMigrationStallPoll = 10 * kMillisecond;

}  // namespace

uint64_t PartitionRoutingHash(const std::string& key) {
  return Fnv1a64(PartitionRoutingKey(key));
}

unsigned RouteMap::PartitionForHash(uint64_t hash) const {
  // Entry i covers [ranges[i].start, ranges[i+1].start): the owner is the
  // last range whose start is <= hash.
  auto it = std::upper_bound(ranges.begin(), ranges.end(), hash,
                             [](uint64_t h, const RouteRange& r) {
                               return h < r.start;
                             });
  return std::prev(it)->partition;
}

RouteMap RouteMap::Uniform(unsigned active) {
  RouteMap map;
  map.epoch = 1;
  map.ranges.reserve(active);
  for (unsigned i = 0; i < active; ++i) {
    // Exact quantiles of the 64-bit hash space: (i << 64) / active.
    const uint64_t start = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(i) << 64) / active);
    map.ranges.push_back(RouteRange{start, i});
  }
  return map;
}

std::vector<double> PartitionOpsPerSecond(const PartitionLoadSnapshot& before,
                                          const PartitionLoadSnapshot& after) {
  if (before.per_partition.size() != after.per_partition.size() ||
      after.at <= before.at) {
    return {};
  }
  const double seconds = ToSeconds(after.at - before.at);
  std::vector<double> out;
  out.reserve(after.per_partition.size());
  for (size_t p = 0; p < after.per_partition.size(); ++p) {
    SmrCounters delta = after.per_partition[p];
    delta -= before.per_partition[p];
    out.push_back(
        static_cast<double>(delta.ordered_commands + delta.fast_path_reads) /
        seconds);
  }
  return out;
}

double PartitionHotShare(const PartitionLoadSnapshot& before,
                         const PartitionLoadSnapshot& after) {
  const std::vector<double> rates = PartitionOpsPerSecond(before, after);
  double total = 0;
  double top = 0;
  for (double rate : rates) {
    total += rate;
    top = std::max(top, rate);
  }
  return total > 0 ? top / total : 0.0;
}

PartitionedCoordination::PartitionedCoordination(
    Environment* env, PartitionedCoordinationConfig config, uint64_t seed)
    : env_(env), config_(std::move(config)) {
  const unsigned active = std::max(1u, config_.partitions);
  const unsigned n = active + config_.spare_partitions;
  partitions_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    // Distinct seeds per partition: independent leaders, link jitter and
    // client rngs, as physically separate clusters would have.
    partitions_.push_back(std::make_unique<SmrCluster>(
        env_, config_.smr, seed + i * 7776151ull));
  }
  map_ = std::make_shared<const RouteMap>(RouteMap::Uniform(active));
  if (config_.auto_split) {
    controller_ = std::thread([this] { ControllerLoop(); });
  }
}

PartitionedCoordination::~PartitionedCoordination() {
  controller_stop_.store(true);
  if (controller_.joinable()) {
    controller_.join();
  }
}

unsigned PartitionedCoordination::PartitionOf(const std::string& key) const {
  const uint64_t hash = PartitionRoutingHash(key);
  std::lock_guard<std::mutex> lock(route_mu_);
  return map_->PartitionForHash(hash);
}

RouteMap PartitionedCoordination::route_map() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return *map_;
}

uint64_t PartitionedCoordination::route_epoch() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return map_->epoch;
}

unsigned PartitionedCoordination::active_partition_count() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  std::vector<bool> owns(partitions_.size(), false);
  for (const RouteRange& range : map_->ranges) {
    owns[range.partition] = true;
  }
  return static_cast<unsigned>(std::count(owns.begin(), owns.end(), true));
}

ElasticCounters PartitionedCoordination::elastic_counters() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return elastic_;
}

std::shared_ptr<const RouteMap> PartitionedCoordination::ClientRouteMap(
    const std::string& client) {
  std::lock_guard<std::mutex> lock(route_mu_);
  auto it = client_maps_.find(client);
  if (it != client_maps_.end()) {
    return it->second;
  }
  // A client first seen now starts from the current map (it would fetch it
  // at mount); laziness only shows across subsequent route changes.
  client_maps_.emplace(client, map_);
  return map_;
}

Result<CoordReply> PartitionedCoordination::Submit(
    const CoordCommand& command) {
  switch (command.op) {
    case CoordOp::kReadPrefix:
    case CoordOp::kExportPrefix:
    // A prefix lease must cover the prefix's keys on every partition (they
    // hash across all of them), so the grant scatters like a prefix read;
    // the merged expiry is the most conservative (minimum) per-partition
    // expiry, and a mutation on any partition revokes its slice and
    // notifies — invalidation is by prefix, so one notice suffices.
    case CoordOp::kLeaseAcquire:
    case CoordOp::kLeaseRelease:
      return ScatterGather(command);
    case CoordOp::kRenamePrefix:
      if (partitions_.size() > 1) {
        // A prefix's keys hash across partitions; an in-place rename cannot
        // be atomic. Callers use the intent-record protocol built on
        // ExportPrefix/ImportEntry (MetadataService::RenameSubtree).
        return NotSupportedError(
            "kRenamePrefix spans partitions; use the intent-record rename");
      }
      break;
    default:
      break;
  }
  return RoutedExecute(command);
}

Result<CoordReply> PartitionedCoordination::RoutedExecute(
    const CoordCommand& command) {
  const uint64_t hash = PartitionRoutingHash(command.key);
  CoordCommand cmd = command;
  bool counted_stall = false;
  VirtualTime stall_deadline = -1;
  int retries = 0;
  while (true) {
    // Client side: route with the submitter's cached map and tag the
    // command with that map's epoch (the wire-visible half of the lazy
    // distribution protocol).
    std::shared_ptr<const RouteMap> client_map = ClientRouteMap(cmd.client);
    const unsigned target = client_map->PartitionForHash(hash);
    cmd.route_epoch = client_map->epoch;

    // Server side: the partition boundary enforces the authoritative map
    // strictly. A mutation aimed into a mid-migration (write-frozen) range
    // stalls; a command routed to a partition that no longer owns its key
    // is rejected together with the current map.
    bool frozen = false;
    bool rejected = false;
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      frozen = migrating_.has_value() && !cmd.is_read_only() &&
               HashInRange(hash, *migrating_);
      if (frozen && !counted_stall) {
        counted_stall = true;
        ++elastic_.migration_stalls;
      }
      if (!frozen && target != map_->PartitionForHash(hash)) {
        // "Misrouted, here is the current map": the client installs it and
        // retries transparently.
        rejected = true;
        ++elastic_.route_epoch_retries;
        client_maps_[cmd.client] = map_;
      }
    }
    if (frozen) {
      if (stall_deadline < 0) {
        stall_deadline = env_->Now() + config_.migration_stall_timeout;
      }
      if (env_->Now() >= stall_deadline) {
        return UnavailableError("mutation stalled behind a wedged migration");
      }
      env_->Sleep(kMigrationStallPoll);
      continue;
    }
    if (rejected) {
      if (++retries > kMaxRouteRetries) {
        return UnavailableError("route retries exhausted");
      }
      continue;
    }
    return partitions_[target]->Execute(cmd);
  }
}

Result<CoordReply> PartitionedCoordination::ScatterGather(
    const CoordCommand& command) {
  if (partitions_.size() == 1) {
    return partitions_[0]->Execute(command);
  }
  // Concurrent fan-out on the shared executor; the WhenAll join charges the
  // caller the slowest partition's round, not the sum — the scatter is one
  // parallel round, exactly like a DepSky cloud fan-out.
  std::vector<Future<Result<CoordReply>>> rounds;
  rounds.reserve(partitions_.size());
  for (auto& partition : partitions_) {
    SmrCluster* cluster = partition.get();
    rounds.push_back(SubmitTracked(
        &inflight_, [cluster, command] { return cluster->Execute(command); }));
  }
  std::vector<Result<CoordReply>> results = WhenAll(std::move(rounds)).Get();

  // Merge tagged with the source partition: mid-migration an entry
  // legitimately exists on both the source (until retirement) and the
  // destination (after import), and the merge must count it once — the
  // copy on the range's current owner wins.
  std::vector<std::pair<unsigned, CoordEntryView>> tagged;
  CoordReply merged;
  uint64_t min_expiry = UINT64_MAX;
  for (unsigned p = 0; p < results.size(); ++p) {
    auto& result = results[p];
    if (!result.ok()) {
      return result.status();  // transport-level failure of one partition
    }
    if (!result->ok()) {
      if (command.op == CoordOp::kLeaseRelease &&
          result->code == ErrorCode::kNotFound) {
        // A partition whose lease slice already expired has nothing to
        // release; the holder's intent is satisfied either way.
        continue;
      }
      // A state-machine error (e.g. kPermissionDenied from an export)
      // poisons the whole scatter: the caller must not see a partial view.
      return *result;
    }
    min_expiry = std::min(min_expiry, result->a);
    for (auto& entry : result->entries) {
      tagged.emplace_back(p, std::move(entry));
    }
  }
  std::shared_ptr<const RouteMap> owner_map;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    owner_map = map_;
  }
  // Partitions return their slices sorted (TupleSpace iterates an ordered
  // map); the merged view restores the global order a single cluster would
  // have returned. Within one key, the current owner's copy sorts first and
  // the duplicate is dropped.
  std::sort(tagged.begin(), tagged.end(),
            [&](const std::pair<unsigned, CoordEntryView>& a,
                const std::pair<unsigned, CoordEntryView>& b) {
              if (a.second.key != b.second.key) {
                return a.second.key < b.second.key;
              }
              const uint64_t hash = PartitionRoutingHash(a.second.key);
              const unsigned owner = owner_map->PartitionForHash(hash);
              return (a.first == owner) > (b.first == owner);
            });
  merged.entries.reserve(tagged.size());
  for (auto& item : tagged) {
    if (!merged.entries.empty() &&
        merged.entries.back().key == item.second.key) {
      continue;  // duplicate from a non-owner partition (mid-migration)
    }
    merged.entries.push_back(std::move(item.second));
  }
  if (command.op == CoordOp::kLeaseAcquire) {
    // The holder may serve only as long as EVERY partition's slice is live.
    merged.a = min_expiry == UINT64_MAX ? 0 : min_expiry;
  } else {
    merged.a = merged.entries.size();
  }
  return merged;
}

Future<Result<CoordReply>> PartitionedCoordination::SubmitAsync(
    const CoordCommand& command) {
  return SubmitTracked(&inflight_,
                       [this, command] { return Submit(command); });
}

Bytes PartitionedCoordination::StateDigest() {
  // Deterministic combination, sorted by partition index: hash the
  // concatenation of (index, per-partition order-quorum digest). Two
  // deployments (or one across a restart) that executed the same per-key
  // command history report the same combined fingerprint; any partition
  // without quorum backing makes the whole digest empty ("not converged").
  Bytes combined;
  for (unsigned i = 0; i < partitions_.size(); ++i) {
    Bytes digest = partitions_[i]->quorum_state_digest();
    if (digest.empty()) {
      return {};
    }
    AppendU32(&combined, i);
    AppendBytes(&combined, digest);
  }
  return Sha256::Hash(combined);
}

SmrCounters PartitionedCoordination::counters() const {
  SmrCounters out;
  for (const auto& partition : partitions_) {
    out += partition->counters();
  }
  return out;
}

PartitionLoadSnapshot PartitionedCoordination::LoadSnapshot() const {
  PartitionLoadSnapshot out;
  out.at = env_->Now();
  out.per_partition.reserve(partitions_.size());
  for (const auto& partition : partitions_) {
    out.per_partition.push_back(partition->counters());
  }
  return out;
}

uint64_t PartitionedCoordination::reply_bytes_out() const {
  uint64_t out = 0;
  for (const auto& partition : partitions_) {
    out += partition->reply_bytes_out();
  }
  return out;
}

// -- Elastic repartitioning -------------------------------------------------

std::string PartitionedCoordination::IntentKey(const MigrationSpec& spec) {
  return kIntentPrefix + Hex64(spec.begin);
}

std::string PartitionedCoordination::CommitKey(const MigrationSpec& spec) {
  return kCommitPrefix + Hex64(spec.begin);
}

Bytes PartitionedCoordination::EncodeSpec(const MigrationSpec& spec) {
  Bytes out;
  AppendU64(&out, spec.begin);
  AppendU64(&out, spec.end);
  AppendU64(&out, spec.src);
  AppendU64(&out, spec.dst);
  AppendU64(&out, spec.merge ? 1 : 0);
  return out;
}

bool PartitionedCoordination::DecodeSpec(ConstByteSpan payload,
                                         MigrationSpec* spec) {
  ByteReader reader(payload);
  uint64_t src = 0;
  uint64_t dst = 0;
  uint64_t merge = 0;
  if (!reader.ReadU64(&spec->begin) || !reader.ReadU64(&spec->end) ||
      !reader.ReadU64(&src) || !reader.ReadU64(&dst) ||
      !reader.ReadU64(&merge)) {
    return false;
  }
  spec->src = static_cast<unsigned>(src);
  spec->dst = static_cast<unsigned>(dst);
  spec->merge = merge != 0;
  return true;
}

bool PartitionedCoordination::HashInRange(uint64_t hash,
                                          const MigrationSpec& spec) {
  if (spec.end == 0) {
    return hash >= spec.begin;  // range reaches the top of the hash space
  }
  return hash >= spec.begin && hash < spec.end;
}

Result<CoordReply> PartitionedCoordination::AdminExecute(
    unsigned partition, CoordOp op, const std::string& key, Bytes value) {
  // Migration commands bypass the router on purpose: they address a
  // specific partition (the source or destination of a move), not "the
  // owner of key" — mid-migration those disagree by construction.
  CoordCommand cmd;
  cmd.op = op;
  cmd.client = kCoordAdminPrincipal;
  cmd.key = key;
  cmd.value = std::move(value);
  return partitions_[partition]->Execute(cmd);
}

Status PartitionedCoordination::BeginMigration(const MigrationSpec& spec) {
  std::lock_guard<std::mutex> lock(route_mu_);
  if (migrating_.has_value()) {
    return BusyError("a range migration is already in flight");
  }
  migrating_ = spec;  // write-freezes the range
  return OkStatus();
}

Result<std::vector<CoordEntryView>> PartitionedCoordination::ExportRange(
    const MigrationSpec& spec) {
  // One ordered export of the source's full slice, filtered to the moving
  // range. The range is write-frozen, so this snapshot cannot go stale
  // between export and commit.
  auto exported = AdminExecute(spec.src, CoordOp::kExportPrefix, "");
  if (!exported.ok()) {
    return exported.status();
  }
  if (!(*exported).ok()) {
    return (*exported).ToStatus("migration export");
  }
  std::vector<CoordEntryView> moved;
  for (auto& entry : (*exported).entries) {
    if (StartsWith(entry.key, kElasticPrefix)) {
      continue;  // migration records themselves never migrate
    }
    if (!HashInRange(PartitionRoutingHash(entry.key), spec)) {
      continue;
    }
    moved.push_back(std::move(entry));
  }
  return moved;
}

void PartitionedCoordination::CommitRouteChange(
    const MigrationSpec& spec, const std::vector<CoordEntryView>& moved) {
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (map_->PartitionForHash(spec.begin) != spec.dst) {
      // Rewrite the authoritative map: carve [begin, end) out of whatever
      // ranges cover it, hand it to dst, coalesce, bump the epoch by one.
      RouteMap next;
      next.epoch = map_->epoch + 1;
      auto emit = [&next](uint64_t start, unsigned partition) {
        if (!next.ranges.empty() &&
            next.ranges.back().partition == partition) {
          return;  // coalesce adjacent ranges of one partition
        }
        if (!next.ranges.empty() && next.ranges.back().start == start) {
          next.ranges.back().partition = partition;  // replace empty slice
          return;
        }
        next.ranges.push_back(RouteRange{start, partition});
      };
      for (size_t i = 0; i < map_->ranges.size(); ++i) {
        const RouteRange& range = map_->ranges[i];
        const uint64_t range_end = i + 1 < map_->ranges.size()
                                       ? map_->ranges[i + 1].start
                                       : 0;  // 0 = top of the hash space
        // Split this range at the migration boundaries and re-emit each
        // piece with its (possibly new) owner. A piece is inside the
        // migrating slice iff its start is.
        std::vector<uint64_t> cuts = {range.start};
        if (spec.begin > range.start &&
            (range_end == 0 || spec.begin < range_end)) {
          cuts.push_back(spec.begin);
        }
        if (spec.end != 0 && spec.end > range.start &&
            (range_end == 0 || spec.end < range_end)) {
          cuts.push_back(spec.end);
        }
        std::sort(cuts.begin(), cuts.end());
        for (uint64_t cut : cuts) {
          emit(cut, HashInRange(cut, spec) ? spec.dst : range.partition);
        }
      }
      map_ = std::make_shared<const RouteMap>(std::move(next));
    }
  }
  // Revoke delegated caches covering the moved keys BEFORE lifting the
  // write freeze: the controller runs below the LeasedCoordination
  // decorator, so the piggybacked revocation plumbing never saw the
  // migration — this hook is its replacement. Holders must drop before any
  // post-commit mutation (which would revoke only on the NEW owner, whose
  // lease slice the old grant does not live on) can be acknowledged.
  if (config_.on_migration_commit && !moved.empty()) {
    std::vector<LeaseRevocation> revoked;
    revoked.reserve(moved.size());
    for (const auto& entry : moved) {
      revoked.push_back(LeaseRevocation{entry.key, 0});
    }
    config_.on_migration_commit(revoked);
  }
  std::lock_guard<std::mutex> lock(route_mu_);
  migrating_.reset();  // lift the write freeze; stalled mutations re-route
}

Status PartitionedCoordination::RunMigration(const MigrationSpec& spec,
                                             bool crash_injection,
                                             bool intent_exists) {
  auto crash_at = [&](MigrationCrashPoint point) {
    if (!crash_injection) {
      return false;
    }
    MigrationCrashPoint expected = point;
    return crash_point_.compare_exchange_strong(expected,
                                                MigrationCrashPoint::kNone);
  };
  const VirtualTime started = env_->Now();

  // Phase 1 — prepare: a durable intent on the source partition. From here
  // the migration is replayable; the range stays write-frozen until commit.
  if (!intent_exists) {
    auto intent = AdminExecute(spec.src, CoordOp::kWrite, IntentKey(spec),
                               EncodeSpec(spec));
    if (!intent.ok()) {
      return intent.status();
    }
    if (!(*intent).ok()) {
      return (*intent).ToStatus("migration intent");
    }
  }
  if (crash_at(MigrationCrashPoint::kAfterIntent)) {
    return InternalError("injected crash after intent");
  }

  // A replay may land after the commit marker was written: then the data
  // already moved and only the map install + retirement remain.
  bool committed = false;
  {
    auto marker = AdminExecute(spec.dst, CoordOp::kRead, CommitKey(spec));
    if (!marker.ok()) {
      return marker.status();
    }
    committed = (*marker).ok();
  }

  auto moved = ExportRange(spec);
  if (!moved.ok()) {
    return moved.status();
  }

  if (!committed) {
    // Phase 2 — copy: import every entry of the frozen range into the
    // destination. Imports are idempotent (the new version derives from the
    // payload), so a replay that re-imports lands on identical state.
    const size_t import_count =
        crash_at(MigrationCrashPoint::kMidImport)
            ? moved->size() / 2  // model a controller dying mid-copy
            : moved->size();
    std::vector<Future<Result<CoordReply>>> imports;
    imports.reserve(import_count);
    for (size_t i = 0; i < import_count; ++i) {
      const CoordEntryView& entry = (*moved)[i];
      imports.push_back(SubmitTracked(&inflight_, [this, &spec, &entry] {
        return AdminExecute(spec.dst, CoordOp::kImportEntry, entry.key,
                            entry.value);
      }));
    }
    for (auto& result : WhenAll(std::move(imports)).Get()) {
      if (!result.ok()) {
        return result.status();
      }
      if (!result->ok()) {
        return result->ToStatus("migration import");
      }
    }
    if (import_count < moved->size()) {
      return InternalError("injected crash mid-import");
    }

    // Phase 3 — commit marker on the destination: the migration's point of
    // no return. Before it a replay re-copies; after it the move is a fact
    // and only the route change and retirement remain.
    auto marker = AdminExecute(spec.dst, CoordOp::kWrite, CommitKey(spec),
                               EncodeSpec(spec));
    if (!marker.ok()) {
      return marker.status();
    }
    if (!(*marker).ok()) {
      return (*marker).ToStatus("migration commit");
    }
    if (crash_at(MigrationCrashPoint::kAfterCommit)) {
      return InternalError("injected crash after commit");
    }
  }

  // Phase 4 — install the post-migration map (epoch + 1), revoke leases on
  // the moved keys, lift the write freeze.
  CommitRouteChange(spec, *moved);

  // Phase 5 — retire: drop the moved entries from the source, then the
  // commit marker, then (last) the intent. The intent is the replay
  // trigger, so any crash inside retirement leaves a replayable state; a
  // re-retire tolerates records a previous attempt already removed.
  for (const auto& entry : *moved) {
    auto removed = AdminExecute(spec.src, CoordOp::kRemove, entry.key);
    if (!removed.ok()) {
      return removed.status();
    }
    if (!(*removed).ok() && (*removed).code != ErrorCode::kNotFound) {
      return (*removed).ToStatus("migration retire");
    }
  }
  const std::pair<unsigned, std::string> records[] = {
      {spec.dst, CommitKey(spec)}, {spec.src, IntentKey(spec)}};
  for (const auto& [partition, key] : records) {
    auto removed = AdminExecute(partition, CoordOp::kRemove, key);
    if (!removed.ok()) {
      return removed.status();
    }
    if (!(*removed).ok() && (*removed).code != ErrorCode::kNotFound) {
      return (*removed).ToStatus("migration retire");
    }
  }

  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (spec.merge) {
      ++elastic_.merges;
    } else {
      ++elastic_.splits;
    }
    elastic_.keys_migrated += moved->size();
    elastic_.last_migration_us = static_cast<uint64_t>(env_->Now() - started);
    // The load landscape just changed shape; stale EWMAs would re-trigger
    // the controller on history.
    windowed_ops_s_.clear();
  }
  return OkStatus();
}

Status PartitionedCoordination::MigrateRange(const MigrationSpec& spec) {
  Status begun = BeginMigration(spec);
  if (!begun.ok()) {
    return begun;
  }
  // On an injected crash the freeze and the durable records stay in place
  // for ReplayMigrations — exactly what a dead controller leaves behind.
  return RunMigration(spec, /*crash_injection=*/true, /*intent_exists=*/false);
}

Status PartitionedCoordination::SplitPartition(unsigned src) {
  if (src >= partitions_.size()) {
    return InvalidArgumentError("no such partition");
  }
  MigrationSpec spec;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (migrating_.has_value()) {
      return BusyError("a range migration is already in flight");
    }
    // The spare: a partition owning no ranges.
    std::vector<bool> owns(partitions_.size(), false);
    for (const RouteRange& range : map_->ranges) {
      owns[range.partition] = true;
    }
    unsigned spare = static_cast<unsigned>(partitions_.size());
    for (unsigned p = 0; p < partitions_.size(); ++p) {
      if (!owns[p]) {
        spare = p;
        break;
      }
    }
    if (spare == partitions_.size()) {
      return UnavailableError("no spare partition to split onto");
    }
    // Split src's widest range at its hash midpoint: the top half moves.
    uint64_t best_start = 0;
    uint64_t best_width = 0;  // mod 2^64: 0 encodes the full space
    bool found = false;
    for (size_t i = 0; i < map_->ranges.size(); ++i) {
      if (map_->ranges[i].partition != src) {
        continue;
      }
      const uint64_t start = map_->ranges[i].start;
      const uint64_t end =
          i + 1 < map_->ranges.size() ? map_->ranges[i + 1].start : 0;
      const uint64_t width = end - start;  // mod 2^64
      const bool wider =
          !found || width == 0 || (best_width != 0 && width > best_width);
      if (wider) {
        found = true;
        best_start = start;
        best_width = width;
      }
    }
    if (!found) {
      return FailedPreconditionError("partition owns no range to split");
    }
    const uint64_t half = best_width == 0 ? (1ull << 63) : best_width / 2;
    if (half == 0) {
      return FailedPreconditionError("range too narrow to split");
    }
    spec.begin = best_start + half;
    spec.end = best_start + best_width;  // mod 2^64: 0 when at the top
    spec.src = src;
    spec.dst = spare;
    spec.merge = false;
  }
  return MigrateRange(spec);
}

Status PartitionedCoordination::MergePartitions(unsigned src, unsigned dst) {
  if (src >= partitions_.size() || dst >= partitions_.size() || src == dst) {
    return InvalidArgumentError("bad merge pair");
  }
  // Move src's ranges onto dst one migration at a time (each is its own
  // intent/commit cycle); when the last lands, src is a spare again.
  while (true) {
    MigrationSpec spec;
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      if (migrating_.has_value()) {
        return BusyError("a range migration is already in flight");
      }
      bool found = false;
      for (size_t i = 0; i < map_->ranges.size(); ++i) {
        if (map_->ranges[i].partition != src) {
          continue;
        }
        spec.begin = map_->ranges[i].start;
        spec.end = i + 1 < map_->ranges.size() ? map_->ranges[i + 1].start : 0;
        spec.src = src;
        spec.dst = dst;
        spec.merge = true;
        found = true;
        break;
      }
      if (!found) {
        return OkStatus();  // src owns nothing (anymore)
      }
    }
    Status moved = MigrateRange(spec);
    if (!moved.ok()) {
      return moved;
    }
  }
}

Status PartitionedCoordination::ReplayMigrations() {
  // The coordination plane's Mount analog: scan every partition for
  // outstanding intents and roll each forward. At most one migration is
  // ever in flight, so at most one intent exists; the scan is still
  // exhaustive for robustness.
  for (unsigned p = 0; p < partitions_.size(); ++p) {
    auto intents = AdminExecute(p, CoordOp::kReadPrefix, kIntentPrefix);
    if (!intents.ok()) {
      return intents.status();
    }
    if (!(*intents).ok()) {
      return (*intents).ToStatus("migration replay scan");
    }
    for (const auto& record : (*intents).entries) {
      MigrationSpec spec;
      if (!DecodeSpec(record.value, &spec)) {
        return CorruptionError("undecodable migration intent");
      }
      {
        // Re-freeze the range (a crashed controller's freeze may or may not
        // have survived — after a process restart it would not have).
        std::lock_guard<std::mutex> lock(route_mu_);
        migrating_ = spec;
      }
      Status replayed = RunMigration(spec, /*crash_injection=*/false,
                                     /*intent_exists=*/true);
      if (!replayed.ok()) {
        return replayed;
      }
    }
  }
  return OkStatus();
}

void PartitionedCoordination::ControllerLoop() {
  // The load-aware split controller: one extra concurrent actor per
  // deployment, folding windowed counter deltas — never cumulative
  // counters, which blend current load with all history since mount — into
  // per-partition ops/s EWMAs, and migrating ranges when the landscape
  // stays skewed. Requires a scaled environment (in instant mode the
  // window sleeps would race the virtual clock forward).
  PartitionLoadSnapshot prev = LoadSnapshot();
  while (!controller_stop_.load()) {
    VirtualDuration remaining = config_.split_window;
    while (remaining > 0 && !controller_stop_.load()) {
      const VirtualDuration chunk =
          std::min<VirtualDuration>(remaining, 50 * kMillisecond);
      env_->Sleep(chunk);
      remaining -= chunk;
    }
    if (controller_stop_.load()) {
      break;
    }
    PartitionLoadSnapshot snap = LoadSnapshot();
    const std::vector<double> rates = PartitionOpsPerSecond(prev, snap);
    prev = snap;
    if (rates.empty()) {
      continue;
    }
    double total = 0;
    double hot_rate = 0;
    unsigned hot = 0;
    bool busy = false;
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      if (windowed_ops_s_.size() != rates.size()) {
        windowed_ops_s_ = rates;
      } else {
        for (size_t i = 0; i < rates.size(); ++i) {
          windowed_ops_s_[i] = 0.5 * windowed_ops_s_[i] + 0.5 * rates[i];
        }
      }
      for (unsigned i = 0; i < windowed_ops_s_.size(); ++i) {
        total += windowed_ops_s_[i];
        if (windowed_ops_s_[i] > windowed_ops_s_[hot]) {
          hot = i;
        }
      }
      hot_rate = windowed_ops_s_[hot];
      busy = migrating_.has_value();
    }
    if (busy || total < config_.split_min_total_ops_s) {
      continue;
    }
    if (hot_rate / total > config_.split_hot_share) {
      SplitPartition(hot);  // kUnavailable without a spare; benign
    }
  }
}

}  // namespace scfs
