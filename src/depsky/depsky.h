// DepSkyClient: the cloud-of-clouds storage protocols (paper §3.2, Figure 6,
// and [15]), extended with SCFS's read-by-hash operation for consistency
// anchoring.
//
// A data unit is a versioned object spread over n = 3f+1 clouds. A write:
//   1. generates a fresh random key K, encrypts the file with it,
//   2. erasure-codes the ciphertext into n shards (any k = f+1 recover it),
//   3. secret-shares K so each cloud gets one share (f+1 shares recover K),
//   4. stores shard_i + share_i in cloud i — with preferred quorums only the
//      cheapest n-f clouds are used unless one fails,
//   5. appends the version to the authenticated metadata object replicated in
//      every cloud.
// A read fetches the metadata from all clouds, keeps the highest
// authenticated version, then fetches any k valid shards (hash-checked, so
// corrupted or byzantine clouds are detected and skipped).
//
// No single cloud ever holds the plaintext or the whole key: confidentiality,
// integrity and availability survive f arbitrary cloud faults.

#ifndef SCFS_DEPSKY_DEPSKY_H_
#define SCFS_DEPSKY_DEPSKY_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/cloud/health.h"
#include "src/cloud/object_store.h"
#include "src/codec/reed_solomon.h"
#include "src/common/backoff.h"
#include "src/common/executor.h"
#include "src/common/future.h"
#include "src/common/lru_cache.h"
#include "src/common/rng.h"
#include "src/common/timer_queue.h"
#include "src/crypto/secret_sharing.h"
#include "src/depsky/metadata.h"
#include "src/sim/environment.h"

namespace scfs {

struct DepSkyCloud {
  ObjectStore* store = nullptr;
  CloudCredentials creds;  // this client's account at that provider
};

struct DepSkyConfig {
  unsigned f = 1;
  DepSkyMode mode = DepSkyMode::kSecretSharing;
  bool preferred_quorums = true;  // write shards to n-f clouds only
  Bytes auth_key;                 // metadata HMAC key (deployment secret)

  // --- Degraded-mode behavior (see DESIGN.md "Failure model") ---
  // Per-attempt deadline on every cloud request; a request that has not
  // answered by then is counted as a failure (and possibly retried) while
  // the straggler keeps running in its store. 0 disables. Deadlines and
  // hedges are timer-driven and therefore inert in instant environments.
  VirtualDuration request_deadline = FromSecondsD(5);
  // Attempts per cloud request (1 = no retry). Retries back off with
  // `retry_backoff` between attempts.
  int max_attempts = 2;
  BackoffPolicy retry_backoff{FromMillis(50), FromMillis(1000), 2.0, 0.5};
  // Shard reads launch one extra holder after an adaptive delay (the
  // (f+2)-th cloud) instead of waiting out a straggler.
  bool hedged_reads = true;
  // Circuit-breaker / EWMA configuration for the per-cloud health tracker.
  HealthOptions health;

  // --- Striped large-file data plane (DESIGN.md "Striped data plane") ---
  // A version is stored as one or more object sets ("units"), each its own
  // encrypt→erasure-encode→quorum-PUT. Secret-sharing writes strictly larger
  // than stripe_unit() bytes are cut into stripe_unit() sized units fanned
  // out with bounded depth; anything else is the paper's single data unit.
  // One version number, one metadata record and one key/nonce cover all
  // units. 0 stores every version as one unit.
  size_t stripe_unit_size = 4 * 1024 * 1024;
  // Units in flight per write/read: peak client memory for a striped
  // transfer is O(stripe_window() × stripe_unit()), not O(file). 0 = auto:
  // match the host's core count (capped at 8) — depth beyond the cores only
  // buys context switches when the pipeline is CPU-bound, while a
  // single-core host degrades to the optimal serial loop.
  unsigned stripe_inflight = 0;

  unsigned n() const { return 3 * f + 1; }
  unsigned k() const { return f + 1; }
  unsigned quorum() const { return n() - f; }
  // Unit size rounded up to the cipher block (64 bytes) so each unit's
  // keystream counter offset (unit byte offset / 64) addresses the same
  // file-wide stream a one-unit encryption would produce. 0 = one unit.
  size_t stripe_unit() const { return (stripe_unit_size + 63) / 64 * 64; }
  // Effective in-flight window (resolves the auto default).
  unsigned stripe_window() const {
    if (stripe_inflight > 0) {
      return stripe_inflight;
    }
    unsigned cores = std::thread::hardware_concurrency();
    return cores == 0 ? 2 : std::min(cores, 8u);
  }
};

// Outcome of one scrub pass over a data unit (see ScrubUnit): how many stored
// objects were probed, found missing/corrupt, rebuilt in place, moved to a
// substitute cloud, or left unrepaired.
struct DepSkyScrubReport {
  uint64_t versions_checked = 0;
  uint64_t objects_checked = 0;
  uint64_t objects_missing = 0;
  uint64_t objects_repaired = 0;
  uint64_t objects_relocated = 0;
  uint64_t repair_failures = 0;
  // True when every recorded holder ended the pass with a hash-valid object.
  bool fully_redundant = true;
};

class DepSkyClient {
 public:
  DepSkyClient(Environment* env, std::vector<DepSkyCloud> clouds,
               DepSkyConfig config, uint64_t seed = 99);
  // Waits for ACL continuations still riding behind straggler PUTs.
  ~DepSkyClient();

  // Stores a new version. `content_hash` is the hex consistency-anchor hash
  // of `data` (computed by the caller; verified on read). Returns the new
  // version number. If `merge_grants` is non-null, those grants are folded
  // into the unit metadata in the same metadata push (no extra round trip).
  //
  // `data` is a borrowed view: the payload is encrypted straight into the
  // erasure-coding arena (secret-sharing mode) or serialized straight into
  // the per-cloud wire objects (replication mode) — the client never makes
  // its own copy of the plaintext.
  Result<uint64_t> WriteVersion(
      const std::string& unit, const std::string& content_hash,
      ConstByteSpan data,
      const std::vector<DepSkyGrant>* merge_grants = nullptr);

  // Reads the version with the given content hash; NOT_FOUND if no (visible)
  // metadata lists it — the consistency-anchor read loop retries.
  Result<Bytes> ReadByHash(const std::string& unit,
                           const std::string& content_hash);

  // Reads the highest authenticated version.
  Result<Bytes> ReadLatest(const std::string& unit);

  // Range read of the version with the given content hash: only the object
  // sets overlapping [offset, offset+length) are fetched, each verified on
  // its own — a stripe unit against its recorded plaintext hash, the single
  // set of a monolithic version (the whole file) against the consistency
  // anchor. Reads past EOF are clamped.
  Result<Bytes> ReadAt(const std::string& unit, const std::string& content_hash,
                       uint64_t offset, size_t length);

  // Scrub & repair: probes every recorded holder of every version (stripe
  // units included), and rebuilds missing or corrupt stored objects from k
  // surviving shards — re-deriving parity with the erasure code and the lost
  // key share by Lagrange interpolation, so the repaired object is
  // byte-identical to the original (same recorded hash, no metadata change).
  // If a holder stays unreachable, the shard is relocated to a cloud that
  // holds none of this object's shards and the metadata map is updated.
  // Client reads keep working throughout — repair touches only clouds,
  // never the read path.
  Result<DepSkyScrubReport> ScrubUnit(const std::string& unit);

  // Quorum-read of the data unit's metadata.
  Result<DepSkyMetadata> ReadMetadata(const std::string& unit);

  // Garbage collection: drops one version (objects + metadata entry), or the
  // whole unit.
  Status DeleteVersion(const std::string& unit, uint64_t version);
  Status DeleteUnit(const std::string& unit);

  // Sharing: grants `grant.cloud_ids[i]` access at cloud i to all current and
  // future objects of the unit, and records the grant in the metadata so
  // future writers re-apply it. Empty read+write revokes.
  Status SetGrant(const std::string& unit, const DepSkyGrant& grant);

  unsigned cloud_count() const { return static_cast<unsigned>(clouds_.size()); }
  const DepSkyConfig& config() const { return config_; }

  // Self-healing telemetry: the per-cloud breaker/EWMA state and the
  // counters the fault benches report.
  const CloudHealthTracker& health() const { return health_; }
  uint64_t retries() const { return retries_.load(); }
  uint64_t deadline_expiries() const { return deadline_expiries_.load(); }
  uint64_t hedged_reads() const { return hedged_reads_.load(); }
  // Arena recycling across object sets, writes and reads.
  uint64_t arena_pool_hits() const { return arena_pool_.hits(); }
  uint64_t arena_pool_misses() const { return arena_pool_.misses(); }

  // Deterministic cloud key naming for a unit's metadata and value objects
  // (exposed so tests and inspection tooling can address stored objects).
  static std::string MetadataKey(const std::string& unit);
  static std::string ValueKey(const std::string& unit, uint64_t version);
  static std::string StripeValueKey(const std::string& unit, uint64_t version,
                                    uint64_t stripe_index);

 private:
  struct ShardFetchState;
  struct ObjectSet;

  // Shards + key shares collected by one quorum shard fetch.
  struct FetchedShards {
    std::vector<std::optional<Bytes>> shards;  // by shard index
    std::vector<SecretShare> shares;
  };

  // Writes the given metadata to every cloud through the async ObjectStore
  // API, returning as soon as a write quorum (n-f) has acknowledged; the
  // stragglers keep running inside their stores. Remembers an acknowledged
  // record for ReadMetadataForUpdate.
  Status PushMetadata(const std::string& unit, const DepSkyMetadata& md);
  // The base of every read-modify-write of a unit's metadata: the quorum
  // read, or this client's last pushed record when that one has a newer
  // version (the quorum read can lag a push by the consistency window).
  Result<DepSkyMetadata> ReadMetadataForUpdate(const std::string& unit);

  // The layout decision: a version's stored object sets, in file order. A
  // monolithic version (the paper's data unit) is one set covering the whole
  // file under ValueKey with the version-level records; a striped version is
  // one set per stripe unit. The sets point into `version`, so writers fill
  // its records through them and scrub rewrites its cloud maps.
  static std::vector<ObjectSet> ObjectSets(const std::string& unit,
                                           DepSkyVersion& version);

  // Encodes and places one object set of a write: pooled arena, encrypt at
  // the set's keystream offset (secret sharing) or plaintext replicas
  // (replication), stored-object hashes, placement. Fills the set's records.
  Status WriteObjectSet(const DepSkyMetadata& md, const ObjectSet& set,
                        ConstByteSpan data, const Bytes& key,
                        const Bytes& nonce,
                        const std::vector<SecretShare>& shares);
  // Fetches one object set's plaintext into `out` (sized to the set):
  // quorum shard fetch, decode into a pooled arena, decrypt at the set's
  // keystream offset (or copy the replica in replication mode).
  Status FetchObjectSet(const std::string& unit, const DepSkyMetadata& md,
                        const Bytes& nonce, const ObjectSet& set,
                        ByteSpan out);

  // Fetches, reassembles and anchor-checks one version.
  Result<Bytes> FetchVersion(const std::string& unit,
                             const DepSkyMetadata& md,
                             DepSkyVersion& version);

  // Places one object set (shard i + share i per cloud) under `value_key`:
  // health-ordered preferred wave fanned out to the write quorum, ACLs on the
  // acknowledged copies, then a fallback wave routing failed shards to spare
  // clouds (re-encoding via `encode_object`). Returns the cloud→shard map,
  // or UNAVAILABLE if no write quorum was reached.
  Result<std::vector<int32_t>> PlaceObjects(
      const DepSkyMetadata& md, const std::string& value_key,
      std::vector<Bytes> objects,
      const std::function<Bytes(unsigned)>& encode_object);

  // Quorum-fetches k hash-valid stored objects of one value key through the
  // hedged/breaker read path.
  Result<FetchedShards> FetchShards(const std::string& unit,
                                    const std::string& value_key, unsigned k,
                                    const std::vector<int32_t>& cloud_shard,
                                    const std::vector<Bytes>& shard_hashes);

  // Scrub of one object set: probes recorded holders, rebuilds lost or
  // corrupt objects byte-identically (erasure re-encode + Lagrange share
  // recovery), re-uploads in place or relocates to an unused cloud (flips
  // *metadata_dirty so the caller pushes the updated map once).
  void ScrubObjectSet(const DepSkyMetadata& md, const ObjectSet& set,
                      DepSkyScrubReport* report, bool* metadata_dirty);

  // Applies all grants (+ owner) to one object at one cloud, waiting for
  // the ACL round trips.
  void ApplyAclsToObject(const DepSkyMetadata& md, unsigned cloud,
                         const std::string& key);
  // Same, but queues the ACL round trips through the async API and appends
  // their futures to `out` — post-quorum call sites fan ACLs out across
  // clouds and pay max-of-clouds, not the sum.
  void CollectAclFutures(const DepSkyMetadata& md, unsigned cloud,
                         const std::string& key,
                         std::vector<Future<Status>>* out);
  // Applies the ACLs once `put` completes successfully — attached to PUTs
  // still in flight past a quorum trigger, so a consistently slow (but
  // correct) cloud still converges to the granted state instead of
  // permanently consuming the fault margin.
  void ApplyAclsWhenWritten(Future<Status> put, unsigned cloud,
                            std::shared_ptr<const DepSkyMetadata> md,
                            const std::string& key);

  Bytes RandomBytesLocked(size_t size);

  // Wraps one cloud request with the robustness envelope: a per-attempt
  // deadline, capped-backoff retries, and health accounting. `issue` starts
  // (or restarts) the underlying async request; `responsive` decides
  // whether a completed value counts as the cloud answering (NOT_FOUND is a
  // perfectly healthy answer); `timeout_value` synthesizes the value for a
  // deadline expiry. Defined in depsky.cc.
  Future<Status> RobustPut(unsigned cloud, const std::string& key,
                           std::shared_ptr<const Bytes> data);
  Future<Result<Bytes>> RobustGet(unsigned cloud, const std::string& key);

  // Launches the next unlaunched holder of a shard fetch (first wave,
  // failure-triggered or hedged) at modelled `offset` into the fetch, and
  // arms the hedge timer chain.
  void LaunchShardGet(const std::shared_ptr<ShardFetchState>& state,
                      VirtualDuration offset);
  void ArmHedgeTimer(const std::shared_ptr<ShardFetchState>& state);

  Environment* env_;
  std::vector<DepSkyCloud> clouds_;
  DepSkyConfig config_;
  std::mutex rng_mu_;
  Rng rng_;
  CloudHealthTracker health_;
  VirtualTimerQueue timers_;
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> deadline_expiries_{0};
  std::atomic<uint64_t> hedged_reads_{0};
  // Recycled across object sets, writes and reads; sized to keep a full
  // stripe window's arenas warm.
  ArenaPool arena_pool_;
  // The last metadata record this client pushed, per recently written unit.
  static constexpr size_t kPushedMetadataUnits = 256;
  std::mutex pushed_mu_;
  LruCache<std::string, DepSkyMetadata> pushed_metadata_;
  InFlightTracker async_ops_;
};

}  // namespace scfs

#endif  // SCFS_DEPSKY_DEPSKY_H_
