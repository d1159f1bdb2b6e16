#include "src/depsky/depsky.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "src/common/backoff.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/secret_sharing.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"

namespace scfs {

namespace {

// Backoff between attempts of one cloud request (see RobustCall).
constexpr BackoffPolicy kRetryBackoff{FromMillis(50), FromMillis(1000), 2.0,
                                      0.5};

// Everything one robust cloud request needs from its DepSkyClient, borrowed
// for the call's lifetime (the client's destructor awaits async_ops_, which
// the call holds until it settles).
struct RobustContext {
  Environment* env = nullptr;
  VirtualTimerQueue* timers = nullptr;
  CloudHealthTracker* health = nullptr;
  const DepSkyConfig* config = nullptr;
  std::mutex* rng_mu = nullptr;
  Rng* rng = nullptr;
  InFlightTracker* tracker = nullptr;
  std::atomic<uint64_t>* retries = nullptr;
  std::atomic<uint64_t>* deadline_expiries = nullptr;
};

// One cloud request wrapped in the robustness envelope: a per-attempt
// deadline (enforced by the shared timer queue, so no watchdog thread per
// request), capped-backoff-with-jitter retries, and success/failure
// accounting into the health tracker. The modelled request itself is never
// aborted — a deadline expiry counts the attempt as failed and moves on
// while the straggler finishes inside its store, exactly like an HTTP
// client timing out a slow provider.
//
// The call's charge is modelled, never elapsed time: the sum over its
// attempts of the attempt's own charge (the full deadline for an attempt
// that expired), plus the backoff before each retry. Host time spent in
// callbacks and executor queues therefore never turns into modelled time.
// Only the health tracker's latency sample stays elapsed: it times hedges.
template <typename T>
class RobustCall : public std::enable_shared_from_this<RobustCall<T>> {
 public:
  RobustCall(RobustContext ctx, unsigned cloud,
             std::function<Future<T>()> issue,
             std::function<bool(const T&)> responsive,
             std::function<T()> timeout_value)
      : ctx_(ctx),
        cloud_(cloud),
        issue_(std::move(issue)),
        responsive_(std::move(responsive)),
        timeout_value_(std::move(timeout_value)) {}

  Future<T> Start() {
    ctx_.tracker->Add();
    Attempt(0);
    return promise_.future();
  }

 private:
  void Attempt(int attempt) {
    auto self = this->shared_from_this();
    VirtualTime start = ctx_.env->Now();
    // The deadline timer and the completion callback race to claim the
    // attempt; exactly one settles it.
    auto claimed = std::make_shared<std::atomic<bool>>(false);
    auto timer_id = std::make_shared<uint64_t>(0);
    if (ctx_.config->request_deadline > 0) {
      *timer_id = ctx_.timers->Schedule(
          start + ctx_.config->request_deadline,
          [self, attempt, start, claimed] {
            if (!claimed->exchange(true)) {
              self->ctx_.deadline_expiries->fetch_add(1);
              self->Settle(attempt, self->timeout_value_(), false,
                           self->ctx_.config->request_deadline);
            }
          });
    }
    Future<T> inner = issue_();
    inner.OnReady(
        [self, attempt, start, claimed, timer_id](const T& value,
                                                  VirtualDuration charge) {
          if (claimed->exchange(true)) {
            return;  // the deadline already declared this attempt dead
          }
          self->ctx_.timers->Cancel(*timer_id);
          self->Settle(attempt, value, self->responsive_(value), charge,
                       self->ctx_.env->Now() - start);
        });
  }

  // Attempts run one after another, so `charged_` needs no lock: each
  // Settle happens-after the previous attempt's.
  void Settle(int attempt, T value, bool responsive,
              VirtualDuration attempt_charge, VirtualDuration latency = 0) {
    VirtualTime now = ctx_.env->Now();
    charged_ += attempt_charge;
    if (responsive) {
      ctx_.health->RecordSuccess(cloud_, now, latency);
      Finish(std::move(value));
      return;
    }
    ctx_.health->RecordFailure(cloud_, now);
    int max_attempts = std::max(1, ctx_.config->max_attempts);
    if (attempt + 1 < max_attempts) {
      ctx_.retries->fetch_add(1);
      VirtualDuration delay;
      {
        std::lock_guard<std::mutex> lock(*ctx_.rng_mu);
        delay = kRetryBackoff.Delay(attempt, *ctx_.rng);
      }
      charged_ += delay;
      auto self = this->shared_from_this();
      if (delay > 0) {
        uint64_t id = ctx_.timers->Schedule(
            now + delay, [self, attempt] { self->Attempt(attempt + 1); });
        if (id != 0) {
          return;  // retry armed on the timer thread
        }
      }
      Attempt(attempt + 1);  // instant environment: retry inline
      return;
    }
    Finish(std::move(value));
  }

  void Finish(T value) {
    promise_.Set(std::move(value), charged_);
    ctx_.tracker->Done();
  }

  RobustContext ctx_;
  unsigned cloud_;
  std::function<Future<T>()> issue_;
  std::function<bool(const T&)> responsive_;
  std::function<T()> timeout_value_;
  VirtualDuration charged_ = 0;
  Promise<T> promise_;
};

// A cloud that answers — even with NOT_FOUND or PERMISSION_DENIED — is
// healthy; only unreachability (and deadline expiry) counts against it.
bool ResponsiveStatus(const Status& s) {
  return s.ok() || s.code() == ErrorCode::kNotFound ||
         s.code() == ErrorCode::kPermissionDenied ||
         s.code() == ErrorCode::kAlreadyExists;
}

// Runs task(0) .. task(count-1) with at most `depth` tasks in flight. A
// single task or a window of one runs inline on the caller's thread — a
// serial pipeline gains nothing from an executor hop. Otherwise the tasks run
// on the executor and are drained in submission order, so the caller is
// charged the sum of their charges. Stops launching at the first error and
// returns it; every launched task is drained first, so tasks may capture the
// caller's state by reference.
Status RunWindowed(unsigned depth, InFlightTracker* tracker, size_t count,
                   const std::function<Status(size_t)>& task) {
  Status first_error = OkStatus();
  if (count == 1 || depth <= 1) {
    for (size_t i = 0; i < count && first_error.ok(); ++i) {
      first_error = task(i);
    }
    return first_error;
  }
  std::deque<Future<Status>> window;
  auto drain_front = [&]() {
    Status s = window.front().Get();
    window.pop_front();
    if (!s.ok() && first_error.ok()) {
      first_error = s;
    }
  };
  for (size_t i = 0; i < count && first_error.ok(); ++i) {
    while (window.size() >= depth) {
      drain_front();
    }
    window.push_back(SubmitTracked(tracker, [&task, i]() { return task(i); }));
  }
  while (!window.empty()) {
    drain_front();
  }
  return first_error;
}

// Best-effort delete of `keys` at every cloud, fanned out in parallel (the
// caller pays the slowest request, not the sum); missing objects are fine.
void DeleteObjects(const std::vector<DepSkyCloud>& clouds,
                   const std::vector<std::string>& keys) {
  std::vector<Future<Status>> futures;
  futures.reserve(clouds.size() * keys.size());
  for (const auto& key : keys) {
    for (const auto& cloud : clouds) {
      futures.push_back(cloud.store->DeleteAsync(cloud.creds, key));
    }
  }
  WhenAll<Status>(std::move(futures)).Join();
}

}  // namespace

// One stored object set of a version: the objects under one value key and
// the plaintext byte range they encode. The records point into the version.
struct DepSkyClient::ObjectSet {
  std::string value_key;
  uint64_t offset = 0;
  size_t length = 0;
  std::vector<Bytes>* shard_hashes = nullptr;
  std::vector<int32_t>* cloud_shard = nullptr;
  // SHA-256 of the set's plaintext, checked by range reads; null for the one
  // set of a monolithic version, which the consistency anchor covers.
  Bytes* unit_hash = nullptr;
};

DepSkyClient::DepSkyClient(Environment* env, std::vector<DepSkyCloud> clouds,
                           DepSkyConfig config, uint64_t seed)
    : env_(env),
      clouds_(std::move(clouds)),
      config_(config),
      rng_(seed),
      health_(static_cast<unsigned>(clouds_.size())),
      timers_(env),
      pushed_metadata_(kPushedMetadataUnits) {}

DepSkyClient::~DepSkyClient() {
  // Every RobustCall holds a tracker slot until it settles, and pending
  // retries live on the timer queue — await them before the members (the
  // timer queue among them) are torn down.
  async_ops_.AwaitIdle();
}

Future<Status> DepSkyClient::RobustPut(unsigned cloud, const std::string& key,
                                       std::shared_ptr<const Bytes> data) {
  RobustContext ctx{env_,     &timers_, &health_,  &config_,           &rng_mu_,
                    &rng_,    &async_ops_, &retries_, &deadline_expiries_};
  // Every attempt shares the one encoded buffer — the store takes a
  // reference, not a copy, so a retry costs a request, not a payload copy.
  auto call = std::make_shared<RobustCall<Status>>(
      ctx, cloud,
      [this, cloud, key, data = std::move(data)]() {
        return clouds_[cloud].store->PutAsync(clouds_[cloud].creds, key, data);
      },
      [](const Status& s) { return ResponsiveStatus(s); },
      [key]() { return TimeoutError("deadline expired: PUT " + key); });
  return call->Start();
}

Future<Result<Bytes>> DepSkyClient::RobustGet(unsigned cloud,
                                              const std::string& key) {
  RobustContext ctx{env_,     &timers_, &health_,  &config_,           &rng_mu_,
                    &rng_,    &async_ops_, &retries_, &deadline_expiries_};
  auto call = std::make_shared<RobustCall<Result<Bytes>>>(
      ctx, cloud,
      [this, cloud, key]() {
        return clouds_[cloud].store->GetAsync(clouds_[cloud].creds, key);
      },
      [](const Result<Bytes>& r) { return ResponsiveStatus(r.status()) || r.ok(); },
      [key]() -> Result<Bytes> {
        return TimeoutError("deadline expired: GET " + key);
      });
  return call->Start();
}

void DepSkyClient::ApplyAclsWhenWritten(
    Future<Status> put, unsigned cloud,
    std::shared_ptr<const DepSkyMetadata> md, const std::string& key) {
  async_ops_.Add();
  put.OnReady([this, cloud, md, key](const Status& status, VirtualDuration) {
    if (status.ok()) {
      std::vector<Future<Status>> acl;
      CollectAclFutures(*md, cloud, key, &acl);
      // The ACL requests' own completion is tracked by their store.
    }
    async_ops_.Done();
  });
}

std::string DepSkyClient::MetadataKey(const std::string& unit) {
  return "du/" + unit + "/md";
}

std::string DepSkyClient::ValueKey(const std::string& unit, uint64_t version) {
  return "du/" + unit + "/v" + std::to_string(version);
}

std::string DepSkyClient::StripeValueKey(const std::string& unit,
                                         uint64_t version,
                                         uint64_t stripe_index) {
  return "du/" + unit + "/v" + std::to_string(version) + "/u" +
         std::to_string(stripe_index);
}

std::vector<DepSkyClient::ObjectSet> DepSkyClient::ObjectSets(
    const std::string& unit, DepSkyVersion& version) {
  if (!version.striped()) {
    return {ObjectSet{ValueKey(unit, version.version), 0, version.size,
                      &version.shard_hashes, &version.cloud_shard, nullptr}};
  }
  const uint64_t unit_size = version.stripe_unit_size;
  const uint64_t count = version.stripe_units.size();
  std::vector<ObjectSet> sets;
  sets.reserve(count);
  for (uint64_t u = 0; u < count; ++u) {
    const uint64_t begin = std::min(u * unit_size, version.size);
    // The last set runs to EOF: a manifest that does not tile the file fails
    // that set's frame-length check instead of leaving bytes unread.
    const uint64_t end = u + 1 == count
                             ? version.size
                             : std::min(begin + unit_size, version.size);
    DepSkyStripeUnit& stripe = version.stripe_units[u];
    sets.push_back(ObjectSet{StripeValueKey(unit, version.version, u), begin,
                             static_cast<size_t>(end - begin),
                             &stripe.shard_hashes, &stripe.cloud_shard,
                             &stripe.content_hash});
  }
  return sets;
}

Bytes DepSkyClient::RandomBytesLocked(size_t size) {
  std::lock_guard<std::mutex> lock(rng_mu_);
  return rng_.RandomBytes(size);
}

Result<DepSkyMetadata> DepSkyClient::ReadMetadata(const std::string& unit) {
  const std::string key = MetadataKey(unit);
  // Fan the GET out to every cloud through the async API, but return as soon
  // as a quorum (n-f) of authenticated copies answered — the protocol only
  // needs n-f replies, and waiting for the slowest cloud is exactly the
  // latency the paper's quorum design avoids.
  std::vector<Future<Result<Bytes>>> futures;
  futures.reserve(clouds_.size());
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    futures.push_back(RobustGet(i, key));
  }
  // The predicate authenticates each reply once and keeps the decoded copy
  // (it runs serialized under the combinator's lock and never after the
  // trigger, so the shared vector needs no further synchronization).
  struct Decoded {
    std::vector<std::optional<DepSkyMetadata>> entries;
  };
  auto decoded = std::make_shared<Decoded>();
  decoded->entries.resize(clouds_.size());
  const Bytes auth_key = config_.auth_key;
  (void)WhenQuorum<Result<Bytes>>(
      std::move(futures), config_.quorum(),
      [decoded, auth_key](size_t i, const Result<Bytes>& raw) {
        if (!raw.ok()) {
          return false;
        }
        auto md = DepSkyMetadata::Decode(*raw, auth_key);
        if (!md.ok()) {
          return false;  // corrupted/forged copy: skip
        }
        decoded->entries[i] = std::move(*md);
        return true;
      })
      .Join();

  // Keep the highest *authenticated* version view among the replies.
  // Byzantine clouds cannot forge the HMAC; at worst they serve an old copy,
  // which loses the max-version vote as long as one honest fresh copy is in
  // the quorum.
  Result<DepSkyMetadata> best = NotFoundError("no metadata for " + unit);
  uint64_t best_version = 0;
  bool found = false;
  for (auto& entry : decoded->entries) {
    if (!entry.has_value()) {
      continue;
    }
    uint64_t version =
        entry->versions.empty() ? 0 : entry->versions.back().version;
    if (!found || version > best_version) {
      best = std::move(*entry);
      best_version = version;
      found = true;
    }
  }
  return best;
}

Result<DepSkyMetadata> DepSkyClient::ReadMetadataForUpdate(
    const std::string& unit) {
  Result<DepSkyMetadata> read = ReadMetadata(unit);
  if (!read.ok()) {
    return read;
  }
  std::optional<DepSkyMetadata> pushed;
  {
    std::lock_guard<std::mutex> lock(pushed_mu_);
    pushed = pushed_metadata_.Get(unit);
  }
  // A metadata overwrite is invisible for the clouds' consistency window, so
  // the quorum may still show a record older than this client's own last
  // push. Building on it would reuse a version number (and overwrite that
  // version's value objects) or drop the newest version from the history.
  if (pushed.has_value() &&
      pushed->NextVersionNumber() > read->NextVersionNumber()) {
    return *std::move(pushed);
  }
  return read;
}

Status DepSkyClient::PushMetadata(const std::string& unit,
                                  const DepSkyMetadata& md) {
  const std::string key = MetadataKey(unit);
  auto encoded = std::make_shared<const Bytes>(md.Encode(config_.auth_key));
  std::vector<Future<Status>> futures;
  futures.reserve(clouds_.size());
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    futures.push_back(RobustPut(i, key, encoded));
  }
  // Return at the write quorum; stragglers finish inside their stores. ACLs
  // for the acknowledged copies are applied (in parallel) before returning;
  // a straggler's ACLs ride behind its PUT as a continuation so the slow
  // cloud still converges to the granted state.
  QuorumResult<Status> acks =
      WhenQuorum<Status>(futures, config_.quorum(),
                         [](size_t, const Status& s) { return s.ok(); })
          .Get();
  std::shared_ptr<const DepSkyMetadata> md_shared;
  std::vector<Future<Status>> acl_futures;
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    if (!acks.results[i].has_value()) {
      if (!md_shared) {
        md_shared = std::make_shared<const DepSkyMetadata>(md);
      }
      ApplyAclsWhenWritten(futures[i], i, md_shared, key);
    } else if (acks.results[i]->ok()) {
      CollectAclFutures(md, i, key, &acl_futures);
    }
  }
  WhenAll<Status>(std::move(acl_futures)).Join();  // max-of-clouds
  if (!acks.quorum_reached) {
    return UnavailableError("metadata write quorum not reached for " + unit);
  }
  std::lock_guard<std::mutex> lock(pushed_mu_);
  pushed_metadata_.Put(unit, md);
  return OkStatus();
}

void DepSkyClient::CollectAclFutures(const DepSkyMetadata& md, unsigned cloud,
                                     const std::string& key,
                                     std::vector<Future<Status>>* out) {
  // Owner of the data unit always gets read+write on objects we create.
  if (cloud < md.owner_ids.size() && !md.owner_ids[cloud].empty() &&
      md.owner_ids[cloud] != clouds_[cloud].creds.canonical_id) {
    out->push_back(clouds_[cloud].store->SetAclAsync(
        clouds_[cloud].creds, key, md.owner_ids[cloud],
        ObjectPermissions::ReadWrite()));
  }
  for (const auto& grant : md.grants) {
    if (cloud >= grant.cloud_ids.size() || grant.cloud_ids[cloud].empty()) {
      continue;
    }
    if (grant.cloud_ids[cloud] == clouds_[cloud].creds.canonical_id) {
      continue;
    }
    ObjectPermissions perms;
    perms.read = grant.read;
    perms.write = grant.write;
    out->push_back(clouds_[cloud].store->SetAclAsync(
        clouds_[cloud].creds, key, grant.cloud_ids[cloud], perms));
  }
}

void DepSkyClient::ApplyAclsToObject(const DepSkyMetadata& md, unsigned cloud,
                                     const std::string& key) {
  std::vector<Future<Status>> futures;
  CollectAclFutures(md, cloud, key, &futures);
  WhenAll<Status>(std::move(futures)).Join();  // best effort, charge the wait
}

Result<uint64_t> DepSkyClient::WriteVersion(
    const std::string& unit, const std::string& content_hash,
    ConstByteSpan data, const std::vector<DepSkyGrant>* merge_grants) {
  // Step 0: learn the current version history (creates it on first write).
  DepSkyMetadata md;
  auto existing = ReadMetadataForUpdate(unit);
  if (existing.ok()) {
    md = std::move(*existing);
  } else if (existing.status().code() == ErrorCode::kNotFound) {
    md.n = config_.n();
    md.k = config_.k();
    md.mode = config_.mode;
    md.owner_ids.resize(clouds_.size());
    for (unsigned i = 0; i < clouds_.size(); ++i) {
      md.owner_ids[i] = clouds_[i].creds.canonical_id;
    }
  } else {
    return existing.status();
  }
  if (merge_grants != nullptr) {
    for (const auto& grant : *merge_grants) {
      auto it = std::find_if(md.grants.begin(), md.grants.end(),
                             [&](const DepSkyGrant& g) {
                               return g.cloud_ids == grant.cloud_ids;
                             });
      if (it != md.grants.end()) {
        *it = grant;
      } else if (grant.read || grant.write) {
        md.grants.push_back(grant);
      }
    }
  }

  DepSkyVersion version;
  version.version = md.NextVersionNumber();
  version.content_hash = content_hash;
  version.size = data.size();

  // Large secret-sharing writes are cut into stripe units: independent
  // per-unit pipelines instead of one file-sized arena and quorum round.
  // Everything else is stored as the paper's single data unit.
  const bool secret_sharing = config_.mode == DepSkyMode::kSecretSharing;
  const size_t unit_size = config_.stripe_unit();
  if (secret_sharing && unit_size > 0 && data.size() > unit_size) {
    version.stripe_unit_size = unit_size;
    version.stripe_units.resize((data.size() + unit_size - 1) / unit_size);
  }

  // Steps 1 and 3 (Figure 6): one key, nonce and secret-sharing split for the
  // whole file. Share i rides every set's shard i, and each set encrypts at
  // its byte offset in the file-wide keystream, so the ciphertext is the
  // same however the file is cut.
  Bytes key;
  std::vector<SecretShare> shares;
  if (secret_sharing) {
    key = RandomBytesLocked(ChaCha20::kKeySize);
    version.nonce = RandomBytesLocked(ChaCha20::kNonceSize);
    Result<std::vector<SecretShare>> split = [&]() {
      std::lock_guard<std::mutex> lock(rng_mu_);
      return SecretSharing::Split(key, config_.n(), config_.k(), rng_);
    }();
    RETURN_IF_ERROR(split.status());
    shares = std::move(*split);
  }

  // Steps 2 and 4: erasure-code and place every object set.
  const std::vector<ObjectSet> sets = ObjectSets(unit, version);
  RETURN_IF_ERROR(RunWindowed(
      config_.stripe_window(), &async_ops_, sets.size(), [&](size_t i) {
        return WriteObjectSet(md, sets[i], data, key, version.nonce, shares);
      }));

  // Step 5: publish the version in the metadata object.
  md.versions.push_back(std::move(version));
  RETURN_IF_ERROR(PushMetadata(unit, md));
  return md.versions.back().version;
}

Status DepSkyClient::WriteObjectSet(const DepSkyMetadata& md,
                                    const ObjectSet& set, ConstByteSpan data,
                                    const Bytes& key, const Bytes& nonce,
                                    const std::vector<SecretShare>& shares) {
  // The whole stage is zero-copy: the plaintext is encrypted straight into
  // the pooled arena's framed data region (the systematic shards alias that
  // frame), parity is derived in place, and every later consumer — shard
  // hashing and wire-object serialization — reads arena views. In
  // replication mode every "shard" is a view of the caller's plaintext.
  const ConstByteSpan plaintext = data.subspan(set.offset, set.length);
  std::optional<ShardArena> arena;
  if (config_.mode == DepSkyMode::kSecretSharing) {
    ErasureCodec codec(config_.n(), config_.k());
    arena = codec.PrepareArena(plaintext.size(), &arena_pool_);
    ChaCha20::CryptInto(key, nonce, static_cast<uint32_t>(set.offset / 64),
                        plaintext, arena->payload());
    codec.ComputeParity(&*arena);
  }
  if (set.unit_hash != nullptr) {
    *set.unit_hash = Sha256::Hash(plaintext);
  }

  auto encode_object = [&](unsigned shard_index) -> Bytes {
    // The shard bytes move from the arena (or the caller's plaintext) to the
    // wire buffer in this one serialization copy.
    if (!arena) {
      return DepSkyValueObject::EncodeParts(plaintext, 0, {});
    }
    return DepSkyValueObject::EncodeParts(arena->shard(shard_index),
                                          shares[shard_index].index,
                                          shares[shard_index].data);
  };

  // The metadata authenticates the complete stored object — shard AND key
  // share AND framing — not just the shard bytes. A faulty cloud must not be
  // able to slip a poisoned key share past the hash check by leaving the
  // shard untouched (a corrupted share silently wrecks key reconstruction,
  // which only surfaces as a content-hash mismatch after decrypt). The
  // object for shard i is deterministic — share i always rides with shard i,
  // fallback writes included — so the per-shard-index hash is well-defined.
  const unsigned shard_count = static_cast<unsigned>(clouds_.size());
  std::vector<Bytes> objects(shard_count);
  set.shard_hashes->resize(shard_count);
  for (unsigned i = 0; i < shard_count; ++i) {
    objects[i] = encode_object(i);
    (*set.shard_hashes)[i] = Sha256::Hash(objects[i]);
  }

  // Store shard_i + share_i at cloud i (preferred wave + fallback).
  auto placed =
      PlaceObjects(md, set.value_key, std::move(objects), encode_object);
  if (arena) {
    arena_pool_.Release(std::move(*arena));
  }
  RETURN_IF_ERROR(placed.status());
  *set.cloud_shard = *std::move(placed);
  return OkStatus();
}

Result<std::vector<int32_t>> DepSkyClient::PlaceObjects(
    const DepSkyMetadata& md, const std::string& value_key,
    std::vector<Bytes> objects,
    const std::function<Bytes(unsigned)>& encode_object) {
  // Preferred quorums: use the first n-f *healthy* clouds — the cost-ordered
  // list with breaker-demoted clouds moved to the back, so a flapping
  // provider drops out of the preferred set and only re-enters once its
  // breaker half-opens.
  const unsigned quorum = config_.quorum();
  std::vector<unsigned> cost_order(clouds_.size());
  std::iota(cost_order.begin(), cost_order.end(), 0u);
  std::vector<unsigned> ordered = health_.Reorder(cost_order, env_->Now());
  std::vector<unsigned> preferred;
  std::vector<unsigned> spares;
  for (unsigned cloud : ordered) {
    if (config_.preferred_quorums && preferred.size() >= quorum) {
      spares.push_back(cloud);
    } else {
      preferred.push_back(cloud);
    }
  }

  std::vector<int32_t> cloud_shard(clouds_.size(), -1);

  // First wave: shard i -> preferred cloud i, fanned out through the async
  // ObjectStore API and awaited at the write quorum. (With preferred quorums
  // the wave is exactly quorum-sized, so this waits for all of it; without
  // them, the n-f fastest clouds complete the write.)
  std::vector<Future<Status>> futures;
  futures.reserve(preferred.size());
  for (unsigned cloud : preferred) {
    futures.push_back(RobustPut(
        cloud, value_key,
        std::make_shared<const Bytes>(std::move(objects[cloud]))));
  }
  QuorumResult<Status> acks =
      WhenQuorum<Status>(futures, quorum,
                         [](size_t, const Status& s) { return s.ok(); })
          .Get();
  unsigned successes = 0;
  std::vector<unsigned> failed_shards;
  std::shared_ptr<const DepSkyMetadata> md_shared;
  std::vector<Future<Status>> acl_futures;
  for (size_t i = 0; i < preferred.size(); ++i) {
    unsigned cloud = preferred[i];
    if (!acks.results[i].has_value()) {
      // Still in flight past the quorum: not recorded as a holder, but its
      // object (if the PUT lands) still gets the grants.
      if (!md_shared) {
        md_shared = std::make_shared<const DepSkyMetadata>(md);
      }
      ApplyAclsWhenWritten(futures[i], cloud, md_shared, value_key);
      continue;
    }
    if (acks.results[i]->ok()) {
      cloud_shard[cloud] = static_cast<int32_t>(cloud);
      CollectAclFutures(md, cloud, value_key, &acl_futures);
      ++successes;
    } else {
      failed_shards.push_back(cloud);
    }
  }
  WhenAll<Status>(std::move(acl_futures)).Join();  // max-of-clouds
  // Fallback wave: route failed shards to spare clouds.
  for (unsigned spare : spares) {
    if (successes >= quorum || failed_shards.empty()) {
      break;
    }
    unsigned shard = failed_shards.back();
    Status s = RobustPut(spare, value_key,
                         std::make_shared<const Bytes>(encode_object(shard)))
                   .Get();
    if (s.ok()) {
      ApplyAclsToObject(md, spare, value_key);
      cloud_shard[spare] = static_cast<int32_t>(shard);
      failed_shards.pop_back();
      ++successes;
    }
  }
  if (successes < quorum) {
    return UnavailableError("write quorum not reached for " + value_key);
  }
  return cloud_shard;
}

// Shared state of one in-flight shard fetch. Collectors (completion
// callbacks of the per-holder robust GETs) and the hedge timer all
// coordinate through `mu`; `done_promise` settles exactly once.
//
// The fetch is charged on its modelled critical path, never elapsed time.
// Each launch has a modelled offset: 0 for the first wave, the accumulated
// hedge delays for a hedge, and the failed reply's path charge for a
// failure-triggered relaunch. A reply's path charge is its offset plus its
// own charge; the fetch costs the max over the k replies it kept (over
// every reply when it fails).
struct DepSkyClient::ShardFetchState {
  std::string unit;
  std::string value_key;
  unsigned k = 0;
  std::vector<unsigned> holders;     // health-ordered launch sequence
  std::vector<int32_t> cloud_shard;  // copy: outlives the caller's metadata
  std::vector<Bytes> shard_hashes;

  std::mutex mu;
  size_t next = 0;           // next holders[] entry to launch
  unsigned outstanding = 0;  // launched, not yet completed
  unsigned valid = 0;
  bool done = false;
  VirtualDuration hedge_offset = 0;  // offset of the latest hedge launched
  VirtualDuration kept_path = 0;     // max path charge over kept replies
  VirtualDuration seen_path = 0;     // max path charge over all replies
  std::vector<std::optional<Bytes>> shards;  // by shard index
  std::vector<SecretShare> shares;
  Promise<Status> done_promise;
};

void DepSkyClient::LaunchShardGet(
    const std::shared_ptr<ShardFetchState>& state, VirtualDuration offset) {
  unsigned cloud = 0;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->done || state->next >= state->holders.size()) {
      return;
    }
    cloud = state->holders[state->next++];
    state->outstanding++;
  }
  RobustGet(cloud, state->value_key)
      .OnReady([this, state, cloud, offset](const Result<Bytes>& raw,
                                            VirtualDuration charge) {
        const VirtualDuration path = offset + charge;
        bool fetch_more = false;
        std::optional<Status> completion;
        VirtualDuration completion_charge = 0;
        {
          std::lock_guard<std::mutex> lock(state->mu);
          state->outstanding--;
          if (state->done) {
            return;  // straggler past the trigger
          }
          state->seen_path = std::max(state->seen_path, path);
          bool valid_shard = false;
          if (raw.ok()) {
            auto object = DepSkyValueObject::Decode(*raw);
            if (object.ok() && cloud < state->cloud_shard.size() &&
                state->cloud_shard[cloud] >= 0) {
              unsigned shard_index =
                  static_cast<unsigned>(state->cloud_shard[cloud]);
              if (shard_index < state->shard_hashes.size() &&
                  Sha256::Hash(*raw) == state->shard_hashes[shard_index]) {
                // Hash-valid over the full stored object: corrupted shards,
                // poisoned key shares and byzantine swaps never get here.
                if (!state->shards[shard_index].has_value()) {
                  state->shards[shard_index] = std::move(object->shard);
                  if (object->share_index != 0) {
                    state->shares.push_back(SecretShare{
                        object->share_index, object->share_data});
                  }
                  state->valid++;
                  state->kept_path = std::max(state->kept_path, path);
                }
                valid_shard = true;
              }
            }
          }
          if (state->valid >= state->k) {
            state->done = true;
            completion = OkStatus();
            completion_charge = state->kept_path;
          } else if (state->outstanding == 0 &&
                     state->next >= state->holders.size()) {
            state->done = true;
            completion = UnavailableError(
                "could not fetch enough valid shards for " + state->unit);
            completion_charge = state->seen_path;
          } else if (!valid_shard || state->outstanding == 0) {
            fetch_more = true;  // failure-triggered: try the next holder now
          }
        }
        if (completion.has_value()) {
          state->done_promise.Set(*completion, completion_charge);
        } else if (fetch_more) {
          LaunchShardGet(state, path);
        }
      });
}

void DepSkyClient::ArmHedgeTimer(
    const std::shared_ptr<ShardFetchState>& state) {
  if (!config_.hedged_reads) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->done || state->next >= state->holders.size()) {
      return;
    }
  }
  // Weak capture: the timer must not keep the fetch alive past completion,
  // and a fire after completion degrades to a no-op.
  std::weak_ptr<ShardFetchState> weak = state;
  const VirtualDuration delay = health_.HedgeDelay();
  timers_.Schedule(env_->Now() + delay, [this, weak, delay] {
    auto alive = weak.lock();
    if (!alive) {
      return;
    }
    VirtualDuration offset = 0;
    {
      std::lock_guard<std::mutex> lock(alive->mu);
      if (alive->done || alive->next >= alive->holders.size()) {
        return;
      }
      alive->hedge_offset += delay;
      offset = alive->hedge_offset;
    }
    hedged_reads_.fetch_add(1);
    LaunchShardGet(alive, offset);
    ArmHedgeTimer(alive);  // chain: hedge again if still short of k
  });
}

Result<DepSkyClient::FetchedShards> DepSkyClient::FetchShards(
    const std::string& unit, const std::string& value_key, unsigned k,
    const std::vector<int32_t>& cloud_shard,
    const std::vector<Bytes>& shard_hashes) {
  // Clouds that hold a shard of this object, in preference order.
  std::vector<unsigned> holders;
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    if (i < cloud_shard.size() && cloud_shard[i] >= 0) {
      holders.push_back(i);
    }
  }
  if (holders.size() < k) {
    return UnavailableError("not enough shard holders recorded");
  }

  auto state = std::make_shared<ShardFetchState>();
  state->unit = unit;
  state->value_key = value_key;
  state->k = k;
  // Breaker-demoted holders sort to the back: a broken cloud is only asked
  // once the healthy ones cannot supply k valid shards.
  state->holders = health_.Reorder(holders, env_->Now());
  // Copies, not references: a straggler's collector may run after this
  // frame (and the caller's metadata) are gone.
  state->cloud_shard = cloud_shard;
  state->shard_hashes = shard_hashes;
  state->shards.resize(clouds_.size());

  // First wave: k health-ordered holders in parallel. Each unhelpful reply
  // (unreachable, timed out, corrupted, byzantine) triggers the next
  // unlaunched holder immediately; the hedge timer additionally launches
  // the (f+2)-th holder after an adaptive delay, so one quietly slow cloud
  // does not put its full straggler latency on the read path.
  for (unsigned i = 0; i < k; ++i) {
    LaunchShardGet(state, /*offset=*/0);
  }
  ArmHedgeTimer(state);

  Status fetched = state->done_promise.future().Get();
  RETURN_IF_ERROR(fetched);

  FetchedShards out;
  {
    // Stragglers may still briefly hold the lock; they observe done and
    // leave the collected state alone.
    std::lock_guard<std::mutex> lock(state->mu);
    out.shards = std::move(state->shards);
    out.shares = std::move(state->shares);
  }
  return out;
}

Status DepSkyClient::FetchObjectSet(const std::string& unit,
                                    const DepSkyMetadata& md,
                                    const Bytes& nonce, const ObjectSet& set,
                                    ByteSpan out) {
  const bool secret_sharing = md.mode == DepSkyMode::kSecretSharing;
  ASSIGN_OR_RETURN(FetchedShards fetched,
                   FetchShards(unit, set.value_key, secret_sharing ? md.k : 1,
                               *set.cloud_shard, *set.shard_hashes));
  if (!secret_sharing) {
    // Any hash-valid replica is the plaintext itself.
    auto replica = std::find_if(
        fetched.shards.begin(), fetched.shards.end(),
        [](const std::optional<Bytes>& shard) { return shard.has_value(); });
    if (replica == fetched.shards.end() || (*replica)->size() != out.size()) {
      return CorruptionError("replica size mismatch for " + set.value_key);
    }
    std::copy((*replica)->begin(), (*replica)->end(), out.begin());
    return OkStatus();
  }

  // Decode into a pooled arena frame, then decrypt straight into the
  // caller's slice — the decrypt pass is also the move out of the arena.
  ErasureCodec codec(md.n, md.k);
  const size_t shard_size = codec.ShardSize(out.size());
  std::vector<std::optional<ConstByteSpan>> views(fetched.shards.size());
  for (size_t i = 0; i < fetched.shards.size(); ++i) {
    if (fetched.shards[i].has_value()) {
      views[i] = ConstByteSpan(*fetched.shards[i]);
    }
  }
  ShardArena arena = arena_pool_.Acquire(md.n, md.k, shard_size, out.size());
  ReedSolomon rs(md.n, md.k);
  Status decoded = rs.DecodeInto(views, shard_size,
                                 arena.mutable_data_region());
  if (!decoded.ok()) {
    arena_pool_.Release(std::move(arena));
    return decoded;
  }
  // The frame header must restate the set's length (hash-valid shards
  // guarantee it; a mismatch means the manifest and objects disagree).
  ByteReader header(arena.data_region());
  uint64_t framed_size = 0;
  if (!header.ReadU64(&framed_size) || framed_size != out.size()) {
    arena_pool_.Release(std::move(arena));
    return CorruptionError("object frame mismatch for " + set.value_key);
  }

  auto key = SecretSharing::Combine(fetched.shares, md.k);
  if (!key.ok()) {
    arena_pool_.Release(std::move(arena));
    return key.status();
  }
  ChaCha20::CryptInto(*key, nonce, static_cast<uint32_t>(set.offset / 64),
                      ConstByteSpan(arena.payload()), out);
  arena_pool_.Release(std::move(arena));
  return OkStatus();
}

Result<Bytes> DepSkyClient::FetchVersion(const std::string& unit,
                                         const DepSkyMetadata& md,
                                         DepSkyVersion& version) {
  // Every set decodes into its disjoint slice of one buffer.
  const std::vector<ObjectSet> sets = ObjectSets(unit, version);
  Bytes plaintext(version.size);
  RETURN_IF_ERROR(RunWindowed(
      config_.stripe_window(), &async_ops_, sets.size(), [&](size_t i) {
        return FetchObjectSet(
            unit, md, version.nonce, sets[i],
            ByteSpan(plaintext.data() + sets[i].offset, sets[i].length));
      }));

  // Final integrity check: the consistency-anchor hash must match. (Per-unit
  // hashes are for range reads, which never see the whole file.)
  if (HexEncode(Sha1::Hash(plaintext)) != version.content_hash) {
    return CorruptionError("content hash mismatch for " + unit);
  }
  return plaintext;
}

Result<Bytes> DepSkyClient::ReadAt(const std::string& unit,
                                   const std::string& content_hash,
                                   uint64_t offset, size_t length) {
  ASSIGN_OR_RETURN(DepSkyMetadata md, ReadMetadata(unit));
  DepSkyVersion* version = md.FindByHash(content_hash);
  if (version == nullptr) {
    return NotFoundError("version " + content_hash + " not visible yet");
  }
  if (offset >= version->size || length == 0) {
    return Bytes{};
  }
  length = std::min<uint64_t>(length, version->size - offset);

  // Fetch only the sets overlapping [offset, offset+length). Each is decoded,
  // decrypted and checked in full, then the overlap is copied out.
  std::vector<ObjectSet> sets;
  for (ObjectSet& set : ObjectSets(unit, *version)) {
    if (set.offset < offset + length && offset < set.offset + set.length) {
      sets.push_back(std::move(set));
    }
  }
  Bytes out(length);
  RETURN_IF_ERROR(RunWindowed(
      config_.stripe_window(), &async_ops_, sets.size(),
      [&](size_t i) -> Status {
        const ObjectSet& set = sets[i];
        Bytes buffer(set.length);
        RETURN_IF_ERROR(
            FetchObjectSet(unit, md, version->nonce, set, ByteSpan(buffer)));
        // A stripe unit is checked against its recorded plaintext hash; the
        // one set of a monolithic version is the whole file, so it is
        // checked against the consistency anchor.
        const bool intact =
            set.unit_hash != nullptr
                ? Sha256::Hash(buffer) == *set.unit_hash
                : HexEncode(Sha1::Hash(buffer)) == version->content_hash;
        if (!intact) {
          return CorruptionError("content hash mismatch for " + set.value_key);
        }
        // Copy the overlap into the caller's range (disjoint per set).
        const uint64_t begin = std::max(offset, set.offset);
        const uint64_t end =
            std::min(offset + length, set.offset + set.length);
        std::copy(buffer.begin() + (begin - set.offset),
                  buffer.begin() + (end - set.offset),
                  out.begin() + (begin - offset));
        return OkStatus();
      }));
  return out;
}

Result<Bytes> DepSkyClient::ReadByHash(const std::string& unit,
                                       const std::string& content_hash) {
  ASSIGN_OR_RETURN(DepSkyMetadata md, ReadMetadata(unit));
  DepSkyVersion* version = md.FindByHash(content_hash);
  if (version == nullptr) {
    return NotFoundError("version " + content_hash + " not visible yet");
  }
  return FetchVersion(unit, md, *version);
}

Result<Bytes> DepSkyClient::ReadLatest(const std::string& unit) {
  ASSIGN_OR_RETURN(DepSkyMetadata md, ReadMetadata(unit));
  if (md.versions.empty()) {
    return NotFoundError("no versions of " + unit);
  }
  return FetchVersion(unit, md, md.versions.back());
}

void DepSkyClient::ScrubObjectSet(const DepSkyMetadata& md,
                                  const ObjectSet& set,
                                  DepSkyScrubReport* report,
                                  bool* metadata_dirty) {
  const std::string& value_key = set.value_key;
  const std::vector<Bytes>& shard_hashes = *set.shard_hashes;
  std::vector<int32_t>* cloud_shard = set.cloud_shard;
  // Probe every recorded holder in parallel through the robust GET path.
  std::vector<unsigned> holders;
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    if (i < cloud_shard->size() && (*cloud_shard)[i] >= 0) {
      holders.push_back(i);
    }
  }
  std::vector<Future<Result<Bytes>>> probes;
  probes.reserve(holders.size());
  for (unsigned cloud : holders) {
    probes.push_back(RobustGet(cloud, value_key));
  }

  // Hash-check each reply exactly like the read path: the recorded hash
  // covers the complete stored object, so a poisoned key share or framing
  // swap reads as corrupt even when the shard bytes survive.
  std::vector<std::optional<DepSkyValueObject>> objects(clouds_.size());
  std::vector<unsigned> bad_holders;
  size_t shard_size = 0;
  for (size_t h = 0; h < holders.size(); ++h) {
    const unsigned cloud = holders[h];
    const unsigned shard = static_cast<unsigned>((*cloud_shard)[cloud]);
    report->objects_checked++;
    Result<Bytes> raw = probes[h].Get();
    bool valid = false;
    if (raw.ok() && shard < shard_hashes.size() &&
        Sha256::Hash(*raw) == shard_hashes[shard]) {
      auto object = DepSkyValueObject::Decode(*raw);
      if (object.ok()) {
        shard_size = object->shard.size();
        objects[cloud] = std::move(*object);
        valid = true;
      }
    }
    if (!valid) {
      report->objects_missing++;
      bad_holders.push_back(cloud);
    }
  }
  if (bad_holders.empty()) {
    return;
  }

  // Rebuild from the survivors. Any k hash-valid shards reproduce the whole
  // arena (data region + re-derived parity), and k key shares re-evaluate
  // the split polynomial at any lost share's x-coordinate — so the rebuilt
  // stored object is byte-identical to the original and must re-hash to the
  // recorded value before anything is uploaded.
  std::vector<std::optional<ConstByteSpan>> views(md.n);
  std::vector<SecretShare> shares;
  unsigned valid_count = 0;
  for (unsigned cloud = 0; cloud < clouds_.size(); ++cloud) {
    if (!objects[cloud].has_value()) {
      continue;
    }
    const unsigned shard = static_cast<unsigned>((*cloud_shard)[cloud]);
    if (shard < views.size()) {
      views[shard] = ConstByteSpan(objects[cloud]->shard);
    }
    if (objects[cloud]->share_index != 0) {
      shares.push_back(SecretShare{objects[cloud]->share_index,
                                   objects[cloud]->share_data});
    }
    ++valid_count;
  }
  if (valid_count < md.k || md.mode != DepSkyMode::kSecretSharing) {
    report->repair_failures += bad_holders.size();
    report->fully_redundant = false;
    return;
  }

  ShardArena arena = arena_pool_.Acquire(md.n, md.k, shard_size, 0);
  ReedSolomon rs(md.n, md.k);
  Status decoded =
      rs.DecodeInto(views, shard_size, arena.mutable_data_region());
  if (decoded.ok()) {
    rs.EncodeParity(arena.data_region(), shard_size, arena.parity_region());
  }

  for (unsigned cloud : bad_holders) {
    const unsigned shard = static_cast<unsigned>((*cloud_shard)[cloud]);
    if (!decoded.ok() || shard >= md.n || shard >= shard_hashes.size()) {
      report->repair_failures++;
      report->fully_redundant = false;
      continue;
    }
    // Share for shard s has x-coordinate s+1 (Split's convention).
    auto share =
        SecretSharing::RecoverShare(shares, md.k, static_cast<uint8_t>(shard + 1));
    if (!share.ok()) {
      report->repair_failures++;
      report->fully_redundant = false;
      continue;
    }
    auto object_bytes =
        std::make_shared<const Bytes>(DepSkyValueObject::EncodeParts(
            arena.shard(shard), share->index, share->data));
    if (Sha256::Hash(*object_bytes) != shard_hashes[shard]) {
      report->repair_failures++;
      report->fully_redundant = false;
      continue;
    }
    // In-place first: same holder, same key, no metadata change needed.
    Status put = RobustPut(cloud, value_key, object_bytes).Get();
    if (put.ok()) {
      ApplyAclsToObject(md, cloud, value_key);
      report->objects_repaired++;
      continue;
    }
    // Holder still down: relocate the shard to a cloud that holds nothing of
    // this object, and flip the map so the caller pushes it once.
    bool relocated = false;
    for (unsigned target = 0; target < clouds_.size(); ++target) {
      if (target < cloud_shard->size() && (*cloud_shard)[target] >= 0) {
        continue;
      }
      Status moved = RobustPut(target, value_key, object_bytes).Get();
      if (moved.ok()) {
        ApplyAclsToObject(md, target, value_key);
        (*cloud_shard)[cloud] = -1;
        (*cloud_shard)[target] = static_cast<int32_t>(shard);
        *metadata_dirty = true;
        report->objects_relocated++;
        relocated = true;
        break;
      }
    }
    if (!relocated) {
      report->repair_failures++;
      report->fully_redundant = false;
    }
  }
  arena_pool_.Release(std::move(arena));
}

Result<DepSkyScrubReport> DepSkyClient::ScrubUnit(const std::string& unit) {
  ASSIGN_OR_RETURN(DepSkyMetadata md, ReadMetadataForUpdate(unit));
  DepSkyScrubReport report;
  bool metadata_dirty = false;
  for (auto& version : md.versions) {
    report.versions_checked++;
    for (const ObjectSet& set : ObjectSets(unit, version)) {
      ScrubObjectSet(md, set, &report, &metadata_dirty);
    }
  }
  if (metadata_dirty) {
    RETURN_IF_ERROR(PushMetadata(unit, md));
  }
  return report;
}

Status DepSkyClient::DeleteVersion(const std::string& unit, uint64_t version) {
  ASSIGN_OR_RETURN(DepSkyMetadata md, ReadMetadataForUpdate(unit));
  auto it = std::find_if(md.versions.begin(), md.versions.end(),
                         [&](const DepSkyVersion& v) {
                           return v.version == version;
                         });
  if (it == md.versions.end()) {
    return NotFoundError("version not in metadata");
  }
  // Collect the value keys before erasing the version.
  std::vector<std::string> value_keys;
  for (const ObjectSet& set : ObjectSets(unit, *it)) {
    value_keys.push_back(set.value_key);
  }
  md.versions.erase(it);
  RETURN_IF_ERROR(PushMetadata(unit, md));
  DeleteObjects(clouds_, value_keys);
  return OkStatus();
}

Status DepSkyClient::DeleteUnit(const std::string& unit) {
  auto md = ReadMetadata(unit);
  if (md.ok()) {
    // Value objects of every version first, then the metadata object.
    std::vector<std::string> value_keys;
    for (auto& version : md->versions) {
      for (const ObjectSet& set : ObjectSets(unit, version)) {
        value_keys.push_back(set.value_key);
      }
    }
    DeleteObjects(clouds_, value_keys);
  }
  DeleteObjects(clouds_, {MetadataKey(unit)});
  std::lock_guard<std::mutex> lock(pushed_mu_);
  pushed_metadata_.Erase(unit);
  return OkStatus();
}

Status DepSkyClient::SetGrant(const std::string& unit,
                              const DepSkyGrant& grant) {
  ASSIGN_OR_RETURN(DepSkyMetadata md, ReadMetadataForUpdate(unit));
  // Replace an existing grant for the same principal ids, else append.
  auto it = std::find_if(md.grants.begin(), md.grants.end(),
                         [&](const DepSkyGrant& g) {
                           return g.cloud_ids == grant.cloud_ids;
                         });
  if (it != md.grants.end()) {
    if (!grant.read && !grant.write) {
      md.grants.erase(it);
    } else {
      *it = grant;
    }
  } else if (grant.read || grant.write) {
    md.grants.push_back(grant);
  }

  // Apply to the metadata object and to every existing value object.
  RETURN_IF_ERROR(PushMetadata(unit, md));
  ObjectPermissions perms;
  perms.read = grant.read;
  perms.write = grant.write;
  for (auto& version : md.versions) {
    for (const ObjectSet& set : ObjectSets(unit, version)) {
      for (unsigned i = 0; i < clouds_.size(); ++i) {
        if (i < grant.cloud_ids.size() && !grant.cloud_ids[i].empty()) {
          (void)clouds_[i].store->SetAcl(clouds_[i].creds, set.value_key,
                                         grant.cloud_ids[i], perms);
        }
      }
    }
  }
  return OkStatus();
}

}  // namespace scfs
