// LockService (paper §2.5.1): write-write conflict avoidance built on the
// coordination service's ephemeral lock recipe. Locks carry leases so a
// crashed client's files unlock automatically; an agent that keeps a file
// open re-extends the lease on demand. Opening for reading never locks —
// read-write conflicts are handled by the consistency anchor and whole-file
// upload/download, which guarantee the newest closed version is read.
//
// Write-credit delegation (DESIGN.md "Lease-delegated caching"): with a
// LeaseManager wired in and linger enabled, the last local release keeps the
// coordination lock "lingering" instead of unlocking — the next Acquire of
// the same path reclaims it with ZERO coordination messages, and renewal
// rounds are issued only when less than half the lease remains. A contender
// in the same deployment that finds the lock busy asks the manager to have
// the lingering holder release for real; a crashed holder's linger simply
// expires with the server-side lease (the 120 s backstop).

#ifndef SCFS_SCFS_LOCK_SERVICE_H_
#define SCFS_SCFS_LOCK_SERVICE_H_

#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "src/common/future.h"
#include "src/coord/coordination_service.h"
#include "src/coord/lease.h"
#include "src/scfs/metadata.h"
#include "src/sim/environment.h"

namespace scfs {

struct LockServiceOptions {
  VirtualDuration lease = 120 * kSecond;
  // Non-null manager + linger=true enable write-credit delegation.
  LeaseManager* leases = nullptr;
  bool linger = false;
  // Fired (outside the service's mutex) whenever this agent stops holding a
  // path's coordination lock for real — an unlock round, a lingering lock
  // handed to a contender, or a failed reacquisition. Anything whose
  // validity is backed by holding the lock (the metadata service's pinned
  // own-publish entries) must be torn down here.
  std::function<void(const std::string& path)> on_release;
};

class LockService {
 public:
  // `coord` may be null (non-sharing mode): every lock trivially succeeds —
  // there is a single client per namespace. `env` may be null only then.
  LockService(Environment* env, CoordinationService* coord, std::string user,
              LockServiceOptions options = {})
      : env_(env), coord_(coord), user_(std::move(user)), options_(options) {}

  // BUSY if another client holds the file. Re-entrant within this agent:
  // acquisitions are refcounted (the non-blocking mode may re-open a file
  // whose previous close is still uploading; the lock must survive until the
  // last release).
  Status Acquire(const std::string& path);
  Status Release(const std::string& path);
  // Extends the lease of a lock held by this service.
  Status Renew(const std::string& path);
  // Asynchronous lease extension: fired at the start of a background upload
  // so the coordination round overlaps the cloud transfer (a long upload
  // must not lose its file lock mid-chain). Renewing commutes with
  // everything except releasing the same path — join the future before
  // Release. A renewal that loses that race fails benignly (kNotFound).
  // With more than half the lease remaining this is a ready no-op round
  // (renew-on-demand).
  Future<Status> RenewAsync(const std::string& path);
  // Conservative client-side bound on how long this agent's hold on the
  // path's lock (including a lingering one) is guaranteed by the server
  // lease. 0 when the lock is not held. The write-credit metadata pin
  // (MetadataService::PinOwned) uses this as its validity horizon.
  VirtualTime HeldUntil(const std::string& path);

  // Experiment counters: acquisitions served by reclaiming a lingering or
  // held lock without any coordination round.
  uint64_t reclaim_hits() const {
    std::lock_guard<std::mutex> guard(mu_);
    return reclaim_hits_;
  }

 private:
  struct Held {
    uint64_t token = 0;
    int refcount = 0;
    // Conservative client-side view of the server lease (set from the same
    // virtual clock the state machine expires with).
    VirtualTime expires_at = 0;
    bool lingering = false;
  };

  bool LingerEnabled() const {
    return options_.leases != nullptr && options_.linger;
  }
  // The broker-side release of a lingering lock; returns true if the lock
  // was released (or already gone), false if it was reclaimed meanwhile.
  bool TryReleaseLingering(const std::string& path);

  Environment* env_;
  CoordinationService* coord_;
  std::string user_;
  LockServiceOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Held> held_;
  uint64_t reclaim_hits_ = 0;
};

}  // namespace scfs

#endif  // SCFS_SCFS_LOCK_SERVICE_H_
