// The traced run's view of SCFS's layers, taken from outside the program.
//
// Spans are recorded only at boundaries the benchmark itself can see: the
// fsapi op (opened by the workload code) and three decorators over public
// interfaces — CoordinationService (the coordination layer), BlobBackend
// (DepSky behind the agent's storage service) and ObjectStore (each
// simulated cloud). An agent is wired by hand from public constructors the
// way Deployment::Mount wires it, with a decorator at each of those seams.
//
// A span's parent is the innermost span open on the issuing thread when it
// began. Work the agent hands to its background executor (non-blocking
// uploads, prefetches) starts on another thread with no open span, so it is
// recorded as a root with op id 0 ("background").

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cloud/simulated_cloud.h"
#include "src/coord/coordination_service.h"
#include "src/scfs/blob_backend.h"
#include "src/scfs/deployment.h"
#include "src/scfs/file_system.h"

namespace perfbench {

enum Layer : int { kFsapi = 0, kCoord, kDepsky, kCloud, kLayerCount };
const char* LayerName(int layer);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root
  uint64_t op = 0;      // id of the enclosing fsapi op span; 0: background
  int layer = kFsapi;
  const char* name = "";
  double start = 0.0;  // real seconds
  double end = 0.0;
  int64_t charged_us = 0;  // modelled charge of the spanned call
};

// In-memory span store. Spans beyond `capacity` are counted but dropped so a
// long run cannot exhaust memory; the count is reported with the dump.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity = 2'000'000) : capacity_(capacity) {}

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  std::vector<Span> Snapshot() const;
  uint64_t dropped() const { return dropped_.load(); }
  // Writes one line per span: id,parent,op,layer,name,start,end,charged_us.
  bool WriteCsv(const std::string& path) const;

 private:
  size_t capacity_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// A synchronous span on the calling thread: pushes itself as the thread's
// current span for its lifetime. With a null log it does nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, int layer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
  int64_t charged_at_start_ = 0;
  uint64_t saved_current_ = 0;
  uint64_t saved_op_ = 0;
};

// Parent and op ids for an asynchronous span issued from this thread.
uint64_t CurrentSpanId();
uint64_t CurrentOpId();

// Per-layer self time: each span's duration minus the part of its interval
// covered by its children, summed per layer (real seconds).
std::array<double, kLayerCount> SelfSeconds(const std::vector<Span>& spans);

// -- Decorators ---------------------------------------------------------------

struct CallTally {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<int64_t> charged_us{0};  // modelled charge, summed
  std::atomic<int64_t> real_ns{0};     // host wall time, summed
  // Charge of calls issued while an fsapi op span was open on the caller.
  std::atomic<int64_t> charged_in_ops_us{0};

  void Add(bool ok, uint64_t nbytes, int64_t charged, double real_s,
           bool in_op);
};

// Counts at every decorated boundary of one deployment. Shared (not owned
// by a decorator) because completions of asynchronous calls may land after
// the decorator that issued them is gone.
struct LayerTallies {
  CallTally coord_reads;    // read-only commands (fast-path candidates)
  CallTally coord_ordered;  // everything else
  CallTally blob_writes;    // bytes = user bytes stored
  CallTally blob_reads;     // bytes = user bytes returned
  CallTally blob_other;
  CallTally cloud_puts;  // bytes = payload bytes sent to a cloud
  CallTally cloud_gets;  // bytes = payload bytes received from a cloud
  CallTally cloud_other;
};
using TalliesPtr = std::shared_ptr<LayerTallies>;
using SpanLogPtr = std::shared_ptr<SpanLog>;

class TracedCoordination : public scfs::CoordinationService {
 public:
  TracedCoordination(scfs::CoordinationService* inner, SpanLogPtr log,
                     TalliesPtr tallies)
      : inner_(inner), log_(std::move(log)), tallies_(std::move(tallies)) {}

  scfs::Result<scfs::CoordReply> Submit(
      const scfs::CoordCommand& command) override;
  scfs::Future<scfs::Result<scfs::CoordReply>> SubmitAsync(
      const scfs::CoordCommand& command) override;
  scfs::Bytes StateDigest() override { return inner_->StateDigest(); }
  unsigned partition_count() const override {
    return inner_->partition_count();
  }
  unsigned PartitionOf(const std::string& key) const override {
    return inner_->PartitionOf(key);
  }

 private:
  scfs::CoordinationService* inner_;
  SpanLogPtr log_;
  TalliesPtr tallies_;
};

class TracedBlobBackend : public scfs::BlobBackend {
 public:
  TracedBlobBackend(std::unique_ptr<scfs::BlobBackend> inner, SpanLogPtr log,
                    TalliesPtr tallies)
      : inner_(std::move(inner)),
        log_(std::move(log)),
        tallies_(std::move(tallies)) {}
  ~TracedBlobBackend() override { async_ops_.AwaitIdle(); }

  scfs::Status WriteVersion(
      const std::string& id, const std::string& content_hash,
      scfs::ConstByteSpan data,
      const std::vector<scfs::BackendGrant>& grants) override;
  scfs::Result<scfs::Bytes> ReadByHash(const std::string& id,
                                       const std::string& content_hash) override;
  scfs::Result<scfs::Bytes> ReadLatest(const std::string& id) override;
  scfs::Result<scfs::Bytes> ReadAt(const std::string& id,
                                   const std::string& content_hash,
                                   uint64_t offset, size_t length) override;
  scfs::Result<std::vector<scfs::BlobVersionInfo>> ListVersions(
      const std::string& id) override;
  scfs::Status DeleteVersionByHash(const std::string& id,
                                   const std::string& content_hash) override;
  scfs::Status DeleteUnit(const std::string& id) override;
  scfs::Status SetGrant(const std::string& id,
                        const scfs::BackendGrant& grant) override;
  int durability_level() const override { return inner_->durability_level(); }
  unsigned cloud_count() const override { return inner_->cloud_count(); }

 private:
  std::unique_ptr<scfs::BlobBackend> inner_;
  SpanLogPtr log_;
  TalliesPtr tallies_;
};

class TracedObjectStore : public scfs::ObjectStore {
 public:
  TracedObjectStore(scfs::ObjectStore* inner, SpanLogPtr log,
                    TalliesPtr tallies)
      : inner_(inner), log_(std::move(log)), tallies_(std::move(tallies)) {}

  scfs::Status Put(const scfs::CloudCredentials& creds, const std::string& key,
                   std::shared_ptr<const scfs::Bytes> data) override;
  scfs::Result<scfs::Bytes> Get(const scfs::CloudCredentials& creds,
                                const std::string& key) override;
  scfs::Status Delete(const scfs::CloudCredentials& creds,
                      const std::string& key) override;
  scfs::Result<std::vector<scfs::ObjectInfo>> List(
      const scfs::CloudCredentials& creds, const std::string& prefix) override;
  scfs::Status SetAcl(const scfs::CloudCredentials& creds,
                      const std::string& key, const scfs::CanonicalId& grantee,
                      scfs::ObjectPermissions permissions) override;
  scfs::Result<scfs::ObjectAcl> GetAcl(const scfs::CloudCredentials& creds,
                                       const std::string& key) override;
  const std::string& provider_name() const override {
    return inner_->provider_name();
  }

  scfs::Future<scfs::Status> PutAsync(
      const scfs::CloudCredentials& creds, const std::string& key,
      std::shared_ptr<const scfs::Bytes> data) override;
  scfs::Future<scfs::Result<scfs::Bytes>> GetAsync(
      const scfs::CloudCredentials& creds, const std::string& key) override;
  scfs::Future<scfs::Status> DeleteAsync(const scfs::CloudCredentials& creds,
                                         const std::string& key) override;
  scfs::Future<scfs::Result<std::vector<scfs::ObjectInfo>>> ListAsync(
      const scfs::CloudCredentials& creds, const std::string& prefix) override;
  scfs::Future<scfs::Status> SetAclAsync(
      const scfs::CloudCredentials& creds, const std::string& key,
      const scfs::CanonicalId& grantee,
      scfs::ObjectPermissions permissions) override;

 private:
  scfs::ObjectStore* inner_;
  SpanLogPtr log_;
  TalliesPtr tallies_;
};

// One SCFS agent mounted through the decorators. Members are declared in
// dependency order, so the agent is unmounted and destroyed before the
// backend, DepSky client and stores it uses.
struct TracedAgent {
  std::vector<std::unique_ptr<TracedObjectStore>> stores;
  std::shared_ptr<scfs::DepSkyClient> depsky;
  std::unique_ptr<TracedBlobBackend> backend;
  std::unique_ptr<scfs::ScfsFileSystem> fs;
};

// Wires an agent for `user` on a kCoc deployment with decorators at every
// seam, sharing `coord` (a TracedCoordination over deployment->coord()).
scfs::Result<std::unique_ptr<TracedAgent>> MountTraced(
    scfs::Deployment* deployment, TracedCoordination* coord,
    const SpanLogPtr& log, const TalliesPtr& tallies, const std::string& user,
    scfs::ScfsOptions options);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
