#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <unordered_map>

#include "stats.h"

namespace perfbench {

using scfs::Environment;

namespace {

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_op = 0;

// Records an asynchronous call's span and tally when its future completes.
// Captures only shared state, never the decorator.
template <typename T>
void TrackAsync(const scfs::Future<T>& future, SpanLogPtr log,
                TalliesPtr tallies, CallTally LayerTallies::*tally, int layer,
                const char* name, std::function<uint64_t(const T&)> bytes_of,
                std::function<bool(const T&)> ok_of) {
  Span span;
  span.id = log->NextId();
  span.parent = t_current_span;
  span.op = t_current_op;
  span.layer = layer;
  span.name = name;
  span.start = RealNow();
  future.OnReady([log, tallies, tally, span, bytes_of, ok_of](
                     const T& value, scfs::VirtualDuration charge) mutable {
    span.end = RealNow();
    span.charged_us = charge;
    log->Record(span);
    ((*tallies).*tally)
        .Add(ok_of(value), bytes_of ? bytes_of(value) : 0, charge,
             span.end - span.start, span.op != 0);
  });
}

bool StatusOk(const scfs::Status& s) { return s.ok(); }

}  // namespace

const char* LayerName(int layer) {
  switch (layer) {
    case kFsapi:
      return "fsapi";
    case kCoord:
      return "coord";
    case kDepsky:
      return "depsky";
    case kCloud:
      return "cloud";
    default:
      return "?";
  }
}

void SpanLog::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    dropped_.fetch_add(1);
    return;
  }
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "id,parent,op,layer,name,start_s,end_s,charged_us\n");
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(out, "%llu,%llu,%llu,%s,%s,%.9f,%.9f,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), LayerName(s.layer),
                 s.name, s.start, s.end, static_cast<long long>(s.charged_us));
  }
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, int layer, const char* name)
    : log_(log) {
  if (log_ == nullptr) {
    return;
  }
  span_.id = log_->NextId();
  span_.parent = t_current_span;
  span_.op = layer == kFsapi && t_current_op == 0 ? span_.id : t_current_op;
  span_.layer = layer;
  span_.name = name;
  saved_current_ = t_current_span;
  saved_op_ = t_current_op;
  t_current_span = span_.id;
  t_current_op = span_.op;
  charged_at_start_ = Environment::ThreadCharged();
  span_.start = RealNow();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) {
    return;
  }
  span_.end = RealNow();
  span_.charged_us = Environment::ThreadCharged() - charged_at_start_;
  t_current_span = saved_current_;
  t_current_op = saved_op_;
  log_->Record(span_);
}

uint64_t CurrentSpanId() { return t_current_span; }
uint64_t CurrentOpId() { return t_current_op; }

std::array<double, kLayerCount> SelfSeconds(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start, s.end);
    }
  }
  std::array<double, kLayerCount> self{};
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& kids = it->second;
      std::sort(kids.begin(), kids.end());
      double run_start = 0.0;
      double run_end = -1.0;
      for (auto [begin, end] : kids) {
        begin = std::max(begin, s.start);
        end = std::min(end, s.end);
        if (end <= begin) {
          continue;
        }
        if (begin > run_end) {
          covered += std::max(0.0, run_end - run_start);
          run_start = begin;
          run_end = end;
        } else {
          run_end = std::max(run_end, end);
        }
      }
      covered += std::max(0.0, run_end - run_start);
    }
    self[s.layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

void CallTally::Add(bool ok, uint64_t nbytes, int64_t charged, double real_s,
                    bool in_op) {
  calls.fetch_add(1);
  if (!ok) {
    failed.fetch_add(1);
  }
  bytes.fetch_add(nbytes);
  charged_us.fetch_add(charged);
  real_ns.fetch_add(static_cast<int64_t>(real_s * 1e9));
  if (in_op) {
    charged_in_ops_us.fetch_add(charged);
  }
}

// -- Synchronous decorator calls ----------------------------------------------

namespace {

// Runs `call` inside a span and adds it to `tally`.
template <typename Fn>
auto Traced(SpanLog* log, CallTally* tally, int layer, const char* name,
            Fn call, std::function<uint64_t(const decltype(call())&)> bytes_of =
                         nullptr) -> decltype(call()) {
  const bool in_op = CurrentOpId() != 0;
  const int64_t charged0 = Environment::ThreadCharged();
  const double real0 = RealNow();
  auto result = [&] {
    ScopedSpan span(log, layer, name);
    return call();
  }();
  tally->Add(result.ok(), bytes_of ? bytes_of(result) : 0,
             Environment::ThreadCharged() - charged0, RealNow() - real0,
             in_op);
  return result;
}

uint64_t BytesSize(const scfs::Result<scfs::Bytes>& r) {
  return r.ok() ? r->size() : 0;
}

}  // namespace

scfs::Result<scfs::CoordReply> TracedCoordination::Submit(
    const scfs::CoordCommand& command) {
  const bool read = command.is_read_only();
  return Traced(log_.get(),
                read ? &tallies_->coord_reads : &tallies_->coord_ordered,
                kCoord, read ? "coord.read" : "coord.ordered",
                [&] { return inner_->Submit(command); });
}

scfs::Future<scfs::Result<scfs::CoordReply>> TracedCoordination::SubmitAsync(
    const scfs::CoordCommand& command) {
  const bool read = command.is_read_only();
  auto future = inner_->SubmitAsync(command);
  TrackAsync<scfs::Result<scfs::CoordReply>>(
      future, log_, tallies_,
      read ? &LayerTallies::coord_reads : &LayerTallies::coord_ordered, kCoord,
      read ? "coord.read_async" : "coord.ordered_async", nullptr,
      [](const scfs::Result<scfs::CoordReply>& r) { return r.ok(); });
  return future;
}

scfs::Status TracedBlobBackend::WriteVersion(
    const std::string& id, const std::string& content_hash,
    scfs::ConstByteSpan data, const std::vector<scfs::BackendGrant>& grants) {
  const uint64_t size = data.size();
  return Traced(
      log_.get(), &tallies_->blob_writes, kDepsky, "depsky.write",
      [&] { return inner_->WriteVersion(id, content_hash, data, grants); },
      [size](const scfs::Status& s) { return s.ok() ? size : 0; });
}

scfs::Result<scfs::Bytes> TracedBlobBackend::ReadByHash(
    const std::string& id, const std::string& content_hash) {
  return Traced(log_.get(), &tallies_->blob_reads, kDepsky, "depsky.read",
                [&] { return inner_->ReadByHash(id, content_hash); },
                BytesSize);
}

scfs::Result<scfs::Bytes> TracedBlobBackend::ReadLatest(const std::string& id) {
  return Traced(log_.get(), &tallies_->blob_reads, kDepsky,
                "depsky.read_latest", [&] { return inner_->ReadLatest(id); },
                BytesSize);
}

scfs::Result<scfs::Bytes> TracedBlobBackend::ReadAt(
    const std::string& id, const std::string& content_hash, uint64_t offset,
    size_t length) {
  return Traced(
      log_.get(), &tallies_->blob_reads, kDepsky, "depsky.read_at",
      [&] { return inner_->ReadAt(id, content_hash, offset, length); },
      BytesSize);
}

scfs::Result<std::vector<scfs::BlobVersionInfo>>
TracedBlobBackend::ListVersions(const std::string& id) {
  return Traced(log_.get(), &tallies_->blob_other, kDepsky, "depsky.list",
                [&] { return inner_->ListVersions(id); });
}

scfs::Status TracedBlobBackend::DeleteVersionByHash(
    const std::string& id, const std::string& content_hash) {
  return Traced(log_.get(), &tallies_->blob_other, kDepsky,
                "depsky.delete_version",
                [&] { return inner_->DeleteVersionByHash(id, content_hash); });
}

scfs::Status TracedBlobBackend::DeleteUnit(const std::string& id) {
  return Traced(log_.get(), &tallies_->blob_other, kDepsky,
                "depsky.delete_unit", [&] { return inner_->DeleteUnit(id); });
}

scfs::Status TracedBlobBackend::SetGrant(const std::string& id,
                                         const scfs::BackendGrant& grant) {
  return Traced(log_.get(), &tallies_->blob_other, kDepsky, "depsky.grant",
                [&] { return inner_->SetGrant(id, grant); });
}

scfs::Status TracedObjectStore::Put(const scfs::CloudCredentials& creds,
                                    const std::string& key,
                                    std::shared_ptr<const scfs::Bytes> data) {
  const uint64_t size = data ? data->size() : 0;
  return Traced(
      log_.get(), &tallies_->cloud_puts, kCloud, "cloud.put",
      [&] { return inner_->Put(creds, key, std::move(data)); },
      [size](const scfs::Status&) { return size; });
}

scfs::Result<scfs::Bytes> TracedObjectStore::Get(
    const scfs::CloudCredentials& creds, const std::string& key) {
  return Traced(log_.get(), &tallies_->cloud_gets, kCloud, "cloud.get",
                [&] { return inner_->Get(creds, key); }, BytesSize);
}

scfs::Status TracedObjectStore::Delete(const scfs::CloudCredentials& creds,
                                       const std::string& key) {
  return Traced(log_.get(), &tallies_->cloud_other, kCloud, "cloud.delete",
                [&] { return inner_->Delete(creds, key); });
}

scfs::Result<std::vector<scfs::ObjectInfo>> TracedObjectStore::List(
    const scfs::CloudCredentials& creds, const std::string& prefix) {
  return Traced(log_.get(), &tallies_->cloud_other, kCloud, "cloud.list",
                [&] { return inner_->List(creds, prefix); });
}

scfs::Status TracedObjectStore::SetAcl(const scfs::CloudCredentials& creds,
                                       const std::string& key,
                                       const scfs::CanonicalId& grantee,
                                       scfs::ObjectPermissions permissions) {
  return Traced(log_.get(), &tallies_->cloud_other, kCloud, "cloud.set_acl",
                [&] { return inner_->SetAcl(creds, key, grantee, permissions); });
}

scfs::Result<scfs::ObjectAcl> TracedObjectStore::GetAcl(
    const scfs::CloudCredentials& creds, const std::string& key) {
  return Traced(log_.get(), &tallies_->cloud_other, kCloud, "cloud.get_acl",
                [&] { return inner_->GetAcl(creds, key); });
}

// -- Asynchronous decorator calls: forwarded to the inner store's own async
// path (which overlaps requests on the shared executor) and tallied on
// completion.

scfs::Future<scfs::Status> TracedObjectStore::PutAsync(
    const scfs::CloudCredentials& creds, const std::string& key,
    std::shared_ptr<const scfs::Bytes> data) {
  const uint64_t size = data ? data->size() : 0;
  auto future = inner_->PutAsync(creds, key, std::move(data));
  TrackAsync<scfs::Status>(
      future, log_, tallies_, &LayerTallies::cloud_puts, kCloud,
      "cloud.put_async", [size](const scfs::Status&) { return size; },
      StatusOk);
  return future;
}

scfs::Future<scfs::Result<scfs::Bytes>> TracedObjectStore::GetAsync(
    const scfs::CloudCredentials& creds, const std::string& key) {
  auto future = inner_->GetAsync(creds, key);
  TrackAsync<scfs::Result<scfs::Bytes>>(
      future, log_, tallies_, &LayerTallies::cloud_gets, kCloud,
      "cloud.get_async", BytesSize,
      [](const scfs::Result<scfs::Bytes>& r) { return r.ok(); });
  return future;
}

scfs::Future<scfs::Status> TracedObjectStore::DeleteAsync(
    const scfs::CloudCredentials& creds, const std::string& key) {
  auto future = inner_->DeleteAsync(creds, key);
  TrackAsync<scfs::Status>(future, log_, tallies_, &LayerTallies::cloud_other,
                           kCloud, "cloud.delete_async", nullptr, StatusOk);
  return future;
}

scfs::Future<scfs::Result<std::vector<scfs::ObjectInfo>>>
TracedObjectStore::ListAsync(const scfs::CloudCredentials& creds,
                             const std::string& prefix) {
  auto future = inner_->ListAsync(creds, prefix);
  TrackAsync<scfs::Result<std::vector<scfs::ObjectInfo>>>(
      future, log_, tallies_, &LayerTallies::cloud_other, kCloud,
      "cloud.list_async", nullptr,
      [](const scfs::Result<std::vector<scfs::ObjectInfo>>& r) {
        return r.ok();
      });
  return future;
}

scfs::Future<scfs::Status> TracedObjectStore::SetAclAsync(
    const scfs::CloudCredentials& creds, const std::string& key,
    const scfs::CanonicalId& grantee, scfs::ObjectPermissions permissions) {
  auto future = inner_->SetAclAsync(creds, key, grantee, permissions);
  TrackAsync<scfs::Status>(future, log_, tallies_, &LayerTallies::cloud_other,
                           kCloud, "cloud.set_acl_async", nullptr, StatusOk);
  return future;
}

// -- Wiring -------------------------------------------------------------------

scfs::Result<std::unique_ptr<TracedAgent>> MountTraced(
    scfs::Deployment* deployment, TracedCoordination* coord,
    const SpanLogPtr& log, const TalliesPtr& tallies, const std::string& user,
    scfs::ScfsOptions options) {
  // Mirrors Deployment::Mount for a kCoc deployment without leases.
  options.user = user;
  options.user_cloud_ids = deployment->CloudIdsFor(user);
  auto agent = std::make_unique<TracedAgent>();
  scfs::DepSkyConfig config;
  config.f = deployment->options().f;
  config.mode = scfs::DepSkyMode::kSecretSharing;
  config.preferred_quorums = true;
  config.auth_key = scfs::ToBytes("scfs-deployment-auth-key");
  std::vector<scfs::DepSkyCloud> set;
  for (unsigned i = 0; i < deployment->cloud_count(); ++i) {
    agent->stores.push_back(
        std::make_unique<TracedObjectStore>(deployment->cloud(i), log, tallies));
    set.push_back(scfs::DepSkyCloud{
        agent->stores.back().get(),
        scfs::CloudCredentials{options.user_cloud_ids[i]}});
  }
  agent->depsky = std::make_shared<scfs::DepSkyClient>(
      deployment->env(), std::move(set), config,
      deployment->options().seed ^ std::hash<std::string>{}(user));
  agent->backend = std::make_unique<TracedBlobBackend>(
      std::make_unique<scfs::DepSkyBackend>(agent->depsky), log, tallies);
  agent->fs = std::make_unique<scfs::ScfsFileSystem>(
      deployment->env(), coord, agent->backend.get(), std::move(options));
  scfs::Status mounted = agent->fs->Mount();
  if (!mounted.ok()) {
    return mounted;
  }
  return agent;
}

}  // namespace perfbench
