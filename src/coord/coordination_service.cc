#include "src/coord/coordination_service.h"

namespace scfs {

namespace {

CoordCommand Command(CoordOp op, const std::string& client,
                     const std::string& key) {
  CoordCommand cmd;
  cmd.op = op;
  cmd.client = client;
  cmd.key = key;
  return cmd;
}

// Command builders shared by the sync and async wrapper of an op (kRead and
// kRemove carry nothing beyond the key, so Command() builds them).
CoordCommand WriteCommand(const std::string& client, const std::string& key,
                          const Bytes& value) {
  CoordCommand cmd = Command(CoordOp::kWrite, client, key);
  cmd.value = value;
  return cmd;
}

CoordCommand RenewLockCommand(const std::string& client,
                              const std::string& name, uint64_t token,
                              VirtualDuration lease) {
  CoordCommand cmd = Command(CoordOp::kRenewLock, client, name);
  cmd.a = static_cast<uint64_t>(lease);
  cmd.b = token;
  return cmd;
}

CoordCommand ImportEntryCommand(const std::string& client,
                                const std::string& key, const Bytes& payload) {
  CoordCommand cmd = Command(CoordOp::kImportEntry, client, key);
  cmd.value = payload;
  return cmd;
}

// What a failed reply's status says: the op and the key it named.
std::string ErrorContext(CoordOp op, const std::string& key) {
  switch (op) {
    case CoordOp::kWrite:
      return "coord write " + key;
    case CoordOp::kConditionalCreate:
      return "coord create " + key;
    case CoordOp::kCompareAndSwap:
      return "coord cas " + key;
    case CoordOp::kRead:
      return "coord read " + key;
    case CoordOp::kReadPrefix:
      return "coord read prefix " + key;
    case CoordOp::kRemove:
      return "coord remove " + key;
    case CoordOp::kTryLock:
      return "coord lock " + key;
    case CoordOp::kRenewLock:
      return "coord renew " + key;
    case CoordOp::kUnlock:
      return "coord unlock " + key;
    case CoordOp::kRenamePrefix:
      return "coord rename " + key;
    case CoordOp::kSetEntryAcl:
      return "coord set acl " + key;
    case CoordOp::kExportPrefix:
      return "coord export prefix " + key;
    case CoordOp::kImportEntry:
      return "coord import " + key;
    case CoordOp::kLeaseAcquire:
      return "coord lease acquire " + key;
    case CoordOp::kLeaseRelease:
      return "coord lease release " + key;
    case CoordOp::kNoop:
      break;
  }
  return "coord " + key;
}

// Reply decoders shared by the sync and async wrappers: a failed submission
// passes through, a failed reply becomes a status naming the op.
Status StatusOf(const CoordCommand& cmd, const Result<CoordReply>& reply) {
  if (!reply.ok()) {
    return reply.status();
  }
  return reply->ok() ? OkStatus()
                     : Status(reply->code, ErrorContext(cmd.op, cmd.key));
}

Result<CoordEntry> EntryOf(const CoordCommand& cmd,
                           const Result<CoordReply>& reply) {
  RETURN_IF_ERROR(StatusOf(cmd, reply));
  return CoordEntry{reply->value, reply->a};
}

// Submits `cmd` asynchronously and decodes the reply with `decode`,
// preserving the round's charge.
template <typename T>
Future<T> SubmitDecoded(CoordinationService* service, CoordCommand cmd,
                        T (*decode)(const CoordCommand&,
                                    const Result<CoordReply>&)) {
  Future<Result<CoordReply>> submitted = service->SubmitAsync(cmd);
  Promise<T> promise;
  submitted.OnReady([promise, cmd = std::move(cmd), decode](
                        const Result<CoordReply>& reply,
                        VirtualDuration charge) {
    promise.Set(decode(cmd, reply), charge);
  });
  return promise.future();
}

}  // namespace

Status CoordinationService::Write(const std::string& client,
                                  const std::string& key, const Bytes& value) {
  const CoordCommand cmd = WriteCommand(client, key, value);
  return StatusOf(cmd, Submit(cmd));
}

Status CoordinationService::ConditionalCreate(const std::string& client,
                                              const std::string& key,
                                              const Bytes& value) {
  CoordCommand cmd = Command(CoordOp::kConditionalCreate, client, key);
  cmd.value = value;
  return StatusOf(cmd, Submit(cmd));
}

Result<uint64_t> CoordinationService::CompareAndSwap(
    const std::string& client, const std::string& key, const Bytes& value,
    uint64_t expected_version) {
  CoordCommand cmd = Command(CoordOp::kCompareAndSwap, client, key);
  cmd.value = value;
  cmd.a = expected_version;
  Result<CoordReply> reply = Submit(cmd);
  RETURN_IF_ERROR(StatusOf(cmd, reply));
  return reply->a;
}

Result<CoordEntry> CoordinationService::Read(const std::string& client,
                                             const std::string& key) {
  const CoordCommand cmd = Command(CoordOp::kRead, client, key);
  return EntryOf(cmd, Submit(cmd));
}

Result<std::vector<CoordEntryView>> CoordinationService::ReadPrefix(
    const std::string& client, const std::string& prefix) {
  const CoordCommand cmd = Command(CoordOp::kReadPrefix, client, prefix);
  Result<CoordReply> reply = Submit(cmd);
  RETURN_IF_ERROR(StatusOf(cmd, reply));
  return std::move(reply->entries);
}

Status CoordinationService::Remove(const std::string& client,
                                   const std::string& key) {
  const CoordCommand cmd = Command(CoordOp::kRemove, client, key);
  return StatusOf(cmd, Submit(cmd));
}

Result<CoordLock> CoordinationService::TryLock(const std::string& client,
                                               const std::string& name,
                                               VirtualDuration lease) {
  CoordCommand cmd = Command(CoordOp::kTryLock, client, name);
  cmd.a = static_cast<uint64_t>(lease);
  Result<CoordReply> reply = Submit(cmd);
  RETURN_IF_ERROR(StatusOf(cmd, reply));
  return CoordLock{reply->a};
}

Status CoordinationService::RenewLock(const std::string& client,
                                      const std::string& name, uint64_t token,
                                      VirtualDuration lease) {
  const CoordCommand cmd = RenewLockCommand(client, name, token, lease);
  return StatusOf(cmd, Submit(cmd));
}

Status CoordinationService::Unlock(const std::string& client,
                                   const std::string& name, uint64_t token) {
  CoordCommand cmd = Command(CoordOp::kUnlock, client, name);
  cmd.b = token;
  return StatusOf(cmd, Submit(cmd));
}

Status CoordinationService::RenamePrefix(const std::string& client,
                                         const std::string& old_prefix,
                                         const std::string& new_prefix) {
  CoordCommand cmd = Command(CoordOp::kRenamePrefix, client, old_prefix);
  cmd.aux = new_prefix;
  return StatusOf(cmd, Submit(cmd));
}

Result<std::vector<CoordEntryView>> CoordinationService::ExportPrefix(
    const std::string& client, const std::string& prefix) {
  const CoordCommand cmd = Command(CoordOp::kExportPrefix, client, prefix);
  Result<CoordReply> reply = Submit(cmd);
  RETURN_IF_ERROR(StatusOf(cmd, reply));
  return std::move(reply->entries);
}

Status CoordinationService::ImportEntry(const std::string& client,
                                        const std::string& key,
                                        const Bytes& payload) {
  const CoordCommand cmd = ImportEntryCommand(client, key, payload);
  return StatusOf(cmd, Submit(cmd));
}

Result<LeaseGrant> CoordinationService::AcquireLease(const std::string& client,
                                                     const std::string& session,
                                                     const std::string& prefix,
                                                     VirtualDuration ttl) {
  CoordCommand cmd = Command(CoordOp::kLeaseAcquire, client, prefix);
  cmd.aux = session;
  cmd.a = static_cast<uint64_t>(ttl);
  Result<CoordReply> reply = Submit(cmd);
  RETURN_IF_ERROR(StatusOf(cmd, reply));
  LeaseGrant grant;
  grant.expires_at = static_cast<VirtualTime>(reply->a);
  grant.entries = std::move(reply->entries);
  ByteReader reader(reply->value);
  reader.ReadU64(&grant.epoch);  // empty for scattered multi-partition grants
  return grant;
}

Status CoordinationService::GrantEntryAccess(const std::string& owner,
                                             const std::string& key,
                                             const std::string& grantee,
                                             bool read, bool write) {
  CoordCommand cmd = Command(CoordOp::kSetEntryAcl, owner, key);
  cmd.aux = grantee;
  cmd.a = (read ? kCoordPermRead : 0) | (write ? kCoordPermWrite : 0);
  return StatusOf(cmd, Submit(cmd));
}

Future<Status> CoordinationService::WriteAsync(const std::string& client,
                                               const std::string& key,
                                               const Bytes& value) {
  return SubmitDecoded(this, WriteCommand(client, key, value), &StatusOf);
}

Future<Result<CoordEntry>> CoordinationService::ReadAsync(
    const std::string& client, const std::string& key) {
  return SubmitDecoded(this, Command(CoordOp::kRead, client, key), &EntryOf);
}

Future<Status> CoordinationService::RemoveAsync(const std::string& client,
                                                const std::string& key) {
  return SubmitDecoded(this, Command(CoordOp::kRemove, client, key),
                       &StatusOf);
}

Future<Status> CoordinationService::RenewLockAsync(const std::string& client,
                                                   const std::string& name,
                                                   uint64_t token,
                                                   VirtualDuration lease) {
  return SubmitDecoded(this, RenewLockCommand(client, name, token, lease),
                       &StatusOf);
}

Future<Status> CoordinationService::ImportEntryAsync(const std::string& client,
                                                     const std::string& key,
                                                     const Bytes& payload) {
  return SubmitDecoded(this, ImportEntryCommand(client, key, payload),
                       &StatusOf);
}

std::string PartitionRoutingKey(const std::string& key) {
  for (const char* prefix : {"ri:", "rc:"}) {
    if (key.compare(0, 3, prefix) == 0) {
      return key.substr(3);
    }
  }
  return key;
}

}  // namespace scfs
