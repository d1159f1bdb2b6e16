#include "workloads.h"

#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <thread>

#include "src/common/rng.h"
#include "src/scfs/deployment.h"
#include "src/sim/environment.h"
#include "stats.h"

namespace perfbench {

using scfs::Bytes;
using scfs::Environment;
using scfs::ErrorCode;
using scfs::FileSystem;
using scfs::ScfsFileSystem;
using scfs::ScfsMode;
using scfs::ScfsOptions;
using scfs::Status;

const char* OpClassName(int op_class) {
  static const char* kNames[kClassCount] = {"write", "read", "lookup",
                                            "mutate", "share"};
  return op_class >= 0 && op_class < kClassCount ? kNames[op_class] : "?";
}

void ClientLog::Merge(const ClientLog& other) {
  for (int c = 0; c < kClassCount; ++c) {
    ClassTally& mine = classes[c];
    const ClassTally& theirs = other.classes[c];
    mine.vms.insert(mine.vms.end(), theirs.vms.begin(), theirs.vms.end());
    mine.real_s.insert(mine.real_s.end(), theirs.real_s.begin(),
                       theirs.real_s.end());
    mine.bytes += theirs.bytes;
    mine.attempted += theirs.attempted;
    mine.failed += theirs.failed;
  }
  for (const auto& [key, count] : other.failures) {
    failures[key] += count;
  }
  fsapi_calls += other.fsapi_calls;
  content_mismatches += other.content_mismatches;
}

namespace {

// -- File contents ------------------------------------------------------------
//
// Every file carries a 24-byte tag (owner, file, version, stream seed) and a
// body generated from it, so a reader can check any version it is served
// without sharing state with the writer.

constexpr size_t kTagBytes = 24;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct ContentTag {
  uint32_t owner = 0;
  uint32_t file = 0;
  uint64_t version = 0;
};

uint64_t StreamSeed(uint64_t seed, const ContentTag& tag) {
  return Mix(seed ^ Mix((static_cast<uint64_t>(tag.owner) << 32 | tag.file) ^
                        Mix(tag.version)));
}

Bytes MakeContent(uint64_t seed, const ContentTag& tag, size_t size) {
  Bytes out(size);
  uint64_t words[3] = {static_cast<uint64_t>(tag.owner) << 32 | tag.file,
                       tag.version, StreamSeed(seed, tag)};
  std::memcpy(out.data(), words, kTagBytes);
  uint64_t state = words[2];
  size_t i = kTagBytes;
  for (; i + 8 <= size; i += 8) {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t v = Mix(state);
    std::memcpy(out.data() + i, &v, 8);
  }
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t v = Mix(state);
  std::memcpy(out.data() + i, &v, size - i);
  return out;
}

// True when `data` is exactly some version of (owner, file) at `size` bytes;
// that version is returned in `*version`.
bool CheckContent(uint64_t seed, const Bytes& data, size_t size,
                  uint32_t owner, uint32_t file, uint64_t* version) {
  if (data.size() != size || size < kTagBytes) {
    return false;
  }
  uint64_t words[3];
  std::memcpy(words, data.data(), kTagBytes);
  ContentTag tag{owner, file, words[1]};
  if (words[0] != (static_cast<uint64_t>(owner) << 32 | file) ||
      words[2] != StreamSeed(seed, tag)) {
    return false;
  }
  uint64_t state = words[2];
  size_t i = kTagBytes;
  for (; i + 8 <= size; i += 8) {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t v = Mix(state);
    if (std::memcmp(data.data() + i, &v, 8) != 0) {
      return false;
    }
  }
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t v = Mix(state);
  if (std::memcmp(data.data() + i, &v, size - i) != 0) {
    return false;
  }
  *version = tag.version;
  return true;
}

// -- fsapi helpers ------------------------------------------------------------

Status WriteWhole(FileSystem* fs, const std::string& path, const Bytes& data) {
  auto handle = fs->Open(path, scfs::kOpenWrite | scfs::kOpenCreate |
                                   scfs::kOpenTruncate);
  if (!handle.ok()) {
    return handle.status();
  }
  Status written = fs->Write(*handle, 0, data);
  Status closed = fs->Close(*handle);
  return written.ok() ? closed : written;
}

scfs::Result<Bytes> ReadWhole(FileSystem* fs, const std::string& path,
                              size_t expected_size) {
  auto handle = fs->Open(path, scfs::kOpenRead);
  if (!handle.ok()) {
    return handle.status();
  }
  // One byte past the expected size, so a longer file is caught too.
  auto data = fs->Read(*handle, 0, expected_size + 1);
  Status closed = fs->Close(*handle);
  if (data.ok() && !closed.ok()) {
    return closed;
  }
  return data;
}

Status ContentError() {
  return Status(ErrorCode::kCorruption, "content check failed");
}

// One closed-loop client thread's context.
struct Client {
  ClientLog log;
  scfs::Rng rng;
  SpanLog* spans = nullptr;
  uint64_t seed = 0;
};

// Runs one op of class `op_class`, made of `calls` fsapi calls inside `fn`,
// and records its modelled charge and host wall time. Returns the charge in
// modelled ms, or a negative value when the op failed.
template <typename Fn>
double RunOp(Client* client, OpClass op_class, const char* name,
             uint64_t bytes, int calls, Fn fn) {
  ClassTally& tally = client->log.classes[op_class];
  ++tally.attempted;
  const int64_t charged0 = Environment::ThreadCharged();
  const double real0 = RealNow();
  Status status;
  {
    ScopedSpan span(client->spans, kFsapi, name);
    status = fn();
  }
  const double real = RealNow() - real0;
  const double vms =
      static_cast<double>(Environment::ThreadCharged() - charged0) / 1000.0;
  if (!status.ok()) {
    ++tally.failed;
    ++client->log.failures[std::string(OpClassName(op_class)) + ":" +
                           std::string(scfs::ErrorCodeName(status.code()))];
    return -1.0;
  }
  tally.vms.push_back(vms);
  tally.real_s.push_back(real);
  tally.bytes += bytes;
  client->log.fsapi_calls += static_cast<uint64_t>(calls);
  return vms;
}

// A read op that checks the bytes it gets: any version of (owner, file),
// or exactly `expected_version` when it is not kAnyVersion. A mismatch is a
// failed op and a content error.
constexpr uint64_t kAnyVersion = ~0ull;

double ReadOp(Client* client, OpClass op_class, FileSystem* fs,
              const std::string& path, size_t size, uint32_t owner,
              uint32_t file, uint64_t expected_version) {
  return RunOp(client, op_class, "read", size, 3, [&]() -> Status {
    auto data = ReadWhole(fs, path, size);
    if (!data.ok()) {
      return data.status();
    }
    uint64_t version = 0;
    if (!CheckContent(client->seed, *data, size, owner, file, &version) ||
        (expected_version != kAnyVersion && version != expected_version)) {
      ++client->log.content_mismatches;
      return ContentError();
    }
    return scfs::OkStatus();
  });
}

// Adds one sharing-latency sample: the writer's background upload charge
// plus the reader's fetch.
void RecordShare(Client* client, double upload_vms, double read_vms) {
  ClassTally& share = client->log.classes[kShare];
  ++share.attempted;
  share.vms.push_back(upload_vms + read_vms);
}

double StatOp(Client* client, FileSystem* fs, const std::string& path,
              size_t size) {
  return RunOp(client, kLookup, "stat", 0, 1, [&]() -> Status {
    auto stat = fs->Stat(path);
    if (!stat.ok()) {
      return stat.status();
    }
    if (stat->size != size) {
      ++client->log.content_mismatches;
      return ContentError();
    }
    return scfs::OkStatus();
  });
}

// Private scratch directory churn: mkdir, rename, rmdir in turn. Only the
// owning client touches `dir`, so no step can race with another client.
void ScratchStep(Client* client, FileSystem* fs, const std::string& dir,
                 uint64_t* step) {
  const uint64_t k = *step / 3;
  const std::string a = dir + "/d" + std::to_string(k);
  const std::string b = dir + "/e" + std::to_string(k);
  switch (*step % 3) {
    case 0:
      RunOp(client, kMutate, "mkdir", 0, 1, [&] { return fs->Mkdir(a); });
      break;
    case 1:
      RunOp(client, kMutate, "rename", 0, 1, [&] { return fs->Rename(a, b); });
      break;
    default:
      RunOp(client, kMutate, "rmdir", 0, 1, [&] { return fs->Rmdir(b); });
      break;
  }
  ++*step;
}

// Runs fn(0..n-1) on n threads; returns the first error.
Status ParallelFor(int n, const std::function<Status(int)>& fn) {
  std::vector<Status> results(static_cast<size_t>(n));
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] { results[static_cast<size_t>(i)] = fn(i); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const Status& status : results) {
    RETURN_IF_ERROR(status);
  }
  return scfs::OkStatus();
}

// When a client stops: at a deadline, or after a number of rounds.
struct Budget {
  double deadline = 0.0;  // RealNow() seconds
  uint64_t rounds = ~0ull;
  bool More(uint64_t done) const {
    return done < rounds && RealNow() < deadline;
  }
};

// -- The world a pass runs in -------------------------------------------------

struct World {
  std::unique_ptr<scfs::Deployment> deployment;
  SpanLogPtr spans;
  TalliesPtr tallies;
  std::unique_ptr<TracedCoordination> coord;
  std::vector<std::unique_ptr<TracedAgent>> traced;
  std::vector<std::unique_ptr<ScfsFileSystem>> plain;
  std::vector<ScfsFileSystem*> agents;  // mount order

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World() {
    // Agents first (they drain their uploads), then the deployment; the
    // coordination decorator only forwards, so it may go last.
    plain.clear();
    traced.clear();
    deployment.reset();
    coord.reset();
  }
  SpanLog* span_log() const { return spans.get(); }
};

// -- Workloads ----------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int agent_count() const = 0;
  virtual ScfsOptions AgentOptions(int agent) const = 0;
  // Directories, pre-population and cache warm-up; state reset included.
  virtual Status Prepare(World* world, uint64_t seed) = 0;
  virtual int client_count() const = 0;
  virtual void RunClient(World* world, int client, Client* ctx,
                         const Budget& budget) = 0;
  // Rounds each client makes in the real pass, which does a fixed amount of
  // work so its final state (versions to collect, memory held) repeats.
  virtual uint64_t RealRounds() const = 0;
  virtual uint64_t LiveUserBytes() const = 0;
  // The user each agent mounts as. Agents of one user share ownership of
  // its files; each user's garbage collector walks only that user's files.
  virtual std::string UserOf(int agent) const {
    (void)agent;
    return "bench";
  }
};

// largefile: one client keeps a rotation of two 64 MiB parts, as a backup
// rotation does. Each round it removes the oldest part, writes the new one
// whole in blocking mode under a temporary name and renames it into place;
// a second mount whose caches are smaller than one file reads it back cold.
class LargeFile : public Workload {
 public:
  static constexpr size_t kSize = 64ull * 1024 * 1024;
  static constexpr int kSlots = 2;

  int agent_count() const override { return 2; }
  ScfsOptions AgentOptions(int agent) const override {
    ScfsOptions o;
    o.mode = ScfsMode::kBlocking;
    if (agent == 0) {  // writer: room for one file, bounded on disk
      o.storage.memory_cache_bytes = kSize;
      o.storage.disk_cache_bytes = 2 * kSize;
    } else {  // cold reader
      o.storage.memory_cache_bytes = kSize / 4;
      o.storage.disk_cache_bytes = kSize / 4;
      o.metadata_cache_ttl = 0;
    }
    return o;
  }
  // Publishes part-1, so every measured round but the first replaces a file.
  Status Prepare(World* world, uint64_t seed) override {
    iteration_ = 0;
    RETURN_IF_ERROR(world->agents[0]->Mkdir("/big"));
    return WriteWhole(world->agents[0], "/big/part-1",
                      MakeContent(seed, ContentTag{0, 1, 0}, kSize));
  }
  int client_count() const override { return 1; }
  uint64_t RealRounds() const override { return 4; }
  void RunClient(World* world, int, Client* ctx,
                 const Budget& budget) override {
    ScfsFileSystem* writer = world->agents[0];
    ScfsFileSystem* reader = world->agents[1];
    while (budget.More(iteration_)) {
      const uint64_t i = iteration_++;
      const uint32_t slot = static_cast<uint32_t>(i % kSlots);
      const std::string incoming = "/big/incoming";
      const std::string path = "/big/part-" + std::to_string(slot);
      if (i != 0) {  // part-0 does not exist before the first round
        RunOp(ctx, kMutate, "unlink", 0, 1,
              [&] { return writer->Unlink(path); });
      }
      Bytes data = MakeContent(ctx->seed, ContentTag{0, slot, i}, kSize);
      if (RunOp(ctx, kWrite, "write", kSize, 3, [&] {
            return WriteWhole(writer, incoming, data);
          }) < 0) {
        continue;
      }
      data = Bytes();
      if (RunOp(ctx, kMutate, "rename", 0, 1, [&] {
            return writer->Rename(incoming, path);
          }) < 0) {
        continue;
      }
      StatOp(ctx, reader, path, kSize);
      // Blocking mode: the upload finished inside close, so the sharing
      // latency is the reader's fetch (Figure 9's blocking variants).
      const double read_vms = ReadOp(ctx, kRead, reader, path, kSize, 0, slot, i);
      if (read_vms >= 0) {
        RecordShare(ctx, 0.0, read_vms);
      }
      // The reader re-checks the size once it has the bytes, as a sync
      // client does before it reports the file done, and checks that the
      // other part of the rotation is still whole.
      StatOp(ctx, reader, path, kSize);
      StatOp(ctx, reader, "/big/part-" + std::to_string(1 - slot), kSize);
    }
  }
  uint64_t LiveUserBytes() const override { return kSlots * kSize; }

 private:
  uint64_t iteration_ = 0;
};

// metadata: four closed-loop clients, each owning a directory of small
// files, run the op mix of the repository's `fileserver` scenario
// personality (bench/scenario/personality.cc, after Filebench's fileserver):
// 25% Stat, 33% whole-file reads, 20% appends, 12% creates, 10% deletes.
// Stats and reads go to other clients' files. An append rewrites one of the
// client's own files, as SCFS uploads whole files on close. Creates and
// deletes work on the client's private scratch directory, oldest file
// first. Each block of 100 mix ops holds exactly these proportions, in a
// seeded order. Every 20th round is a sharing probe instead: a write of an
// own file that another agent (the client's probe reader) then fetches.
class Metadata : public Workload {
 public:
  static constexpr size_t kSize = 4096;
  static constexpr int kClients = 4;
  static constexpr int kFiles = 32;
  // Files of each other client read once during set-up (cache warm-up).
  static constexpr int kWarmFiles = 8;
  // Scratch files each client starts with: more than the deletes a block
  // can make before its first create.
  static constexpr int kScratchFiles = 16;
  static constexpr uint64_t kProbeEvery = 20;

  int agent_count() const override { return 2 * kClients; }
  ScfsOptions AgentOptions(int agent) const override {
    ScfsOptions o;
    o.mode = ScfsMode::kNonBlocking;
    if (agent >= kClients) {
      o.metadata_cache_ttl = 0;  // probe readers always ask coordination
    }
    return o;
  }
  Status Prepare(World* world, uint64_t seed) override {
    versions_.assign(kClients, std::vector<uint64_t>(kFiles, 0));
    scratch_.assign(kClients, Scratch());
    RETURN_IF_ERROR(ParallelFor(kClients, [&](int c) -> Status {
      ScfsFileSystem* fs = world->agents[c];
      RETURN_IF_ERROR(fs->Mkdir(Dir(c)));
      RETURN_IF_ERROR(fs->Mkdir(ScratchDir(c)));
      for (int f = 0; f < kFiles + kScratchFiles; ++f) {
        const std::string path =
            f < kFiles ? File(c, f) : ScratchFile(c, f - kFiles);
        RETURN_IF_ERROR(WriteWhole(
            fs, path,
            MakeContent(seed, ContentTag{static_cast<uint32_t>(c),
                                         static_cast<uint32_t>(f), 0},
                        kSize)));
      }
      for (int k = 0; k < kScratchFiles; ++k) {
        scratch_[c].live.push_back(static_cast<uint64_t>(k));
      }
      scratch_[c].next = kScratchFiles;
      return fs->SyncBarrier();
    }));
    // Warm-up: every client reads every other client's files once.
    return ParallelFor(kClients, [&](int c) -> Status {
      for (int d = 0; d < kClients; ++d) {
        for (int f = 0; d != c && f < kWarmFiles; ++f) {
          auto data = ReadWhole(world->agents[c], File(d, f), kSize);
          if (!data.ok()) {
            return data.status();
          }
        }
      }
      return scfs::OkStatus();
    });
  }
  int client_count() const override { return kClients; }
  // 100 probes and 19 whole blocks of the mix, so the files left at the end
  // are the same for every seed.
  uint64_t RealRounds() const override { return 2000; }
  void RunClient(World* world, int c, Client* ctx,
                 const Budget& budget) override {
    ScfsFileSystem* fs = world->agents[c];
    ScfsFileSystem* probe = world->agents[kClients + c];
    std::vector<MixOp> block;
    for (uint64_t round = 0; budget.More(round); ++round) {
      int other = static_cast<int>(ctx->rng.UniformU64(kClients - 1));
      other += other >= c ? 1 : 0;
      const int f = static_cast<int>(ctx->rng.UniformU64(kFiles));
      if (round % kProbeEvery == kProbeEvery - 1) {
        SharingProbe(ctx, fs, probe, c, f);
        continue;
      }
      if (block.empty()) {
        block = ShuffledBlock(&ctx->rng);
      }
      const MixOp op = block.back();
      block.pop_back();
      switch (op) {
        case kStatMix:
          StatOp(ctx, fs, File(other, f), kSize);
          break;
        case kReadMix:
          ReadOp(ctx, kRead, fs, File(other, f), kSize,
                 static_cast<uint32_t>(other), static_cast<uint32_t>(f),
                 kAnyVersion);
          break;
        case kAppendMix:
          WriteOwn(ctx, fs, c, f);
          break;
        case kCreateMix:
          CreateScratch(ctx, fs, c);
          break;
        case kDeleteMix:
          DeleteScratch(ctx, fs, c);
          break;
      }
    }
  }
  uint64_t LiveUserBytes() const override {
    uint64_t files = 0;
    for (const Scratch& s : scratch_) {
      files += kFiles + s.live.size();
    }
    return files * kSize;
  }

 private:
  enum MixOp { kStatMix, kReadMix, kAppendMix, kCreateMix, kDeleteMix };
  // A client's private scratch files, oldest first.
  struct Scratch {
    std::deque<uint64_t> live;
    uint64_t next = 0;
  };

  static std::vector<MixOp> ShuffledBlock(scfs::Rng* rng) {
    static constexpr std::pair<MixOp, int> kMix[] = {
        {kStatMix, 25}, {kReadMix, 33}, {kAppendMix, 20},
        {kCreateMix, 12}, {kDeleteMix, 10}};
    std::vector<MixOp> block;
    for (const auto& [op, count] : kMix) {
      block.insert(block.end(), static_cast<size_t>(count), op);
    }
    for (size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[rng->UniformU64(i + 1)]);
    }
    return block;
  }

  static std::string Dir(int c) { return "/c" + std::to_string(c); }
  static std::string ScratchDir(int c) { return "/s" + std::to_string(c); }
  static std::string File(int c, int f) {
    return Dir(c) + "/f" + std::to_string(f);
  }
  static std::string ScratchFile(int c, uint64_t k) {
    return ScratchDir(c) + "/n" + std::to_string(k);
  }

  double WriteOwn(Client* ctx, ScfsFileSystem* fs, int c, int f) {
    const uint64_t version = ++versions_[c][f];
    Bytes data = MakeContent(ctx->seed,
                             ContentTag{static_cast<uint32_t>(c),
                                        static_cast<uint32_t>(f), version},
                             kSize);
    return RunOp(ctx, kWrite, "write", kSize, 3,
                 [&] { return WriteWhole(fs, File(c, f), data); });
  }

  void CreateScratch(Client* ctx, ScfsFileSystem* fs, int c) {
    Scratch& s = scratch_[c];
    const uint64_t k = s.next++;
    Bytes data = MakeContent(
        ctx->seed,
        ContentTag{static_cast<uint32_t>(c),
                   static_cast<uint32_t>(kFiles + k), 0},
        kSize);
    if (RunOp(ctx, kWrite, "create", kSize, 3, [&] {
          return WriteWhole(fs, ScratchFile(c, k), data);
        }) >= 0) {
      s.live.push_back(k);
    }
  }

  void DeleteScratch(Client* ctx, ScfsFileSystem* fs, int c) {
    Scratch& s = scratch_[c];
    if (s.live.empty()) {  // not reached: kScratchFiles covers a block
      CreateScratch(ctx, fs, c);
      return;
    }
    const uint64_t k = s.live.front();
    s.live.pop_front();
    RunOp(ctx, kMutate, "unlink", 0, 1,
          [&] { return fs->Unlink(ScratchFile(c, k)); });
  }

  void SharingProbe(Client* ctx, ScfsFileSystem* fs, ScfsFileSystem* probe,
                    int c, int f) {
    // Only this thread closes files on `fs`, so after a barrier the
    // uploader's charge grows by exactly this close's chain.
    (void)fs->SyncBarrier();
    const int64_t upload0 = fs->uploader().total_charged();
    if (WriteOwn(ctx, fs, c, f) < 0) {
      return;
    }
    (void)fs->SyncBarrier();
    const double upload_vms =
        static_cast<double>(fs->uploader().total_charged() - upload0) / 1000.0;
    // The probe's fetch always targets a version published a moment ago, so
    // it is a sharing sample only; the read class keeps the mix's reads.
    if (ReadOp(ctx, kShare, probe, File(c, f), kSize,
               static_cast<uint32_t>(c), static_cast<uint32_t>(f),
               versions_[c][f]) >= 0) {
      ctx->log.classes[kShare].vms.back() += upload_vms;
    }
  }

  std::vector<std::vector<uint64_t>> versions_;  // [client][file]
  std::vector<Scratch> scratch_;                  // [client]
};

// sharing: writer/reader pairs on a shared folder of 1 MiB files. Each
// round the non-blocking writer overwrites one file with fresh bytes, waits
// for its barrier and makes one private scratch-directory step; then the
// reader (metadata cache off) stats the file and reads it once. The sharing
// latency is the writer's background upload chain plus the reader's
// open+read (Figure 9's definition, without a poll cadence).
class Sharing : public Workload {
 public:
  static constexpr size_t kSize = 1024 * 1024;
  static constexpr int kPairs = 4;
  static constexpr int kFiles = 8;

  int agent_count() const override { return 2 * kPairs; }
  ScfsOptions AgentOptions(int agent) const override {
    ScfsOptions o;
    // Room for the pair's working set; the defaults (256 MiB in memory,
    // 4 GiB on disk per agent) would only hold stale versions.
    o.storage.memory_cache_bytes = 4 * kFiles * kSize;
    o.storage.disk_cache_bytes = 8 * kFiles * kSize;
    if (agent < kPairs) {
      o.mode = ScfsMode::kNonBlocking;
    } else {
      o.mode = ScfsMode::kBlocking;
      o.metadata_cache_ttl = 0;
    }
    return o;
  }
  Status Prepare(World* world, uint64_t seed) override {
    versions_.assign(kPairs, std::vector<uint64_t>(kFiles, 0));
    rounds_.assign(kPairs, 0);
    return ParallelFor(kPairs, [&](int p) -> Status {
      ScfsFileSystem* writer = world->agents[p];
      RETURN_IF_ERROR(writer->Mkdir(Dir(p)));
      RETURN_IF_ERROR(writer->Mkdir(Scratch(p)));
      for (int f = 0; f < kFiles; ++f) {
        RETURN_IF_ERROR(WriteWhole(
            writer, File(p, f),
            MakeContent(seed, ContentTag{static_cast<uint32_t>(p),
                                         static_cast<uint32_t>(f), 0},
                        kSize)));
      }
      RETURN_IF_ERROR(writer->SyncBarrier());
      // The reader syncs the folder once before the measured rounds.
      for (int f = 0; f < kFiles; ++f) {
        auto data = ReadWhole(world->agents[kPairs + p], File(p, f), kSize);
        if (!data.ok()) {
          return data.status();
        }
      }
      return scfs::OkStatus();
    });
  }
  int client_count() const override { return kPairs; }
  // 200 MiB per writer: garbage collection (W = 64 MiB) runs three times.
  uint64_t RealRounds() const override { return 200; }
  void RunClient(World* world, int p, Client* ctx,
                 const Budget& budget) override {
    ScfsFileSystem* writer = world->agents[p];
    ScfsFileSystem* reader = world->agents[kPairs + p];
    uint64_t scratch_step = 0;
    for (uint64_t round = 0; budget.More(round); ++round) {
      const int f = static_cast<int>(rounds_[p]++ % kFiles);
      const uint64_t version = ++versions_[p][f];
      const Bytes data = MakeContent(
          ctx->seed,
          ContentTag{static_cast<uint32_t>(p), static_cast<uint32_t>(f),
                     version},
          kSize);
      const int64_t upload0 = writer->uploader().total_charged();
      if (RunOp(ctx, kWrite, "write", kSize, 3, [&] {
            return WriteWhole(writer, File(p, f), data);
          }) < 0) {
        continue;
      }
      (void)writer->SyncBarrier();
      const double upload_vms =
          static_cast<double>(writer->uploader().total_charged() - upload0) /
          1000.0;
      ScratchStep(ctx, writer, Scratch(p), &scratch_step);
      StatOp(ctx, reader, File(p, f), kSize);
      const double read_vms =
          ReadOp(ctx, kRead, reader, File(p, f), kSize,
                 static_cast<uint32_t>(p), static_cast<uint32_t>(f), version);
      if (read_vms >= 0) {
        RecordShare(ctx, upload_vms, read_vms);
      }
    }
  }
  uint64_t LiveUserBytes() const override {
    return static_cast<uint64_t>(kPairs) * kFiles * kSize;
  }
  std::string UserOf(int agent) const override {
    return "pair" + std::to_string(agent % kPairs);
  }

 private:
  static std::string Dir(int p) { return "/shared" + std::to_string(p); }
  static std::string Scratch(int p) { return "/x" + std::to_string(p); }
  static std::string File(int p, int f) {
    return Dir(p) + "/f" + std::to_string(f);
  }

  std::vector<std::vector<uint64_t>> versions_;  // [pair][file]
  std::vector<uint64_t> rounds_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "largefile") {
    return std::make_unique<LargeFile>();
  }
  if (name == "metadata") {
    return std::make_unique<Metadata>();
  }
  if (name == "sharing") {
    return std::make_unique<Sharing>();
  }
  return nullptr;
}

// Creates the deployment, mounts every agent and prepares the workload.
Status BuildWorld(Environment* env, Axis axis, bool traced, uint64_t seed,
                  Workload* workload, World* world) {
  scfs::DeploymentOptions options;
  options.backend = scfs::ScfsBackendKind::kCoc;
  options.zero_latency = axis == Axis::kReal;
  options.seed = seed;
  world->deployment = scfs::Deployment::Create(env, options);
  if (traced) {
    world->spans = std::make_shared<SpanLog>();
    world->tallies = std::make_shared<LayerTallies>();
    world->coord = std::make_unique<TracedCoordination>(
        world->deployment->coord(), world->spans, world->tallies);
  }
  for (int a = 0; a < workload->agent_count(); ++a) {
    const std::string user = workload->UserOf(a);
    if (traced) {
      auto agent =
          MountTraced(world->deployment.get(), world->coord.get(),
                      world->spans, world->tallies, user,
                      workload->AgentOptions(a));
      if (!agent.ok()) {
        return agent.status();
      }
      world->agents.push_back((*agent)->fs.get());
      world->traced.push_back(std::move(*agent));
    } else {
      auto fs = world->deployment->Mount(user, workload->AgentOptions(a));
      if (!fs.ok()) {
        return fs.status();
      }
      world->agents.push_back(fs->get());
      world->plain.push_back(std::move(*fs));
    }
  }
  return workload->Prepare(world, seed);
}

scfs::SmrCounters SmrOf(World* world) {
  auto* replicated = world->deployment->replicated_coord();
  return replicated != nullptr ? replicated->cluster().counters()
                               : scfs::SmrCounters{};
}

void CollectAgentCounters(World* world, AgentCounters* out) {
  for (ScfsFileSystem* fs : world->agents) {
    out->meta_cache_hits += fs->metadata_service().cache_hits();
    out->meta_coord_reads += fs->metadata_service().coord_reads();
    out->data_memory_hits += fs->storage_service().memory_hits();
    out->data_disk_hits += fs->storage_service().disk_hits();
    out->data_cloud_reads += fs->storage_service().cloud_reads();
    out->anchor_read_retries += fs->storage_service().read_retries();
    out->upload_charged_us += fs->uploader().total_charged();
    out->lock_reclaim_hits += fs->lock_service().reclaim_hits();
  }
  for (const auto& agent : world->traced) {
    out->depsky_retries += agent->depsky->retries();
    out->depsky_deadline_expiries += agent->depsky->deadline_expiries();
    out->depsky_hedged_reads += agent->depsky->hedged_reads();
    out->arena_pool_hits += agent->depsky->arena_pool_hits();
    out->arena_pool_misses += agent->depsky->arena_pool_misses();
  }
}

void Subtract(AgentCounters* a, const AgentCounters& b) {
  a->meta_cache_hits -= b.meta_cache_hits;
  a->meta_coord_reads -= b.meta_coord_reads;
  a->data_memory_hits -= b.data_memory_hits;
  a->data_disk_hits -= b.data_disk_hits;
  a->data_cloud_reads -= b.data_cloud_reads;
  a->anchor_read_retries -= b.anchor_read_retries;
  a->upload_charged_us -= b.upload_charged_us;
  a->lock_reclaim_hits -= b.lock_reclaim_hits;
  a->depsky_retries -= b.depsky_retries;
  a->depsky_deadline_expiries -= b.depsky_deadline_expiries;
  a->depsky_hedged_reads -= b.depsky_hedged_reads;
  a->arena_pool_hits -= b.arena_pool_hits;
  a->arena_pool_misses -= b.arena_pool_misses;
}

void SnapshotTallies(const LayerTallies& t, LayerSnapshot* s) {
  const CallTally* all[8] = {&t.coord_reads, &t.coord_ordered, &t.blob_writes,
                             &t.blob_reads,  &t.blob_other,    &t.cloud_puts,
                             &t.cloud_gets,  &t.cloud_other};
  for (int i = 0; i < 8; ++i) {
    s->calls[i] = all[i]->calls.load();
    s->failed[i] = all[i]->failed.load();
    s->bytes[i] = all[i]->bytes.load();
    s->charged_us[i] = all[i]->charged_us.load();
    s->real_ns[i] = all[i]->real_ns.load();
    s->charged_in_ops_us[i] = all[i]->charged_in_ops_us.load();
  }
}

void SubtractSnapshot(LayerSnapshot* a, const LayerSnapshot& b) {
  for (int i = 0; i < 8; ++i) {
    a->calls[i] -= b.calls[i];
    a->failed[i] -= b.failed[i];
    a->bytes[i] -= b.bytes[i];
    a->charged_us[i] -= b.charged_us[i];
    a->real_ns[i] -= b.real_ns[i];
    a->charged_in_ops_us[i] -= b.charged_in_ops_us[i];
  }
}

scfs::UsageTotals UsageSum(const scfs::UsageTotals& a,
                           const scfs::UsageTotals& b) {
  scfs::UsageTotals d;
  d.outbound_cost = a.outbound_cost + b.outbound_cost;
  d.inbound_cost = a.inbound_cost + b.inbound_cost;
  d.request_cost = a.request_cost + b.request_cost;
  d.bytes_out = a.bytes_out + b.bytes_out;
  d.bytes_in = a.bytes_in + b.bytes_in;
  d.puts = a.puts + b.puts;
  d.gets = a.gets + b.gets;
  d.lists = a.lists + b.lists;
  d.deletes = a.deletes + b.deletes;
  return d;
}

scfs::UsageTotals UsageDelta(const scfs::UsageTotals& a,
                             const scfs::UsageTotals& b) {
  scfs::UsageTotals d;
  d.outbound_cost = a.outbound_cost - b.outbound_cost;
  d.inbound_cost = a.inbound_cost - b.inbound_cost;
  d.request_cost = a.request_cost - b.request_cost;
  d.bytes_out = a.bytes_out - b.bytes_out;
  d.bytes_in = a.bytes_in - b.bytes_in;
  d.puts = a.puts - b.puts;
  d.gets = a.gets - b.gets;
  d.lists = a.lists - b.lists;
  d.deletes = a.deletes - b.deletes;
  return d;
}

// Real seconds per modelled second in the modelled pass. Host time leaks
// into modelled time where the program charges elapsed time (see NOTES.md):
// at 1e-2 through 5e-2 the modelled metrics followed the host's load, and
// the DepSky shard-fetch charge dominated 64 MiB reads below 1e-1.
constexpr double kModelledScale = 1e-1;

// Set-ups made by the modelled pass; the last one is measured, and the
// median set-up time is reported. The modelled set-up (four SMR replicas,
// modelled cloud and disk latency) repeats far better than the real one,
// whose many small disk-cache files make it hostage to the host's disk.
constexpr int kModelledSetups = 3;

}  // namespace

bool KnownWorkload(const std::string& workload) {
  return MakeWorkload(workload) != nullptr;
}

size_t WorkloadFileSize(const std::string& workload) {
  if (workload == "largefile") {
    return LargeFile::kSize;
  }
  if (workload == "metadata") {
    return Metadata::kSize;
  }
  return Sharing::kSize;
}

PassOutput RunPass(const RunArgs& args, Axis axis, double seconds,
                   bool traced) {
  PassOutput out;
  out.axis = axis;
  out.traced = traced;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  std::unique_ptr<Environment> env;
  if (axis == Axis::kReal) {
    env = Environment::Instant();
  } else {
    out.time_scale = kModelledScale * args.scale_factor;
    env = Environment::Scaled(out.time_scale);
  }

  std::unique_ptr<World> world;
  const int setups = axis == Axis::kModelled ? kModelledSetups : 1;
  for (int setup = 0; setup < setups; ++setup) {
    world.reset();
    world = std::make_unique<World>();
    const double start = RealNow();
    Status built =
        BuildWorld(env.get(), axis, traced, args.seed, workload.get(),
                   world.get());
    out.setup_s.push_back(RealNow() - start);
    if (!built.ok()) {
      out.setup_ok = false;
      out.setup_error = built.ToString();
      return out;
    }
  }

  AgentCounters counters0;
  CollectAgentCounters(world.get(), &counters0);
  LayerSnapshot layers0;
  if (traced) {
    SnapshotTallies(*world->tallies, &layers0);
  }
  const scfs::SmrCounters smr0 = SmrOf(world.get());
  // First agent of each user, in mount order.
  std::map<std::string, ScfsFileSystem*> users;
  for (int a = 0; a < workload->agent_count(); ++a) {
    users.emplace(workload->UserOf(a), world->agents[a]);
  }
  auto usage_now = [&] {
    scfs::UsageTotals total;
    for (const auto& [user, fs] : users) {
      total = UsageSum(total, world->deployment->CloudUsage(user));
    }
    return total;
  };
  const scfs::UsageTotals usage0 = usage_now();

  const double cpu0 = ProcessCpuSeconds();
  const double wall0 = RealNow();
  Budget budget;
  budget.deadline = wall0 + seconds;
  if (axis == Axis::kReal) {
    budget.rounds = workload->RealRounds();
  }
  std::vector<Client> clients(static_cast<size_t>(workload->client_count()));
  std::vector<std::thread> threads;
  for (int c = 0; c < workload->client_count(); ++c) {
    Client& client = clients[static_cast<size_t>(c)];
    client.rng = scfs::Rng::ForStream(args.seed, static_cast<uint64_t>(c) + 1);
    client.spans = world->span_log();
    client.seed = args.seed;
    threads.emplace_back([&, c] {
      Environment::ResetThreadCharged();
      workload->RunClient(world.get(), c, &clients[static_cast<size_t>(c)],
                          budget);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // The measured ops' background uploads belong to the measured phase.
  for (ScfsFileSystem* fs : world->agents) {
    (void)fs->SyncBarrier();
  }
  out.measure_wall_s = RealNow() - wall0;
  out.measure_cpu_s = ProcessCpuSeconds() - cpu0;
  for (const Client& client : clients) {
    out.log.Merge(client.log);
  }
  out.usage = UsageDelta(usage_now(), usage0);
  out.closes = out.log.classes[kWrite].attempted;
  CollectAgentCounters(world.get(), &out.agents);
  Subtract(&out.agents, counters0);
  const scfs::SmrCounters smr1 = SmrOf(world.get());
  out.smr.ordered_commands = smr1.ordered_commands - smr0.ordered_commands;
  out.smr.proposed_instances =
      smr1.proposed_instances - smr0.proposed_instances;
  out.smr.proposed_requests = smr1.proposed_requests - smr0.proposed_requests;
  out.smr.fast_path_reads = smr1.fast_path_reads - smr0.fast_path_reads;
  out.smr.fast_path_fallbacks =
      smr1.fast_path_fallbacks - smr0.fast_path_fallbacks;
  if (traced) {
    SnapshotTallies(*world->tallies, &out.layers);
    SubtractSnapshot(&out.layers, layers0);
    const std::vector<Span> spans = world->spans->Snapshot();
    out.layers.self_s = SelfSeconds(spans);
    out.layers.spans = spans.size();
    out.layers.spans_dropped = world->spans->dropped();
    if (!args.spans_out.empty()) {
      const std::string path = args.spans_out + "." +
                               (axis == Axis::kReal ? "real" : "modelled") +
                               ".csv";
      (void)world->spans->WriteCsv(path);
    }
  }

  // Storage as the program leaves it after the fixed-work real pass (its
  // background uploads and garbage collection drained above); the stored
  // layout does not depend on latency.
  if (axis == Axis::kReal) {
    for (const auto& [user, fs] : users) {
      out.stored_bytes += world->deployment->StoredBytes(user);
    }
    out.live_user_bytes = workload->LiveUserBytes();
  }
  const double teardown0 = RealNow();
  world.reset();
  out.teardown_s = RealNow() - teardown0;
  return out;
}

}  // namespace perfbench
