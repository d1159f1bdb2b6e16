// Figure 9 reproduction: file sharing latency — the time between client A
// closing a file written into a shared folder and client B having it — for
// SCFS-{CoC,AWS}-{B,NB} and a Dropbox-style synchronization service, at
// 256 KB / 1 MB / 4 MB / 16 MB (50th and 90th percentiles).

#include <map>

#include "bench/harness.h"
#include "bench/scenario/latency_recorder.h"
#include "src/baselines/dropbox_sim.h"
#include "src/crypto/sha1.h"
#include "src/scfs/deployment.h"

namespace scfs {
namespace {

constexpr int kTrials = 8;
const size_t kSizes[] = {256 * 1024, 1024 * 1024, 4 * 1024 * 1024,
                         16 * 1024 * 1024};

// Writer A writes + closes into a shared folder; the latency until reader B
// has the file is composed from modelled (charged) time:
//   blocking      the upload finished before close returned, so the latency
//                 is B's fetch (metadata read + download);
//   non-blocking  close returned immediately; the latency is the in-flight
//                 background upload (+ metadata update + unlock) plus B's
//                 fetch once it is published.
LatencyRecorder MeasureScfs(Environment* env, ScfsBackendKind backend,
                            ScfsMode mode, size_t size) {
  DeploymentOptions options;
  options.backend = backend;
  auto deployment = Deployment::Create(env, options);
  ScfsOptions writer_options;
  writer_options.mode = mode;
  auto writer = deployment->Mount("alice", writer_options);
  ScfsOptions reader_options;
  reader_options.mode = ScfsMode::kBlocking;
  // B checks for fresh metadata on every poll.
  reader_options.metadata_cache_ttl = 0;
  auto reader = deployment->Mount("alice", reader_options);
  if (!writer.ok() || !reader.ok()) {
    return {};
  }

  LatencyRecorder latencies;
  Rng rng(static_cast<uint64_t>(size) * 31 + (mode == ScfsMode::kBlocking));
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::string path = "/shared-" + std::to_string(size) + "-" +
                             std::to_string(trial);
    Bytes data = rng.RandomBytes(size);  // random: defeats deduplication
    VirtualDuration upload = 0;
    if (mode == ScfsMode::kNonBlocking) {
      VirtualDuration charged0 = (*writer)->uploader().total_charged();
      if (!(*writer)->WriteFile(path, data).ok()) {
        continue;
      }
      (*writer)->DrainBackground();
      upload = (*writer)->uploader().total_charged() - charged0;
    } else {
      if (!(*writer)->WriteFile(path, data).ok()) {
        continue;
      }
    }
    // B detects and fetches the file.
    Environment::ResetThreadCharged();
    for (;;) {
      auto read = (*reader)->ReadFile(path);
      if (read.ok() && *read == data) {
        break;
      }
      env->Sleep(100 * kMillisecond);  // B's retry cadence
    }
    latencies.Record(
        static_cast<uint64_t>(upload + Environment::ThreadCharged()));
  }
  (*writer)->DrainBackground();
  (void)(*writer)->Unmount();
  (void)(*reader)->Unmount();
  return latencies;
}

LatencyRecorder MeasureDropbox(Environment* env, size_t size) {
  DropboxSim dropbox(env, {}, static_cast<uint64_t>(size));
  LatencyRecorder latencies;
  for (int trial = 0; trial < kTrials; ++trial) {
    Environment::ResetThreadCharged();
    (void)dropbox.ShareFile(size);
    latencies.Record(static_cast<uint64_t>(Environment::ThreadCharged()));
  }
  return latencies;
}

void Run() {
  auto env = Environment::Scaled(BenchTimeScale());

  struct System {
    std::string name;
    std::function<LatencyRecorder(size_t)> measure;
  };
  std::vector<System> systems = {
      {"CoC-B",
       [&](size_t s) {
         return MeasureScfs(env.get(), ScfsBackendKind::kCoc,
                            ScfsMode::kBlocking, s);
       }},
      {"CoC-NB",
       [&](size_t s) {
         return MeasureScfs(env.get(), ScfsBackendKind::kCoc,
                            ScfsMode::kNonBlocking, s);
       }},
      {"AWS-B",
       [&](size_t s) {
         return MeasureScfs(env.get(), ScfsBackendKind::kAws,
                            ScfsMode::kBlocking, s);
       }},
      {"AWS-NB",
       [&](size_t s) {
         return MeasureScfs(env.get(), ScfsBackendKind::kAws,
                            ScfsMode::kNonBlocking, s);
       }},
      {"Dropbox",
       [&](size_t s) { return MeasureDropbox(env.get(), s); }},
  };

  PrintHeader("Figure 9: sharing latency, 50th/90th percentile (virtual s)");
  std::vector<int> widths = {10, 16, 16, 16, 16};
  PrintRow({"system", "256KB", "1MB", "4MB", "16MB"}, widths);
  for (const auto& system : systems) {
    std::vector<std::string> cells = {system.name};
    for (size_t size : kSizes) {
      const LatencyRecorder latencies = system.measure(size);
      char buffer[48];
      std::snprintf(buffer, sizeof(buffer), "%s / %s",
                    FormatSeconds(latencies.PercentileMs(50) / 1e3).c_str(),
                    FormatSeconds(latencies.PercentileMs(90) / 1e3).c_str());
      cells.push_back(buffer);
    }
    PrintRow(cells, widths);
  }
  std::printf(
      "\nPaper shape check: B variants much faster than NB (upload already\n"
      "done when close returns); both far below Dropbox, whose monitor+poll\n"
      "floor dominates small files and whose shaped upload dominates 16MB.\n");
}

}  // namespace
}  // namespace scfs

int main() {
  scfs::Run();
  return 0;
}
