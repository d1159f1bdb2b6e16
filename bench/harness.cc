#include "bench/harness.h"

#include <algorithm>
#include <cstdlib>
#include <cmath>

#include "src/scfs/deployment.h"

namespace scfs {

double BenchTimeScale(double default_scale) {
  const char* override_scale = std::getenv("SCFS_TIME_SCALE");
  if (override_scale == nullptr || *override_scale == '\0') {
    return default_scale;
  }
  char* end = nullptr;
  double scale = std::strtod(override_scale, &end);
  if (end == override_scale || *end != '\0' || !std::isfinite(scale) ||
      scale <= 0) {
    std::fprintf(stderr,
                 "error: SCFS_TIME_SCALE='%s' is not a positive number; "
                 "refusing to run at an unintended time scale\n",
                 override_scale);
    std::exit(2);
  }
  return scale;
}

double BenchTimeScale() {
  return BenchTimeScale(2e-4);  // 1 virtual second = 0.2 real milliseconds
}

namespace {
constexpr size_t kChunk = 128 * 1024;

Bytes MakePayload(size_t size, uint8_t fill) { return Bytes(size, fill); }
}  // namespace

MicroResult MicroSequentialRead(Environment* env, FileSystem* fs,
                                size_t file_size) {
  MicroResult result;
  if (!fs->WriteFile("/seqr", MakePayload(file_size, 1)).ok()) {
    result.ok = false;
    return result;
  }
  auto handle = fs->Open("/seqr", kOpenRead);
  if (!handle.ok()) {
    result.ok = false;
    return result;
  }
  Environment::ResetThreadCharged();
  size_t offset = 0;
  while (offset < file_size) {
    auto chunk = fs->Read(*handle, offset, kChunk);
    if (!chunk.ok() || chunk->empty()) {
      result.ok = false;
      break;
    }
    offset += chunk->size();
  }
  result.seconds = ToSeconds(Environment::ThreadCharged());
  (void)fs->Close(*handle);
  return result;
}

MicroResult MicroSequentialWrite(Environment* env, FileSystem* fs,
                                 size_t file_size) {
  MicroResult result;
  auto handle = fs->Open("/seqw", kOpenWrite | kOpenCreate | kOpenTruncate);
  if (!handle.ok()) {
    result.ok = false;
    return result;
  }
  Bytes chunk = MakePayload(kChunk, 2);
  Environment::ResetThreadCharged();
  for (size_t offset = 0; offset < file_size; offset += kChunk) {
    if (!fs->Write(*handle, offset, chunk).ok()) {
      result.ok = false;
      break;
    }
  }
  result.seconds = ToSeconds(Environment::ThreadCharged());
  (void)fs->Close(*handle);
  (void)env;
  return result;
}

MicroResult MicroRandomRead(Environment* env, FileSystem* fs, size_t file_size,
                            int ops, int report_ops) {
  MicroResult result;
  if (!fs->WriteFile("/randr", MakePayload(file_size, 3)).ok()) {
    result.ok = false;
    return result;
  }
  auto handle = fs->Open("/randr", kOpenRead);
  if (!handle.ok()) {
    result.ok = false;
    return result;
  }
  Rng rng(11);
  Environment::ResetThreadCharged();
  for (int i = 0; i < ops; ++i) {
    uint64_t offset = rng.UniformU64(file_size - 4096);
    if (!fs->Read(*handle, offset, 4096).ok()) {
      result.ok = false;
      break;
    }
  }
  result.seconds = ToSeconds(Environment::ThreadCharged()) *
                   (static_cast<double>(report_ops) / ops);
  (void)fs->Close(*handle);
  (void)env;
  return result;
}

MicroResult MicroRandomWrite(Environment* env, FileSystem* fs,
                             size_t file_size, int ops, int report_ops) {
  MicroResult result;
  if (!fs->WriteFile("/randw", MakePayload(file_size, 4)).ok()) {
    result.ok = false;
    return result;
  }
  auto handle = fs->Open("/randw", kOpenWrite);
  if (!handle.ok()) {
    result.ok = false;
    return result;
  }
  Rng rng(12);
  Bytes block = MakePayload(4096, 5);
  Environment::ResetThreadCharged();
  for (int i = 0; i < ops; ++i) {
    uint64_t offset = rng.UniformU64(file_size - 4096);
    if (!fs->Write(*handle, offset, block).ok()) {
      result.ok = false;
      break;
    }
  }
  result.seconds = ToSeconds(Environment::ThreadCharged()) *
                   (static_cast<double>(report_ops) / ops);
  (void)fs->Close(*handle);
  (void)env;
  return result;
}

MicroResult MicroCreateFiles(Environment* env, FileSystem* fs, int count,
                             size_t size, const std::string& dir) {
  MicroResult result;
  if (!fs->Mkdir(dir).ok()) {
    result.ok = false;
    return result;
  }
  Bytes payload = MakePayload(size, 6);
  (void)env;
  Environment::ResetThreadCharged();
  for (int i = 0; i < count; ++i) {
    if (!fs->WriteFile(dir + "/f" + std::to_string(i), payload).ok()) {
      result.ok = false;
      break;
    }
  }
  result.seconds = ToSeconds(Environment::ThreadCharged());
  return result;
}

MicroResult MicroCopyFiles(Environment* env, FileSystem* fs, int count,
                           size_t size) {
  MicroResult result;
  if (!fs->Mkdir("/cpsrc").ok() || !fs->Mkdir("/cpdst").ok()) {
    result.ok = false;
    return result;
  }
  Bytes payload = MakePayload(size, 7);
  for (int i = 0; i < count; ++i) {
    if (!fs->WriteFile("/cpsrc/f" + std::to_string(i), payload).ok()) {
      result.ok = false;
      return result;
    }
  }
  (void)env;
  Environment::ResetThreadCharged();
  for (int i = 0; i < count; ++i) {
    auto data = fs->ReadFile("/cpsrc/f" + std::to_string(i));
    if (!data.ok() ||
        !fs->WriteFile("/cpdst/f" + std::to_string(i), *data).ok()) {
      result.ok = false;
      break;
    }
  }
  result.seconds = ToSeconds(Environment::ThreadCharged());
  return result;
}

// ---------------------------------------------------------------------------
// Figure 7 trace.
// ---------------------------------------------------------------------------

namespace {
Status WriteWholeFile(FileSystem* fs, const std::string& path,
                      const Bytes& data) {
  return fs->WriteFile(path, data);
}

Result<Bytes> ReadWholeFile(FileSystem* fs, const std::string& path) {
  return fs->ReadFile(path);
}
}  // namespace

FileSyncResult RunFileSyncBenchmark(Environment* env, FileSystem* fs,
                                    FileSystem* lock_fs, size_t file_size,
                                    int iterations) {
  FileSyncResult result;
  Bytes document = MakePayload(file_size, 8);
  Bytes lock_payload = MakePayload(512, 9);

  for (int iteration = 0; iteration < iterations && result.ok; ++iteration) {
    const std::string f = "/doc" + std::to_string(iteration) + ".odt";
    const std::string lf1 = "/.lock1-" + std::to_string(iteration);
    const std::string lf2 = "/.lock2-" + std::to_string(iteration);
    if (!fs->WriteFile(f, document).ok()) {
      result.ok = false;
      break;
    }

    // -- Open action: open(f,rw), read(f), owc(lf1), orc(f), orc(lf1).
    Environment::ResetThreadCharged();
    auto fh = fs->Open(f, kOpenRead | kOpenWrite);
    if (!fh.ok()) {
      result.ok = false;
      break;
    }
    (void)fs->Read(*fh, 0, file_size);
    result.ok = result.ok && WriteWholeFile(lock_fs, lf1, lock_payload).ok();
    result.ok = result.ok && ReadWholeFile(fs, f).ok();
    result.ok = result.ok && ReadWholeFile(lock_fs, lf1).ok();
    result.open_s += ToSeconds(Environment::ThreadCharged());

    // -- Save action (Figure 7): orc(f), close(f), orc(lf1), delete(lf1),
    // owc(lf2), orc(lf2), truncate+rewrite(f), ofsc(f), orc(f), open(f,rw).
    Environment::ResetThreadCharged();
    result.ok = result.ok && ReadWholeFile(fs, f).ok();
    result.ok = result.ok && fs->Close(*fh).ok();
    result.ok = result.ok && ReadWholeFile(lock_fs, lf1).ok();
    result.ok = result.ok && lock_fs->Unlink(lf1).ok();
    result.ok = result.ok && WriteWholeFile(lock_fs, lf2, lock_payload).ok();
    result.ok = result.ok && ReadWholeFile(lock_fs, lf2).ok();
    // truncate(f,0) + open-write-close(f): one open with O_TRUNC.
    {
      auto wh = fs->Open(f, kOpenWrite | kOpenTruncate);
      result.ok = result.ok && wh.ok();
      if (wh.ok()) {
        result.ok = result.ok && fs->Write(*wh, 0, document).ok();
        result.ok = result.ok && fs->Close(*wh).ok();
      }
    }
    // open-fsync-close(f).
    {
      auto sh = fs->Open(f, kOpenWrite);
      result.ok = result.ok && sh.ok();
      if (sh.ok()) {
        result.ok = result.ok && fs->Fsync(*sh).ok();
        result.ok = result.ok && fs->Close(*sh).ok();
      }
    }
    result.ok = result.ok && ReadWholeFile(fs, f).ok();
    fh = fs->Open(f, kOpenRead | kOpenWrite);
    result.ok = result.ok && fh.ok();
    result.save_s += ToSeconds(Environment::ThreadCharged());

    // -- Close action: close(f), orc(lf2), delete(lf2).
    Environment::ResetThreadCharged();
    if (fh.ok()) {
      result.ok = result.ok && fs->Close(*fh).ok();
    }
    result.ok = result.ok && ReadWholeFile(lock_fs, lf2).ok();
    result.ok = result.ok && lock_fs->Unlink(lf2).ok();
    result.close_s += ToSeconds(Environment::ThreadCharged());
  }

  if (iterations > 0) {
    result.open_s /= iterations;
    result.save_s /= iterations;
    result.close_s /= iterations;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Machine-readable results.
// ---------------------------------------------------------------------------

void BenchJsonWriter::Add(const std::string& name, double value,
                          const std::string& unit) {
  entries_.push_back(Entry{name, value, unit});
}

std::string BenchJsonWriter::ToJson() const {
  std::string out = "[\n";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.3f", entries_[i].value);
    out += "  {\"name\": \"" + entries_[i].name + "\", \"value\": " + value +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
    out += (i + 1 < entries_.size()) ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

bool BenchJsonWriter::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return false;
  }
  const std::string json = ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// ---------------------------------------------------------------------------
// Statistics & printing.
// ---------------------------------------------------------------------------

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    int width = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s", width, cells[i].c_str());
  }
  std::printf("\n");
}

void AccumulateCoordCounters(Deployment* deployment, SmrCounters* into) {
  if (deployment->replicated_coord() != nullptr) {
    *into += deployment->replicated_coord()->cluster().counters();
  }
  if (deployment->partitioned_coord() != nullptr) {
    *into += deployment->partitioned_coord()->counters();
  }
}

void PrintCoordCounters(const std::string& label,
                        const SmrCounters& counters) {
  std::printf(
      "\n%s: %llu ordered commands in %llu instances (%.1f reqs/instance), "
      "%llu fast-path reads, %llu fallbacks\n",
      label.c_str(),
      static_cast<unsigned long long>(counters.ordered_commands),
      static_cast<unsigned long long>(counters.proposed_instances),
      counters.proposed_instances > 0
          ? static_cast<double>(counters.proposed_requests) /
                counters.proposed_instances
          : 0.0,
      static_cast<unsigned long long>(counters.fast_path_reads),
      static_cast<unsigned long long>(counters.fast_path_fallbacks));
}

std::string FormatSeconds(double seconds) {
  char buffer[32];
  if (seconds < 0.005) {
    std::snprintf(buffer, sizeof(buffer), "%.4f", seconds);
  } else if (seconds < 10) {
    std::snprintf(buffer, sizeof(buffer), "%.2f", seconds);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.0f", seconds);
  }
  return buffer;
}

}  // namespace scfs
