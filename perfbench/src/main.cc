// scfs_perfbench: the repository's end-to-end benchmark program.
//
//   scfs_perfbench --workload <largefile|metadata|sharing> --seed <n>
//                  --seconds <s> --trace <0|1> [--scale-factor <x>]
//                  [--spans-out <path prefix>]
//
// Prints a human-readable report, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones, measured on a
// run whose agents are wired through the layer decorators of layers.h, next
// to an untraced run of the same length (their difference is the tracing
// overhead). --scale-factor multiplies the modelled pass's time scale; the
// time-scale invariance check runs it at 1 and 2.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "src/codec/reed_solomon.h"
#include "src/common/rng.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/secret_sharing.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string moves;  // per-layer: the end-to-end metric it should move
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// -- End-to-end metrics ---------------------------------------------------------

// The gated metrics. Modelled ones come from the modelled pass; storage
// overhead from the end of the real pass; memory from the whole process.
std::vector<Metric> EndToEnd(const PassOutput& real,
                             const PassOutput& modelled) {
  const auto& m = modelled.log.classes;
  const std::pair<const char*, double> vms[] = {
      {"write_p50_vms", Percentile(m[kWrite].vms, 50)},
      {"write_p90_vms", Percentile(m[kWrite].vms, 90)},
      {"read_p50_vms", Percentile(m[kRead].vms, 50)},
      {"read_p90_vms", Percentile(m[kRead].vms, 90)},
      {"lookup_p50_vms", Percentile(m[kLookup].vms, 50)},
      // The mean, not p90: a Stat that falls back from the fast read costs
      // about twice a fast one, and on metadata about a tenth of Stats fall
      // back, so p90 sat between the two modes and moved 10% between runs.
      // The mean counts every fallback in proportion.
      {"lookup_mean_vms", Mean(m[kLookup].vms)},
      {"mutate_p50_vms", Percentile(m[kMutate].vms, 50)},
      {"share_p50_vms", Percentile(m[kShare].vms, 50)},
      {"share_p90_vms", Percentile(m[kShare].vms, 90)},
  };
  std::vector<Metric> out = {{"setup_s", "s", Median(modelled.setup_s), ""}};
  for (const auto& [name, value] : vms) {
    out.push_back({name, "vms", value, ""});
  }
  out.push_back({"cloud_usd_per_kop", "USD",
                 Ratio(modelled.usage.TotalCost() * 1e3,
                       static_cast<double>(modelled.log.fsapi_calls)),
                 ""});
  out.push_back({"stored_bytes_per_user_byte", "ratio",
                 Ratio(static_cast<double>(real.stored_bytes),
                       static_cast<double>(real.live_user_bytes)),
                 ""});
  out.push_back({"peak_rss_mib", "MiB", PeakRssMib(), ""});
  return out;
}

// The real axis: host time on the instant, zero-latency deployment. Not
// gated end to end: on a shared host these move 10-17% (interquartile range
// over runs) with the host's load and disk, more than a regression bound
// can absorb; they are reported with the per-layer metrics instead.
// `size` is the workload's file size: every write and read moves one file.
std::vector<Metric> RealAxis(const PassOutput& real, size_t size) {
  const ClassTally& rw = real.log.classes[kWrite];
  const ClassTally& rr = real.log.classes[kRead];
  return {
      {"fsapi.write_mib_per_s", "MiB/s", Ratio(size / kMiB, Median(rw.real_s)),
       "- (real axis: the user's write speed)"},
      {"fsapi.read_mib_per_s", "MiB/s", Ratio(size / kMiB, Median(rr.real_s)),
       "- (real axis: the user's read speed)"},
      {"process.cpu_ms_per_op", "ms",
       Ratio(real.measure_cpu_s * 1e3,
             static_cast<double>(real.log.fsapi_calls)),
       "- (real axis: CPU per fsapi call)"},
      {"process.cores_busy", "ratio",
       Ratio(real.measure_cpu_s, real.measure_wall_s),
       "fsapi.write_mib_per_s, fsapi.read_mib_per_s"},
  };
}

// -- Kernels --------------------------------------------------------------------

// Calls `fn` on a buffer of `bytes` until ~80 ms have passed; returns calls/s.
double CallsPerSecond(const std::function<void()>& fn) {
  fn();  // warm
  int calls = 0;
  const double start = RealNow();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = RealNow() - start;
  } while (elapsed < 0.08);
  return calls / elapsed;
}

struct KernelRates {
  double sha1 = 0, sha256 = 0, chacha20 = 0, rs_encode = 0, rs_decode = 0;
  double secret_sharing_ops = 0;  // one Split + one Combine of a 32-byte key
};

KernelRates TimeKernels(size_t file_size) {
  // DepSky stripes files above 4 MiB into 4 MiB units; each kernel sees at
  // most one unit per call on the data plane (SHA-1 sees whole files, at the
  // same per-byte rate).
  KernelRates k;
  const size_t unit = std::min<size_t>(file_size, 4ull * 1024 * 1024);
  scfs::Rng rng(7);
  const scfs::Bytes data = rng.RandomBytes(unit);
  const double mib = unit / kMiB;
  volatile size_t sink = 0;
  k.sha1 = mib * CallsPerSecond([&] { sink += scfs::Sha1::Hash(data)[0]; });
  k.sha256 = mib * CallsPerSecond([&] { sink += scfs::Sha256::Hash(data)[0]; });
  const scfs::Bytes key = rng.RandomBytes(scfs::ChaCha20::kKeySize);
  const scfs::Bytes nonce = rng.RandomBytes(scfs::ChaCha20::kNonceSize);
  scfs::Bytes out(data.size());
  k.chacha20 = mib * CallsPerSecond([&] {
    scfs::ChaCha20::CryptInto(key, nonce, 0, data, scfs::ByteSpan(out));
    sink += out[0];
  });
  scfs::ErasureCodec codec(4, 2);
  k.rs_encode = mib * CallsPerSecond([&] {
    auto arena = codec.EncodeToArena(data);
    sink += arena.shard(2).size();
  });
  auto shards = codec.Encode(data);
  std::vector<std::optional<scfs::Bytes>> partial(4);
  partial[1] = (*shards)[1];  // one data shard lost: parity is used
  partial[2] = (*shards)[2];
  k.rs_decode = mib * CallsPerSecond([&] {
    auto decoded = codec.Decode(partial);
    sink += decoded.ok() ? (*decoded)[0] : 0;
  });
  k.secret_sharing_ops = CallsPerSecond([&] {
    auto split = scfs::SecretSharing::Split(key, 4, 2, rng);
    auto combined = scfs::SecretSharing::Combine(*split, 2);
    sink += combined.ok() ? (*combined)[0] : 0;
  });
  return k;
}

// Kernel seconds one whole-file write or read costs, from the bytes each
// kernel sees on the code path (src/scfs/file_system.cc close hash,
// src/depsky/depsky.cc write and fetch paths), n = 4 and k = 2:
//   write: SHA-1 over the file (content hash on close); ChaCha20 over the
//          file; Reed-Solomon parity over the file; SHA-256 over all four
//          stored objects (2x the file) plus, when striped, each unit's
//          plaintext (1x); one secret-sharing split.
//   read:  SHA-256 over the k fetched objects (1x); Reed-Solomon decode
//          (1x); ChaCha20 (1x); SHA-1 whole-file verify (1x); one combine
//          per version, or per unit when striped.
double KernelSecondsPerWrite(const KernelRates& k, size_t size) {
  const double mib = size / kMiB;
  const bool striped = size > 4ull * 1024 * 1024;
  return mib / k.sha1 + mib / k.chacha20 + mib / k.rs_encode +
         (striped ? 3.0 : 2.0) * mib / k.sha256 +
         0.5 / k.secret_sharing_ops;
}

double KernelSecondsPerRead(const KernelRates& k, size_t size) {
  const double mib = size / kMiB;
  const double units =
      size > 4ull * 1024 * 1024 ? std::ceil(size / (4.0 * kMiB)) : 1.0;
  return mib / k.sha256 + mib / k.rs_decode + mib / k.chacha20 +
         mib / k.sha1 + units * 0.5 / k.secret_sharing_ops;
}

// -- Per-layer metrics ------------------------------------------------------------

std::vector<Metric> PerLayer(const std::string& workload,
                             const PassOutput& real,
                             const PassOutput& traced_real,
                             const PassOutput& traced_modelled,
                             const std::vector<Metric>& untraced_e2e,
                             const std::vector<Metric>& traced_e2e) {
  const PassOutput& tr = traced_real;
  const PassOutput& tm = traced_modelled;
  const LayerSnapshot& lr = tr.layers;
  const LayerSnapshot& lm = tm.layers;
  const double m_calls = static_cast<double>(tm.log.fsapi_calls);
  const double m_reads = static_cast<double>(tm.log.classes[kRead].attempted);
  const AgentCounters& ac = tm.agents;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const PassOutput* p : {&tr, &tm}) {
    for (const ClassTally& c : p->log.classes) {
      attempted += c.attempted;
      failed += c.failed;
    }
  }
  double op_vms = 0.0;
  for (int c = 0; c < kClassCount; ++c) {
    if (c == kShare) {
      continue;  // composed from other spans' charges
    }
    for (double v : tm.log.classes[c].vms) {
      op_vms += v;
    }
  }
  const uint64_t m_coord_calls = lm.calls[kCoordReads] + lm.calls[kCoordOrdered];
  const uint64_t r_coord_calls = lr.calls[kCoordReads] + lr.calls[kCoordOrdered];
  const uint64_t m_blob_calls =
      lm.calls[kBlobWrites] + lm.calls[kBlobReads] + lm.calls[kBlobOther];
  const uint64_t r_cloud_calls =
      lr.calls[kCloudPuts] + lr.calls[kCloudGets] + lr.calls[kCloudOther];
  const double r_cloud_ns = static_cast<double>(
      lr.real_ns[kCloudPuts] + lr.real_ns[kCloudGets] + lr.real_ns[kCloudOther]);

  const KernelRates k = TimeKernels(WorkloadFileSize(workload));
  const size_t size = WorkloadFileSize(workload);
  const ClassTally& rw = real.log.classes[kWrite];
  const ClassTally& rr = real.log.classes[kRead];
  const double write_share =
      Ratio(KernelSecondsPerWrite(k, size), Median(rw.real_s));
  const double read_share =
      Ratio(KernelSecondsPerRead(k, size), Median(rr.real_s));
  double self_total = 0.0;
  for (double s : lr.self_s) {
    self_total += s;
  }

  std::vector<Metric> out = {
      {"fsapi.attempted_ops", "count", static_cast<double>(attempted), "all"},
      {"fsapi.lookup_p90_vms", "vms", Percentile(tm.log.classes[kLookup].vms, 90),
       "lookup_mean_vms"},
      {"fsapi.failed_ops", "count", static_cast<double>(failed), "all"},
      {"scfs.meta_cache_hit_ratio", "ratio",
       Ratio(ac.meta_cache_hits, ac.meta_cache_hits + ac.meta_coord_reads),
       "lookup_p50_vms, share_p50_vms"},
      {"scfs.data_cache_hits_per_read", "ratio",
       Ratio(ac.data_memory_hits + ac.data_disk_hits, m_reads), "read_p50_vms"},
      {"scfs.cloud_reads_per_read", "ratio", Ratio(ac.data_cloud_reads, m_reads),
       "read_p50_vms"},
      {"scfs.anchor_read_retries_per_read", "ratio",
       Ratio(ac.anchor_read_retries, m_reads), "share_p90_vms"},
      {"scfs.upload_vms_per_close", "vms",
       Ratio(ac.upload_charged_us / 1e3, tm.closes),
       "share_p50_vms (write_p50_vms unchanged)"},
      {"scfs.lock_reclaim_hits", "count",
       static_cast<double>(ac.lock_reclaim_hits), "write_p50_vms"},
      {"coord.calls_per_op", "ratio", Ratio(m_coord_calls, m_calls),
       "lookup_*, mutate_p50_vms"},
      {"coord.ordered_per_op", "ratio",
       Ratio(tm.smr.ordered_commands, m_calls), "mutate_p50_vms"},
      {"coord.fast_reads_per_op", "ratio",
       Ratio(tm.smr.fast_path_reads, m_calls), "lookup_p50_vms"},
      {"coord.fast_fallbacks_per_op", "ratio",
       Ratio(tm.smr.fast_path_fallbacks, m_calls), "lookup_mean_vms"},
      {"coord.vms_per_call", "vms",
       Ratio((lm.charged_us[kCoordReads] + lm.charged_us[kCoordOrdered]) / 1e3,
             m_coord_calls),
       "lookup_*, mutate_p50_vms"},
      {"coord.vms_share_of_op", "ratio",
       Ratio((lm.charged_in_ops_us[kCoordReads] +
              lm.charged_in_ops_us[kCoordOrdered]) / 1e3,
             op_vms),
       "lookup_*, mutate_p50_vms"},
      {"coord.batch_factor", "ratio",
       Ratio(tm.smr.proposed_requests, tm.smr.proposed_instances),
       "process.cpu_ms_per_op"},
      {"coord.real_ms_per_call", "ms",
       Ratio((lr.real_ns[kCoordReads] + lr.real_ns[kCoordOrdered]) / 1e6,
             r_coord_calls),
       "process.cpu_ms_per_op"},
      {"depsky.write_real_ms_per_mib", "ms",
       Ratio(lr.real_ns[kBlobWrites] / 1e6, lr.bytes[kBlobWrites] / kMiB),
       "fsapi.write_mib_per_s"},
      {"depsky.read_real_ms_per_mib", "ms",
       Ratio(lr.real_ns[kBlobReads] / 1e6, lr.bytes[kBlobReads] / kMiB),
       "fsapi.read_mib_per_s"},
      {"depsky.write_vms_per_call", "vms",
       Ratio(lm.charged_us[kBlobWrites] / 1e3, lm.calls[kBlobWrites]),
       "share_p50_vms"},
      {"depsky.read_vms_per_call", "vms",
       Ratio(lm.charged_us[kBlobReads] / 1e3, lm.calls[kBlobReads]),
       "read_p50_vms"},
      {"depsky.hedged_reads_per_read", "ratio",
       Ratio(ac.depsky_hedged_reads, lm.calls[kBlobReads]),
       "share_p90_vms, cloud_usd_per_kop"},
      {"depsky.retries_per_call", "ratio",
       Ratio(ac.depsky_retries, m_blob_calls),
       "share_p90_vms, cloud_usd_per_kop"},
      {"depsky.deadline_expiries", "count",
       static_cast<double>(ac.depsky_deadline_expiries), "share_p90_vms"},
      {"depsky.arena_pool_hit_ratio", "ratio",
       Ratio(tr.agents.arena_pool_hits,
             tr.agents.arena_pool_hits + tr.agents.arena_pool_misses),
       "peak_rss_mib"},
      {"cloud.puts_per_op", "ratio", Ratio(lm.calls[kCloudPuts], m_calls),
       "cloud_usd_per_kop"},
      {"cloud.gets_per_op", "ratio", Ratio(lm.calls[kCloudGets], m_calls),
       "cloud_usd_per_kop"},
      {"cloud.bytes_in_per_user_byte", "ratio",
       Ratio(lm.bytes[kCloudPuts], tm.log.classes[kWrite].bytes),
       "stored_bytes_per_user_byte, cloud_usd_per_kop"},
      {"cloud.bytes_out_per_user_byte", "ratio",
       Ratio(lm.bytes[kCloudGets], tm.log.classes[kRead].bytes),
       "cloud_usd_per_kop"},
      {"cloud.real_ms_per_request", "ms", Ratio(r_cloud_ns / 1e6, r_cloud_calls),
       "process.cpu_ms_per_op"},
      {"cloud.failed_requests", "count",
       static_cast<double>(lm.failed[kCloudPuts] + lm.failed[kCloudGets]),
       "share_p90_vms"},
      {"crypto.sha1_mib_per_s", "MiB/s", k.sha1,
       "fsapi.write_mib_per_s, fsapi.read_mib_per_s"},
      {"crypto.sha256_mib_per_s", "MiB/s", k.sha256,
       "fsapi.write_mib_per_s, fsapi.read_mib_per_s"},
      {"crypto.chacha20_mib_per_s", "MiB/s", k.chacha20,
       "fsapi.write_mib_per_s, fsapi.read_mib_per_s"},
      {"crypto.secret_sharing_ops_per_s", "1/s", k.secret_sharing_ops,
       "process.cpu_ms_per_op"},
      {"codec.rs_encode_mib_per_s", "MiB/s", k.rs_encode,
       "fsapi.write_mib_per_s"},
      {"codec.rs_decode_mib_per_s", "MiB/s", k.rs_decode,
       "fsapi.read_mib_per_s"},
      {"kernel.est_share_of_write_wall", "ratio", write_share,
       "fsapi.write_mib_per_s"},
      {"kernel.est_share_of_read_wall", "ratio", read_share,
       "fsapi.read_mib_per_s"},
  };
  for (const Metric& m : RealAxis(real, size)) {
    out.push_back(m);
  }
  for (int layer = 0; layer < kLayerCount; ++layer) {
    out.push_back({std::string("span.") + LayerName(layer) + "_self_share",
                   "ratio", Ratio(lr.self_s[layer], self_total),
                   layer == kCoord
                       ? "process.cpu_ms_per_op"
                       : "fsapi.write_mib_per_s, fsapi.read_mib_per_s"});
  }
  // Tracing overhead as the relative worsening of the traced run (positive:
  // the traced run did worse), on the metrics tracing could plausibly move.
  std::vector<Metric> untraced = RealAxis(real, size);
  std::vector<Metric> traced = RealAxis(traced_real, size);
  untraced.insert(untraced.end(), untraced_e2e.begin(), untraced_e2e.end());
  traced.insert(traced.end(), traced_e2e.begin(), traced_e2e.end());
  for (size_t i = 0; i < untraced.size(); ++i) {
    const std::string& name = untraced[i].name;
    const bool higher_better = name == "fsapi.write_mib_per_s" ||
                               name == "fsapi.read_mib_per_s";
    if (!higher_better && name != "process.cpu_ms_per_op" &&
        name != "write_p50_vms" && name != "read_p50_vms" &&
        name != "lookup_p50_vms") {
      continue;
    }
    const double worse = higher_better
                             ? Ratio(untraced[i].value, traced[i].value)
                             : Ratio(traced[i].value, untraced[i].value);
    const std::string bare = name.substr(name.find('.') + 1);
    out.push_back({"trace.overhead_" + bare, "ratio", worse - 1.0, name});
  }
  return out;
}

// -- Reporting ------------------------------------------------------------------

void PrintPass(const char* label, const PassOutput& p) {
  std::printf("\n[%s pass%s] %s, measured %.2f s wall, %.2f s CPU, %llu "
              "fsapi calls\n",
              label, p.traced ? ", traced" : "",
              p.axis == Axis::kReal
                  ? "instant clock, zero-latency deployment"
                  : "scaled clock, default kCoc deployment",
              p.measure_wall_s, p.measure_cpu_s,
              static_cast<unsigned long long>(p.log.fsapi_calls));
  if (p.axis == Axis::kModelled) {
    std::printf("  time scale %.4g real s per virtual s\n", p.time_scale);
  }
  std::printf("  set-ups (s):");
  for (double s : p.setup_s) {
    std::printf(" %.3f", s);
  }
  std::printf("; teardown %.3f s", p.teardown_s);
  std::printf("\n  %-7s %9s %7s %9s %9s %9s %9s %9s %10s %11s\n", "class",
              "attempted", "failed", "p10 vms", "p25 vms", "p50 vms",
              "p75 vms", "p90 vms", "MiB", "p50 real ms");
  for (int c = 0; c < kClassCount; ++c) {
    const ClassTally& t = p.log.classes[c];
    std::printf(
        "  %-7s %9llu %7llu %9.2f %9.2f %9.2f %9.2f %9.2f %10.1f %11.3f\n",
        OpClassName(c), static_cast<unsigned long long>(t.attempted),
        static_cast<unsigned long long>(t.failed), Percentile(t.vms, 10),
        Percentile(t.vms, 25), Percentile(t.vms, 50), Percentile(t.vms, 75),
        Percentile(t.vms, 90), t.bytes / kMiB, Median(t.real_s) * 1e3);
  }
  for (const auto& [key, count] : p.log.failures) {
    std::printf("  failure %s x%llu\n", key.c_str(),
                static_cast<unsigned long long>(count));
  }
  if (p.log.content_mismatches > 0) {
    std::printf("  CONTENT MISMATCHES: %llu\n",
                static_cast<unsigned long long>(p.log.content_mismatches));
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

int Usage() {
  std::fprintf(stderr,
               "usage: scfs_perfbench --workload <largefile|metadata|sharing> "
               "--seed <n> --seconds <s> --trace <0|1> [--scale-factor <x>] "
               "[--spans-out <prefix>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scale-factor") {
      args.scale_factor = std::atof(value.c_str());
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !KnownWorkload(args.workload) || args.seconds <= 0 ||
      args.scale_factor <= 0) {
    return Usage();
  }

  // The real pass does a fixed amount of work (capped at kRealCap of the
  // time); the modelled pass measures for the rest. A traced run makes both
  // passes untraced and then again through the decorators, each pair in
  // half of the time.
  constexpr double kRealCap = 0.6;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<PassOutput> passes;
  for (bool traced : {false, true}) {
    if (traced && !args.trace) {
      break;
    }
    passes.push_back(RunPass(args, Axis::kReal, budget * kRealCap, traced));
    const double rest =
        std::max(budget - passes.back().measure_wall_s, budget * (1 - kRealCap));
    passes.push_back(RunPass(args, Axis::kModelled, rest, traced));
  }

  std::printf("scfs_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const char* labels[] = {"real", "modelled", "real", "modelled"};
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassOutput& p = passes[i];
    if (!p.setup_ok) {
      std::fprintf(stderr, "set-up of the %s pass failed: %s\n", labels[i],
                   p.setup_error.c_str());
      return 1;
    }
    PrintPass(labels[i], p);
    for (const ClassTally& c : p.log.classes) {
      attempted += c.attempted;
      failed += c.failed;
    }
    correct = correct && p.log.content_mismatches == 0;
  }

  const std::vector<Metric> e2e = EndToEnd(passes[0], passes[1]);
  std::vector<Metric> reported = e2e;
  std::printf("\nEnd-to-end metrics (vms: modelled ms charged to the caller)\n");
  for (const Metric& m : e2e) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!(m.value > 0.0)) {
      std::printf("  ^ no samples: the workload did not complete this op "
                  "class\n");
      correct = false;
    }
  }
  std::printf("\nReal axis (host time; reported, not gated)\n");
  for (const Metric& m :
       RealAxis(passes[0], WorkloadFileSize(args.workload))) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace) {
    const std::vector<Metric> traced_e2e = EndToEnd(passes[2], passes[3]);
    std::printf("\nTracing overhead (traced vs untraced run of equal length)\n");
    const size_t size = WorkloadFileSize(args.workload);
    std::vector<Metric> untraced = RealAxis(passes[0], size);
    std::vector<Metric> traced = RealAxis(passes[2], size);
    untraced.insert(untraced.end(), e2e.begin(), e2e.end());
    traced.insert(traced.end(), traced_e2e.begin(), traced_e2e.end());
    for (size_t i = 0; i < untraced.size(); ++i) {
      std::printf("  %-28s untraced %12.6g traced %12.6g diff %+12.6g %s\n",
                  untraced[i].name.c_str(), untraced[i].value,
                  traced[i].value, traced[i].value - untraced[i].value,
                  untraced[i].unit.c_str());
    }
    reported = PerLayer(args.workload, passes[0], passes[2], passes[3], e2e,
                        traced_e2e);
    std::printf("\nSelf time per layer, traced real pass (s):");
    for (int layer = 0; layer < kLayerCount; ++layer) {
      std::printf(" %s %.3f", LayerName(layer), passes[2].layers.self_s[layer]);
    }
    std::printf("\n  spans kept: %llu real + %llu modelled, dropped %llu\n",
                static_cast<unsigned long long>(passes[2].layers.spans),
                static_cast<unsigned long long>(passes[3].layers.spans),
                static_cast<unsigned long long>(
                    passes[2].layers.spans_dropped +
                    passes[3].layers.spans_dropped));
    std::printf("\nPer-layer metrics (-> end-to-end metric each should move)\n");
    for (const Metric& m : reported) {
      std::printf("  %-34s %14.6g %-6s -> %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.moves.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + reported[i].name + "\": {\"value\": " +
            JsonNumber(reported[i].value) + ", \"unit\": \"" +
            reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("\n%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
