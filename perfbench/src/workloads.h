// The benchmark's workloads and the two passes every run makes over them.
//
// Every workload is driven through fsapi::FileSystem on SCFS agents mounted
// on a Deployment, and every run measures it on two separate axes:
//   real pass      Environment::Instant() and a zero-latency kCoc deployment
//                  (DepSky over four clouds, secret sharing, one local
//                  coordination server). Nothing sleeps, so host wall time
//                  and CPU time are pure implementation cost.
//   modelled pass  A scaled clock and the default kCoc deployment (4-replica
//                  BFT SMR coordination, modelled cloud and disk latency).
//                  Latencies are the modelled time charged to the calling
//                  thread (Environment::ThreadCharged), never clock deltas.
// The two axes are reported separately and never added together.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/cloud/cost_meter.h"
#include "src/coord/smr.h"
#include "layers.h"

namespace perfbench {

enum OpClass : int { kWrite = 0, kRead, kLookup, kMutate, kShare, kClassCount };
const char* OpClassName(int op_class);

struct ClassTally {
  std::vector<double> vms;  // modelled ms charged per op
  std::vector<double> real_s;  // host wall seconds per op
  uint64_t bytes = 0;       // user bytes moved by successful ops
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// What one client thread observed; merged after the measured phase.
struct ClientLog {
  std::array<ClassTally, kClassCount> classes;
  std::map<std::string, uint64_t> failures;  // "<class>:<ERROR_CODE>" -> count
  uint64_t fsapi_calls = 0;        // individual fsapi calls completed
  uint64_t content_mismatches = 0;

  void Merge(const ClientLog& other);
};

enum class Axis { kReal, kModelled };

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale_factor = 1.0;  // multiplies the modelled pass's time scale
  std::string spans_out;      // traced runs: where to write the spans
};

// Counters read off the agents and the coordination plane after a pass.
struct AgentCounters {
  uint64_t meta_cache_hits = 0;
  uint64_t meta_coord_reads = 0;
  uint64_t data_memory_hits = 0;
  uint64_t data_disk_hits = 0;
  uint64_t data_cloud_reads = 0;
  uint64_t anchor_read_retries = 0;
  int64_t upload_charged_us = 0;
  uint64_t lock_reclaim_hits = 0;
  uint64_t depsky_retries = 0;
  uint64_t depsky_deadline_expiries = 0;
  uint64_t depsky_hedged_reads = 0;
  uint64_t arena_pool_hits = 0;
  uint64_t arena_pool_misses = 0;
};

struct LayerSnapshot {
  uint64_t calls[8] = {};  // coord_reads, coord_ordered, blob_writes,
  uint64_t failed[8] = {};  // blob_reads, blob_other, cloud_puts,
  uint64_t bytes[8] = {};   // cloud_gets, cloud_other
  int64_t charged_us[8] = {};
  int64_t real_ns[8] = {};
  int64_t charged_in_ops_us[8] = {};
  std::array<double, kLayerCount> self_s{};
  uint64_t spans = 0;
  uint64_t spans_dropped = 0;
};
enum TallyIndex : int {
  kCoordReads = 0,
  kCoordOrdered,
  kBlobWrites,
  kBlobReads,
  kBlobOther,
  kCloudPuts,
  kCloudGets,
  kCloudOther,
};

struct PassOutput {
  Axis axis = Axis::kReal;
  bool traced = false;
  bool setup_ok = true;
  std::string setup_error;
  double time_scale = 0.0;           // modelled pass only
  std::vector<double> setup_s;       // one per set-up made
  double measure_wall_s = 0.0;       // measured phase, incl. the final drain
  double measure_cpu_s = 0.0;
  double teardown_s = 0.0;           // host time to unmount and destroy
  ClientLog log;
  scfs::UsageTotals usage;           // cloud usage during the measured phase
  uint64_t stored_bytes = 0;         // real pass: after the measured phase
  uint64_t live_user_bytes = 0;      // latest version of every file
  uint64_t closes = 0;               // write ops that reached a close
  AgentCounters agents;
  scfs::SmrCounters smr;             // measured phase (modelled pass only)
  LayerSnapshot layers;
};

PassOutput RunPass(const RunArgs& args, Axis axis, double seconds,
                   bool traced);

// The size of the files the workload writes (kernel timing uses it).
size_t WorkloadFileSize(const std::string& workload);
bool KnownWorkload(const std::string& workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
