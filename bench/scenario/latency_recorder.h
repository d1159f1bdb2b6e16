// LatencyRecorder: HDR-histogram-style log-bucketed latency accounting.
//
// An open-loop sweep records millions of samples per rate point; sorting
// them for percentiles would cost O(n log n) time and O(n) memory per op
// class per worker. The recorder instead keeps a fixed ~30 KB bucket array
// with bounded relative error:
//
//   - values below 2^7 = 128 land in 128 exact one-microsecond buckets;
//   - each octave above is split into 64 sub-buckets, so the bucket width
//     is always <= value/64 — relative error <= 1/64 ~ 1.6%.
//
// Percentiles report the bucket's *upper* edge (pessimistic, never
// understates a tail). Recorders merge by bucket-wise addition, which is
// what lets each fleet worker record contention-free into its own recorder
// and the fleet fold them at the end.

#ifndef SCFS_BENCH_SCENARIO_LATENCY_RECORDER_H_
#define SCFS_BENCH_SCENARIO_LATENCY_RECORDER_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace scfs {

class LatencyRecorder {
 public:
  // Exact buckets cover [0, 2^kExactBits); octaves above get kSubBuckets
  // sub-buckets each.
  static constexpr int kExactBits = 7;
  static constexpr size_t kExactBuckets = 1u << kExactBits;        // 128
  static constexpr size_t kSubBuckets = 1u << (kExactBits - 1);    // 64
  // Octaves [2^7, 2^8) .. [2^63, 2^64): 64 - 7 = 57 of them.
  static constexpr size_t kBucketCount =
      kExactBuckets + (64 - kExactBits) * kSubBuckets;

  void Record(uint64_t value_us);
  void Merge(const LatencyRecorder& other);

  uint64_t count() const { return count_; }
  uint64_t max_us() const { return max_us_; }
  // Exact mean (sum and count are kept exactly; only percentiles are
  // bucketed). 0 on an empty recorder.
  double MeanUs() const;
  // p in [0, 100]. Returns the upper edge of the bucket holding the
  // ceil(p/100 * count)-th smallest sample (exact max for p = 100 via the
  // tracked maximum); 0 on an empty recorder.
  uint64_t PercentileUs(double p) const;
  double PercentileMs(double p) const { return PercentileUs(p) / 1e3; }
  double MeanMs() const { return MeanUs() / 1e3; }

  // Exposed for the accuracy tests.
  static size_t BucketIndex(uint64_t value_us);
  static uint64_t BucketUpperEdge(size_t index);

 private:
  std::array<uint64_t, kBucketCount> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_us_ = 0;
  uint64_t max_us_ = 0;
};

}  // namespace scfs

#endif  // SCFS_BENCH_SCENARIO_LATENCY_RECORDER_H_
