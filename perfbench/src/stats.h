// Small measurement helpers shared by the benchmark program: order
// statistics, the real clock, and process-wide CPU and memory readings.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (p in [0, 100]) of `values`; 0 for an empty set.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}
// Arithmetic mean of `values`; 0 for an empty set.
double Mean(const std::vector<double>& values);

// Seconds on the host's steady clock since an arbitrary origin.
double RealNow();

// User + system CPU seconds of the whole process (all threads).
double ProcessCpuSeconds();

// Peak resident set size of the process (VmHWM), in MiB.
double PeakRssMib();

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
