// Result plumbing for the benchmark driver: named metrics with units,
// exact percentiles over recorded samples, and deltas of the global
// obs registry between two points of a run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

// Metrics in insertion order, printed as
// {"name":{"value":v,"unit":"u"},...}.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// Linear-interpolated percentile (p in [0,100]) of `values`; sorts a
// copy. Empty input returns 0.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

// Counters and histograms of the global obs registry: a snapshot
// (now()), the difference of two snapshots (since()), or a sum of such
// differences over several phases (add()).
struct RegistryCounts {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, rs::obs::HistogramSnapshot> histograms;

  static RegistryCounts now();
  RegistryCounts since(const RegistryCounts& before) const;
  void add(const RegistryCounts& other);
  // 0 / an empty histogram for a name never recorded.
  double counter(const std::string& name) const;
  rs::obs::HistogramSnapshot histogram(const std::string& name) const;
};

// Histogram percentile in milliseconds (0 when the histogram is empty).
double hist_ms(const rs::obs::HistogramSnapshot& hist, double p);

// a / b, or 0 when b is 0 (a ratio whose base did not occur).
double ratio(double a, double b);

// VmHWM of this process in MB (peak resident set).
double peak_rss_mb();

// One-line description of the host: nproc, kernel, io_uring probe.
std::string environment_json();

}  // namespace perfbench
