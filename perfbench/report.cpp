#include "report.h"

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "uring/probe.h"

namespace perfbench {
namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const auto& [name, value_unit] = items_[i];
    // %.17g keeps every digit the measurement has; a non-finite value
    // is a driver bug and is printed as null so the caller rejects it.
    char number[64];
    if (std::isfinite(value_unit.first)) {
      std::snprintf(number, sizeof(number), "%.17g", value_unit.first);
    } else {
      std::snprintf(number, sizeof(number), "null");
    }
    if (i > 0) out += ',';
    out += "\"" + name + "\":{\"value\":" + number + ",\"unit\":\"" +
           value_unit.second + "\"}";
  }
  return out + "}";
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

RegistryCounts RegistryCounts::now() {
  const rs::obs::MetricsSnapshot snap =
      rs::obs::Registry::global().snapshot();
  RegistryCounts out;
  for (const auto& [name, value] : snap.counters) out.counters[name] = value;
  for (const auto& hist : snap.histograms) out.histograms[hist.name] = hist;
  return out;
}

RegistryCounts RegistryCounts::since(const RegistryCounts& before) const {
  RegistryCounts out = *this;
  for (auto& [name, value] : out.counters) {
    const auto then = before.counters.find(name);
    if (then != before.counters.end()) value -= then->second;
  }
  for (auto& [name, hist] : out.histograms) {
    const auto then = before.histograms.find(name);
    if (then == before.histograms.end()) continue;
    hist.count -= then->second.count;
    hist.sum_ns -= then->second.sum_ns;
    for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
      hist.buckets[b] -= then->second.buckets[b];
    }
  }
  return out;
}

void RegistryCounts::add(const RegistryCounts& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, hist] : other.histograms) {
    auto& mine = histograms[name];
    mine.name = name;
    mine.count += hist.count;
    mine.sum_ns += hist.sum_ns;
    for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
      mine.buckets[b] += hist.buckets[b];
    }
  }
}

double RegistryCounts::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : static_cast<double>(it->second);
}

rs::obs::HistogramSnapshot RegistryCounts::histogram(
    const std::string& name) const {
  const auto it = histograms.find(name);
  if (it != histograms.end()) return it->second;
  rs::obs::HistogramSnapshot empty;
  empty.name = name;
  return empty;
}

double hist_ms(const rs::obs::HistogramSnapshot& hist, double p) {
  return static_cast<double>(hist.percentile_ns(p)) / 1e6;
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string environment_json() {
  utsname uts{};
  std::string kernel = "unknown";
  if (::uname(&uts) == 0) kernel = std::string(uts.sysname) + " " + uts.release;
  return "{\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"kernel\":\"" + json_escape(kernel) + "\",\"uring_probe\":\"" +
         json_escape(rs::uring::probe_features().to_string()) + "\"}";
}

}  // namespace perfbench
