// Shared helpers for the paper-reproduction benches: table formatting and a
// "paper-shape check" reporter that states each qualitative claim from the
// paper and whether this run reproduced it.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tensor/simd/simd.h"

namespace adasum::bench {

// ADASUM_BENCH_FULL=1 runs larger workloads (closer to paper scale); the
// default keeps every bench binary comfortably under a minute on one core.
inline bool full_mode() {
  const char* env = std::getenv("ADASUM_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

// Median of per-iteration samples — the statistic every BENCH_*.json gate
// reports. The mean folds one scheduler hiccup into the result; the median
// of an odd-ish number of iters shrugs it off, which is what makes the
// speedup floors in check.sh stable on a shared machine. Sorts a copy.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// One-line JSON object describing the host and the knobs that move the
// committed numbers: the CPU thread budget and the active SIMD level. Every
// BENCH_*.json embeds it as "host" so artifacts from different machines or
// configurations are never compared blind.
inline std::string host_json() {
  std::ostringstream os;
  os << "{\"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"simd\": \"" << simd::level_name(simd::active_level()) << "\"}";
  return os.str();
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "reproduces: " << paper_ref << "\n\n";
}

// Minimal fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  template <typename... Ts>
  void row(Ts&&... values) {
    std::vector<std::string> cells;
    (cells.push_back(to_cell(std::forward<Ts>(values))), ...);
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c)
      widths[c] = columns_[c].size();
    for (const auto& r : rows_)
      for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c)
        widths[c] = std::max(widths[c], r[c].size());
    auto line = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < columns_.size(); ++c) {
        std::cout << "  " << std::left << std::setw(static_cast<int>(widths[c]))
                  << (c < cells.size() ? cells[c] : "");
      }
      std::cout << "\n";
    };
    line(columns_);
    std::string rule;
    for (std::size_t c = 0; c < columns_.size(); ++c)
      rule += "  " + std::string(widths[c], '-');
    std::cout << rule << "\n";
    for (const auto& r : rows_) line(r);
  }

 private:
  template <typename T>
  static std::string to_cell(const T& v) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      std::ostringstream os;
      os << std::fixed << std::setprecision(3) << v;
      return os.str();
    } else {
      std::ostringstream os;
      os << v;
      return os.str();
    }
  }

  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

// States a qualitative claim from the paper and whether this run showed it.
inline bool check_shape(const std::string& claim, bool held) {
  std::cout << "paper-shape check: " << claim << " -> "
            << (held ? "REPRODUCED" : "NOT REPRODUCED") << "\n";
  return held;
}

inline std::string fmt(double v, int precision = 3) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

}  // namespace adasum::bench
