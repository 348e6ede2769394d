// Span recorder for the traced benchmark run.
//
// The benchmark brackets its calls into the library with spans; nothing
// inside src/ is instrumented. Each rank thread owns one SpanLog (single
// writer), whose storage is reserved before any timed window so recording
// never allocates there — the heap-allocation counter the benchmark reports
// would otherwise count the tracer. Spans of one closed-loop operation share
// its op id, and `parent` names the span that caused a span (its enclosing
// span on the same rank), so a layer's self time is its duration minus its
// children's.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class Layer : std::uint8_t {
  kOp,               // one closed-loop operation (allreduce call or step)
  kDataBatch,        // data::DataLoader::batch
  kNnForward,        // nn::Sequential::forward
  kNnLoss,           // nn::softmax_cross_entropy
  kNnBackward,       // nn::Sequential::backward
  kOptimStep,        // optim::DistributedOptimizer::step
  kCollectivesCall,  // adasum_rvh_allreduce
  kCount,
};

inline const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kDataBatch: return "data.batch";
    case Layer::kNnForward: return "nn.forward";
    case Layer::kNnLoss: return "nn.loss";
    case Layer::kNnBackward: return "nn.backward";
    case Layer::kOptimStep: return "optim.step";
    case Layer::kCollectivesCall: return "collectives.call";
    case Layer::kCount: break;
  }
  return "?";
}

struct Span {
  Layer layer = Layer::kOp;
  std::uint32_t op = 0;     // operation id, shared by every span of one op
  std::int32_t parent = -1; // index of the causing span in this log; -1 = root
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

inline std::int64_t now_ns(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

class SpanLog {
 public:
  SpanLog(std::size_t capacity, Clock::time_point epoch) : epoch_(epoch) {
    spans_.reserve(capacity);
  }

  // Opens a span and returns its index, or -1 when the reserved capacity is
  // exhausted (the span is dropped and counted instead of growing the log).
  int begin(Layer layer, std::uint32_t op, int parent) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    const std::int64_t t = now_ns(epoch_);
    spans_.push_back(Span{layer, op, parent, t, t});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].t1_ns = now_ns(epoch_);
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

// RAII span. A null log (tracing off) records nothing.
class Scope {
 public:
  Scope(SpanLog* log, Layer layer, std::uint32_t op, int parent = -1)
      : log_(log), index_(log ? log->begin(layer, op, parent) : -1) {}
  ~Scope() {
    if (log_) log_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

// One SpanLog per rank plus the roll-up and export over all of them.
class Tracer {
 public:
  Tracer(int ranks, std::size_t capacity_per_rank)
      : epoch_(Clock::now()) {
    logs_.reserve(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) logs_.emplace_back(capacity_per_rank, epoch_);
  }

  SpanLog* log(int rank) { return &logs_[static_cast<std::size_t>(rank)]; }

  // Durations (ms) of every span of `layer`, over all ranks.
  std::vector<double> durations_ms(Layer layer) const {
    std::vector<double> out;
    for (const SpanLog& log : logs_)
      for (const Span& s : log.spans())
        if (s.layer == layer) out.push_back(ms(s.t1_ns - s.t0_ns));
    return out;
  }

  // Self time (ms) of every span of `layer`: duration minus the part its
  // direct children cover.
  std::vector<double> self_ms(Layer layer) const {
    std::vector<double> out;
    for (const SpanLog& log : logs_) {
      const std::vector<Span>& spans = log.spans();
      std::vector<std::int64_t> child_ns(spans.size(), 0);
      for (const Span& s : spans)
        if (s.parent >= 0)
          child_ns[static_cast<std::size_t>(s.parent)] += s.t1_ns - s.t0_ns;
      for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].layer == layer)
          out.push_back(ms(spans[i].t1_ns - spans[i].t0_ns - child_ns[i]));
    }
    return out;
  }

  // Per op id: slowest rank's `layer` duration minus the fastest rank's.
  std::vector<double> skew_ms(Layer layer) const {
    struct MinMax {
      std::int64_t lo = INT64_MAX, hi = INT64_MIN;
      int n = 0;
    };
    std::vector<MinMax> by_op;
    for (const SpanLog& log : logs_)
      for (const Span& s : log.spans()) {
        if (s.layer != layer) continue;
        if (by_op.size() <= s.op) by_op.resize(s.op + 1);
        MinMax& m = by_op[s.op];
        const std::int64_t d = s.t1_ns - s.t0_ns;
        m.lo = std::min(m.lo, d);
        m.hi = std::max(m.hi, d);
        ++m.n;
      }
    std::vector<double> out;
    for (const MinMax& m : by_op)
      if (m.n == static_cast<int>(logs_.size())) out.push_back(ms(m.hi - m.lo));
    return out;
  }

  std::size_t dropped() const {
    std::size_t n = 0;
    for (const SpanLog& log : logs_) n += log.dropped();
    return n;
  }

  // Chrome trace-event JSON: one complete ("X") event per span, tid = rank.
  bool write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t r = 0; r < logs_.size(); ++r)
      for (const Span& s : logs_[r].spans()) {
        out << (first ? "\n" : ",\n") << "{\"name\":\"" << layer_name(s.layer)
            << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << r
            << ",\"ts\":" << static_cast<double>(s.t0_ns) / 1e3
            << ",\"dur\":" << static_cast<double>(s.t1_ns - s.t0_ns) / 1e3
            << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent
            << "}}";
        first = false;
      }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  static double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

  Clock::time_point epoch_;
  std::vector<SpanLog> logs_;
};

}  // namespace perfbench
