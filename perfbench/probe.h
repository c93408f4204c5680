#ifndef P2DRM_PERFBENCH_PROBE_H_
#define P2DRM_PERFBENCH_PROBE_H_

// Benchmark-side layer spans.
//
// Every span opens and closes on the benchmark's one client thread: the
// in-process transport and the actors behind it are single-caller, so the
// spans around agent calls and around the interposed endpoint handlers
// nest strictly. Each span's self time (its duration minus the part its
// child spans cover) is charged to its layer under the user op that
// caused it; the op span's own self time is the unattributed remainder.
// With a tracer attached the same spans are also recorded as Chrome trace
// events, each op span carrying its op id.

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// User ops the workloads issue. kCheat is the planted double redemption
/// plus the fraud processing after it.
enum class Op {
  kPurchase,
  kPlay,
  kGive,
  kReceive,
  kExchangeBatch,
  kRedeemBatch,
  kCheat,
  kCount
};

/// Metric-name suffixes, index-aligned with Op.
inline const char* OpName(Op op) {
  static const char* kNames[] = {"purchase",       "play",
                                 "give",           "receive",
                                 "exchange_batch", "redeem_batch",
                                 "cheat"};
  return kNames[static_cast<int>(op)];
}

/// Span layers: the op itself, the client agent, and the four server
/// endpoints (named after the core actors behind them).
enum class Layer { kOp, kAgent, kCa, kBank, kCp, kTtp, kCount };

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Probe {
 public:
  struct LayerTotals {
    double self_us = 0;   ///< span time not covered by child spans
    double total_us = 0;  ///< full span time
    std::uint64_t calls = 0;
  };
  struct OpTotals {
    std::uint64_t count = 0;
    double op_us = 0;
    std::array<LayerTotals, static_cast<int>(Layer::kCount)> layers{};
  };

  /// Switches layer accounting on; until then only op latencies are
  /// measured (the untraced configuration). \p tracer, when non-null, also
  /// receives every span as a Chrome trace event.
  void Enable(p2drm::obs::Tracer* tracer) {
    spans_ = true;
    tracer_ = tracer;
  }

  void BeginOp(Op op) {
    op_ = op;
    ++op_id_;
    if (tracer_ != nullptr) tracer_->BeginWithArg(OpSpanName(op), "op", op_id_);
    stack_.clear();
    stack_.push_back({Layer::kOp, NowUs(), 0});
  }

  /// Closes the op span; returns its duration in microseconds.
  double EndOp() {
    const Frame f = stack_.front();
    const double dur = NowUs() - f.start_us;
    if (tracer_ != nullptr) tracer_->End(OpSpanName(op_));
    if (spans_) {
      OpTotals& t = totals_[static_cast<int>(op_)];
      t.count += 1;
      t.op_us += dur;
      LayerTotals& l = t.layers[static_cast<int>(Layer::kOp)];
      l.self_us += dur - f.child_us;
      l.total_us += dur;
      l.calls += 1;
    }
    stack_.clear();
    return dur;
  }

  /// Runs \p fn inside a span of \p layer; returns the span duration in
  /// microseconds (measured in both configurations).
  template <typename Fn>
  double Span(Layer layer, const char* name, Fn&& fn) {
    if (!spans_ || stack_.empty()) {
      const double t0 = NowUs();
      fn();
      return NowUs() - t0;
    }
    if (tracer_ != nullptr) tracer_->Begin(name);
    stack_.push_back({layer, NowUs(), 0});
    fn();
    const Frame f = stack_.back();
    stack_.pop_back();
    const double dur = NowUs() - f.start_us;
    if (tracer_ != nullptr) tracer_->End(name);
    LayerTotals& l =
        totals_[static_cast<int>(op_)].layers[static_cast<int>(f.layer)];
    l.self_us += dur - f.child_us;
    l.total_us += dur;
    l.calls += 1;
    stack_.back().child_us += dur;
    return dur;
  }

  const OpTotals& Totals(Op op) const {
    return totals_[static_cast<int>(op)];
  }
  void ResetTotals() { totals_ = {}; }

 private:
  struct Frame {
    Layer layer;
    double start_us;
    double child_us;
  };

  static const char* OpSpanName(Op op) {
    static const char* kNames[] = {"op.purchase",       "op.play",
                                   "op.give",           "op.receive",
                                   "op.exchange_batch", "op.redeem_batch",
                                   "op.cheat"};
    return kNames[static_cast<int>(op)];
  }

  bool spans_ = false;
  p2drm::obs::Tracer* tracer_ = nullptr;
  Op op_ = Op::kPurchase;
  std::uint64_t op_id_ = 0;
  std::vector<Frame> stack_;
  std::array<OpTotals, static_cast<int>(Op::kCount)> totals_{};
};

}  // namespace perfbench

#endif  // P2DRM_PERFBENCH_PROBE_H_
