// Shared pieces of the end-to-end benchmark: options, deterministic key
// streams, timing, percentiles, the result report, and span tracing.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // Where the traced run writes its spans.
};

// ---- Deterministic inputs --------------------------------------------------

// A bijection of `i` for a fixed `seed` (an add, then the splitmix64
// finalizer, whose steps are each invertible), so distinct indices give
// distinct keys. Workloads draw resident keys from even indices and
// absent keys from odd ones: the two sets can never meet.
inline uint64_t KeyAt(uint64_t seed, uint64_t i) {
  uint64_t x = i + seed * 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
inline uint64_t PresentKey(uint64_t seed, uint64_t i) {
  return KeyAt(seed, 2 * i);
}
inline uint64_t AbsentKey(uint64_t seed, uint64_t i) {
  return KeyAt(seed, 2 * i + 1);
}

// Workload-local seed, so the three workloads never share a stream.
inline uint64_t StreamSeed(uint64_t seed, uint64_t workload_tag) {
  return KeyAt(workload_tag, seed);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return KeyAt(0, state_++); }
  // Uniform in [0, n), n > 0 (multiply-shift; bias is below 2^-32 here).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

 private:
  uint64_t state_;
};

// ---- Time and statistics ---------------------------------------------------

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Nearest-rank quantile, q in [0, 1]. Sorts `v` in place; 0 when empty.
double Quantile(std::vector<double>& v, double q);
double Median(std::vector<double> v);

// Aggregate rate of several threads or connections, each of which did
// `items[i]` units of work in `busy_ns[i]` of its own time inside the
// measured calls: the sum of the per-thread rates, in millions per second.
double SumOfRatesM(const std::vector<uint64_t>& items,
                   const std::vector<uint64_t>& busy_ns);

// Confines the calling thread, and every thread it starts meanwhile, to
// the first `n` CPUs it may run on; restores the previous set when done.
class CpuConfinement {
 public:
  explicit CpuConfinement(int n);
  ~CpuConfinement();
  CpuConfinement(const CpuConfinement&) = delete;
  CpuConfinement& operator=(const CpuConfinement&) = delete;

 private:
  cpu_set_t previous_;
  bool confined_ = false;
};

// Pins thread `tid` (0: the calling thread) to the `k`-th CPU the calling
// thread may run on. Returns false when there is no such CPU or the pin
// failed.
bool PinThread(int tid, int k);

// The ids of the process's threads, ascending; empty when they cannot be
// listed.
std::vector<int> ThreadIds();

// ---- Result ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Printed beside the metrics but not part of the result: figures too
  // unsteady on a shared host to hold a bound.
  std::vector<Metric> info;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  const Metric* Find(std::string_view name) const;
};

// ---- Tracing ---------------------------------------------------------------

// One timed call into a layer. `parent` indexes the same log (kNoSpan for
// a root); spans of one request share `req`; `items` is the number of keys
// or operations the call covered.
struct Span {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t req = 0;
  uint32_t parent = 0;
  uint32_t items = 0;
};

inline constexpr uint32_t kNoSpan = ~uint32_t{0};

// Per-thread, append-only span buffer. Open/Close are not thread-safe: a
// log belongs to one thread. Spans past the capacity are still recorded,
// into one spare slot that each overwrites, so tracing costs the same
// throughout a run while memory stays bounded; they are counted as
// dropped and not kept.
class SpanLog {
 public:
  SpanLog(int thread_id, size_t capacity)
      : tid_(thread_id), slots_(capacity + 1) {}
  uint32_t Open(const char* name, uint64_t req, uint32_t parent = kNoSpan) {
    uint32_t idx = static_cast<uint32_t>(used_);
    if (used_ + 1 < slots_.size()) {
      ++used_;
    } else {
      ++dropped_;
    }
    Span& s = slots_[idx];
    s.name = name;
    s.req = req;
    s.parent = parent;
    s.start_ns = NowNs();
    return idx;
  }
  void Close(uint32_t idx, uint64_t items) {
    if (idx == kNoSpan) return;
    Span& s = slots_[idx];
    s.end_ns = NowNs();
    s.items = static_cast<uint32_t>(items);
  }
  int tid() const { return tid_; }
  uint64_t dropped() const { return dropped_; }
  std::span<const Span> spans() const { return {slots_.data(), used_}; }

 private:
  int tid_;
  size_t used_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> slots_;  // The last one is the spare slot.
};

// Owns every thread's SpanLog and derives per-layer numbers from them.
class Tracer {
 public:
  // Thread-safe. The returned log lives as long as the tracer.
  SpanLog& NewLog(size_t capacity);

  struct Totals {
    uint64_t spans = 0;
    uint64_t ns = 0;     // Summed durations.
    uint64_t items = 0;  // Summed item counts.
    double NsPerItem() const {
      return items == 0 ? 0.0 : static_cast<double>(ns) / items;
    }
  };
  Totals Sum(std::string_view name) const;
  // Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(std::string_view name) const;
  uint64_t TotalSpans() const;
  uint64_t TotalDropped() const;
  // Writes every span as CSV: tid,name,start_ns,end_ns,parent,req,items.
  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// Opens a span on construction and closes it on destruction; a null log
// makes both a no-op, which is how untraced runs skip tracing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t req,
             uint32_t parent = kNoSpan)
      : log_(log), idx_(log ? log->Open(name, req, parent) : kNoSpan) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(idx_, items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_items(uint64_t items) { items_ = items; }
  uint32_t index() const { return idx_; }

 private:
  SpanLog* log_;
  uint32_t idx_;
  uint64_t items_ = 0;
};

// One layer measurement for RunLayerPasses: `body(rep, call)` makes one
// timed call, which covers `items_per_call` items (keys or frames). With
// `scalar_isa`, the SIMD kernels are pinned to the scalar ones meanwhile.
struct LayerPass {
  const char* name;
  uint64_t items_per_call;
  std::function<void(int rep, uint64_t call)> body;
  bool scalar_isa = false;
};

// Runs calls [0, calls) of every pass `reps` times, one span per call
// named after the pass. The passes take turns block by block (`block`
// calls each, the order rotating), so a slow spell of a shared host falls
// on all of them alike and the differences between passes, which is what
// per-layer self times are, stay meaningful. Returns false if the scalar kernel could
// not be forced for a pass that asked for it.
bool RunLayerPasses(SpanLog& log, const std::vector<LayerPass>& passes,
                    uint64_t calls, uint64_t block, int reps);

// ---- Workloads -------------------------------------------------------------

// End-to-end run of one workload. With `tracer` null nothing is traced;
// otherwise each request is recorded as a span (used to measure what
// tracing itself costs). `seconds` is the measured time.
using WorkloadFn = void (*)(const Options& opt, double seconds,
                            Tracer* tracer, Report* report);

void RunEmbedRead(const Options& opt, double seconds, Tracer* tracer,
                  Report* report);
void RunServeMixed(const Options& opt, double seconds, Tracer* tracer,
                   Report* report);
void RunLsmMixed(const Options& opt, double seconds, Tracer* tracer,
                 Report* report);

// Per-layer runs: each times the public calls of its layers on the
// workload's own inputs, recording one span per timed call in `tracer`,
// and adds the derived per-layer metrics to `report`.
void TraceEmbedLayers(const Options& opt, Tracer* tracer, Report* report);
void TraceServeLayers(const Options& opt, Tracer* tracer, Report* report);
void TraceLsmLayers(const Options& opt, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
