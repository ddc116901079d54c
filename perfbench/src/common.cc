#include "common.h"

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "simd/dispatch.h"

namespace perfbench {

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

double SumOfRatesM(const std::vector<uint64_t>& items,
                   const std::vector<uint64_t>& busy_ns) {
  double rate = 0.0;
  for (size_t i = 0; i < items.size() && i < busy_ns.size(); ++i) {
    if (busy_ns[i] > 0) {
      rate += static_cast<double>(items[i]) * 1e3 /
              static_cast<double>(busy_ns[i]);
    }
  }
  return rate;
}

bool RunLayerPasses(SpanLog& log, const std::vector<LayerPass>& passes,
                    uint64_t calls, uint64_t block, int reps) {
  bool forced = true;
  for (int rep = 0; rep < reps; ++rep) {
    for (uint64_t b = 0; b < calls; b += block) {
      const uint64_t end = std::min(calls, b + block);
      // Each block starts from the next pass, so no pass always follows
      // the same other one (and inherits its cache state).
      for (size_t i = 0; i < passes.size(); ++i) {
        const LayerPass& p = passes[(b / block + i) % passes.size()];
        if (p.scalar_isa) {
          forced = bbf::simd::ForceIsaForTesting(bbf::simd::Isa::kScalar) &&
                   forced;
        }
        const ScopedSpan outer(&log, "layer.block", b);
        for (uint64_t c = b; c < end; ++c) {
          ScopedSpan sp(&log, p.name, c, outer.index());
          p.body(rep, c);
          sp.set_items(p.items_per_call);
        }
        if (p.scalar_isa) bbf::simd::ClearForcedIsaForTesting();
      }
    }
  }
  return forced;
}

CpuConfinement::CpuConfinement(int n) {
  CPU_ZERO(&previous_);
  if (sched_getaffinity(0, sizeof(previous_), &previous_) != 0) return;
  cpu_set_t first;
  CPU_ZERO(&first);
  for (int c = 0, kept = 0; c < CPU_SETSIZE && kept < n; ++c) {
    if (CPU_ISSET(c, &previous_)) {
      CPU_SET(c, &first);
      ++kept;
    }
  }
  confined_ = sched_setaffinity(0, sizeof(first), &first) == 0;
}

CpuConfinement::~CpuConfinement() {
  if (confined_) sched_setaffinity(0, sizeof(previous_), &previous_);
}

bool PinThread(int tid, int k) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int c = 0, seen = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed) && seen++ == k) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      return sched_setaffinity(tid, sizeof(one), &one) == 0;
    }
  }
  return false;
}

std::vector<int> ThreadIds() {
  std::vector<int> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ids.push_back(std::atoi(e->d_name));
  }
  closedir(dir);
  std::sort(ids.begin(), ids.end());
  return ids;
}

const Metric* Report::Find(std::string_view name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

SpanLog& Tracer::NewLog(size_t capacity) {
  std::lock_guard lock(mu_);
  logs_.push_back(
      std::make_unique<SpanLog>(static_cast<int>(logs_.size()), capacity));
  return *logs_.back();
}

Tracer::Totals Tracer::Sum(std::string_view name) const {
  std::lock_guard lock(mu_);
  Totals t;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      if (name != s.name || s.end_ns < s.start_ns) continue;
      ++t.spans;
      t.ns += s.end_ns - s.start_ns;
      t.items += s.items;
    }
  }
  return t;
}

std::vector<double> Tracer::DurationsUs(std::string_view name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      if (name == s.name && s.end_ns >= s.start_ns) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  return out;
}

uint64_t Tracer::TotalSpans() const {
  std::lock_guard lock(mu_);
  uint64_t n = 0;
  for (const auto& log : logs_) n += log->spans().size();
  return n;
}

uint64_t Tracer::TotalDropped() const {
  std::lock_guard lock(mu_);
  uint64_t n = 0;
  for (const auto& log : logs_) n += log->dropped();
  return n;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "tid,name,start_ns,end_ns,parent,req,items\n");
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      std::fprintf(f, "%d,%s,%llu,%llu,%lld,%llu,%u\n", log->tid(), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   s.parent == kNoSpan ? -1LL
                                       : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.req), s.items);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
