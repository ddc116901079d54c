// The filter stack's end-to-end benchmark.
//
//   perfbench --workload embed_read|serve_mixed|lsm_mixed|all --seed N
//             --seconds S --trace 0|1 [--commit ID] [--out DIR]
//
// --trace 0 measures the workload's end-to-end metrics with tracing off.
// --trace 1 measures every layer instead, each on the workload that
// exercises it, and reports what tracing costs on the chosen workload by
// running its end-to-end measurement untraced and traced, half the time
// each. Spans go to DIR as CSV. Every result is stamped with the host,
// the active SIMD kernel, the commit and the build type.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The exit code is 0 only when every
// answer the program gave was correct.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.h"
#include "simd/dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  WorkloadFn run;
  // This workload's own names for the shared end-to-end metrics, printed
  // beside them: {shared name, workload's name, scale, unit}.
  struct Alias {
    const char* metric;
    const char* alias;
    double scale;
    const char* unit;
  };
  std::vector<Alias> aliases;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> w = {
      {"embed_read",
       RunEmbedRead,
       {{"throughput_mops", "batch_lookup_mops", 1.0, "Mops"},
        {"lookup_p50_us", "batch_call_p50_us", 1.0, "us"},
        {"lookup_tail_us", "batch_call_p99_us", 1.0, "us"},
        {"write_tail_us", "preload_insert_p99_us", 1.0, "us"}}},
      {"serve_mixed",
       RunServeMixed,
       {{"throughput_mops", "serve_mkeys_s", 1.0, "Mkeys/s"},
        {"lookup_tail_us", "lookup_p90_us", 1.0, "us"},
        {"write_tail_us", "insert_p90_us", 1.0, "us"}}},
      {"lsm_mixed",
       RunLsmMixed,
       {{"throughput_mops", "lsm_kops", 1e3, "Kops"},
        {"lookup_p50_us", "absent_get_p50_us", 1.0, "us"},
        {"lookup_tail_us", "get_p99_us", 1.0, "us"},
        {"write_tail_us", "put_p9999_us", 1.0, "us"}}},
  };
  return w;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool Optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string Stamp(const Options& opt, const std::string& commit) {
  return "{\"workload\": " + JsonString(opt.workload) +
         ", \"seed\": " + std::to_string(opt.seed) +
         ", \"trace\": " + (opt.trace ? "1" : "0") +
         ", \"cpus\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + JsonString(CpuModel()) +
         ", \"simd_isa\": " + JsonString(bbf::simd::ActiveIsaName()) +
         ", \"commit\": " + JsonString(commit) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"optimized\": " + (Optimized() ? "true" : "false") + "}";
}

void PrintMetrics(const char* workload, const Report& r,
                  const std::vector<Workload::Alias>* aliases) {
  for (const Metric& m : r.metrics) {
    std::printf("%-12s %-40s %16.6g %s\n", workload, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : r.info) {
    std::printf("%-12s   ~ %-36s %16.6g %s\n", workload, m.name.c_str(),
                m.value, m.unit.c_str());
  }
  if (aliases == nullptr) return;
  for (const Workload::Alias& a : *aliases) {
    if (const Metric* m = r.Find(a.metric)) {
      std::printf("%-12s   = %-36s %16.6g %s\n", workload, a.alias,
                  m->value * a.scale, a.unit);
    }
  }
}

void Merge(const Report& from, Report* into) {
  into->attempted += from.attempted;
  into->failed += from.failed;
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload embed_read|serve_mixed|lsm_mixed|"
               "all --seed N --seconds S --trace 0|1 [--commit ID] "
               "[--out DIR]\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || !have_workload || !(opt.seconds > 0)) {
    Usage();
    return 2;
  }
  std::vector<const Workload*> chosen;
  for (const Workload& w : Workloads()) {
    if (opt.workload == w.name || opt.workload == "all") chosen.push_back(&w);
  }
  if (chosen.empty()) {
    Usage();
    return 2;
  }

  std::printf("stamp %s\n", Stamp(opt, commit).c_str());
  if (!Optimized()) {
    std::fprintf(stderr, "WARNING: this build is not optimised; its timings "
                         "are not comparable\n");
  }

  Report total;
  std::vector<Metric> out;
  if (!opt.trace) {
    for (const Workload* w : chosen) {
      Report r;
      w->run(opt, opt.seconds, nullptr, &r);
      PrintMetrics(w->name, r, &w->aliases);
      Merge(r, &total);
      for (const Metric& m : r.metrics) {
        out.push_back({chosen.size() > 1 ? std::string(w->name) + "." + m.name
                                         : m.name,
                       m.value, m.unit});
      }
    }
  } else {
    if (chosen.size() != 1) {
      std::fprintf(stderr, "--trace 1 needs a single workload\n");
      return 2;
    }
    const Workload& w = *chosen[0];
    Report untraced;
    Report traced;
    Tracer e2e;
    w.run(opt, opt.seconds / 2, nullptr, &untraced);
    w.run(opt, opt.seconds / 2, &e2e, &traced);
    std::printf("# untraced\n");
    PrintMetrics(w.name, untraced, nullptr);
    std::printf("# traced\n");
    PrintMetrics(w.name, traced, nullptr);

    Report layers;
    Tracer embed;
    Tracer serve;
    Tracer lsm;
    TraceEmbedLayers(opt, &embed, &layers);
    TraceServeLayers(opt, &serve, &layers);
    TraceLsmLayers(opt, &lsm, &layers);
    // What tracing costs, as a share of the untraced figure, signed so
    // that a positive value is always a cost.
    for (const Metric& m : untraced.metrics) {
      const Metric* t = traced.Find(m.name);
      double rel = t != nullptr && m.value != 0 ? t->value / m.value - 1.0 : 0;
      if (m.name == "throughput_mops" || m.name == "lookup_mops") rel = -rel;
      layers.Add("trace.overhead." + m.name, rel, "ratio");
    }
    uint64_t spans = 0;
    uint64_t dropped = 0;
    const std::pair<const char*, const Tracer*> tracers[] = {
        {"e2e", &e2e}, {"embed_layers", &embed}, {"serve_layers", &serve},
        {"lsm_layers", &lsm}};
    for (const auto& [part, tracer] : tracers) {
      spans += tracer->TotalSpans();
      dropped += tracer->TotalDropped();
      if (!opt.out_dir.empty()) {
        const std::string path = opt.out_dir + "/spans-" + opt.workload +
                                 "-" + part + ".csv";
        if (!tracer->Write(path)) {
          std::fprintf(stderr, "cannot write %s\n", path.c_str());
        }
      }
    }
    layers.Add("trace.spans", static_cast<double>(spans), "count");
    layers.Add("trace.spans_dropped", static_cast<double>(dropped), "count");
    std::printf("# layers\n");
    PrintMetrics(w.name, layers, nullptr);
    Merge(untraced, &total);
    Merge(traced, &total);
    Merge(layers, &total);
    out = layers.metrics;
  }

  for (const Metric& m : out) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "%s is not a finite number\n", m.name.c_str());
      return 1;
    }
  }
  std::string json = "{\"correct\": ";
  json += total.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(total.attempted);
  json += ", \"failed\": " + std::to_string(total.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    json += (i ? ", " : "") + JsonString(out[i].name) + ": {\"value\": " +
            Number(out[i].value) + ", \"unit\": " + JsonString(out[i].unit) +
            "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return total.failed == 0 ? 0 : 1;
}
