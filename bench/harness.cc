#include "harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <utility>

#include "simd/dispatch.h"

// Set by bench/CMakeLists.txt when the build tree is configured.
#ifndef BBF_BENCH_COMMIT
#define BBF_BENCH_COMMIT "nogit"
#endif
#ifndef BBF_BENCH_BUILD_TYPE
#define BBF_BENCH_BUILD_TYPE "unknown"
#endif

namespace bbf::bench {
namespace {

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos) {
      continue;
    }
    const size_t begin = line.find_first_not_of(' ', colon + 1);
    if (begin != std::string::npos) return line.substr(begin);
  }
  return "unknown";
}

[[noreturn]] void Usage(const char* argv0, const char* why) {
  std::fprintf(stderr, "%s\nusage: %s [--quick] [--json=PATH]\n", why, argv0);
  std::exit(2);
}

}  // namespace

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      args.quick = true;
    } else if (arg.starts_with("--json=") && arg.size() > 7) {
      args.json_path = arg.substr(7);
    } else {
      Usage(argv[0], ("unknown argument: " + std::string(arg)).c_str());
    }
  }
  if (!args.json_path.empty()) {
    // Append mode creates the file without clobbering an earlier result;
    // Finish rewrites it once the run is done.
    std::FILE* probe = std::fopen(args.json_path.c_str(), "a");
    if (probe == nullptr) {
      Usage(argv[0], ("cannot write " + args.json_path).c_str());
    }
    std::fclose(probe);
  }
  return args;
}

Label::Label(std::string_view key, std::string_view value)
    : key(key), json(JsonString(value)) {}

Report::Report(std::string_view bench, Args args)
    : bench_(bench), args_(std::move(args)) {}

void Report::Add(std::initializer_list<Label> labels,
                 std::initializer_list<Metric> metrics) {
  std::string labels_json;
  for (const Label& l : labels) {
    labels_json += (labels_json.empty() ? "" : ", ") + JsonString(l.key) +
                   ": " + l.json;
  }
  for (const Metric& m : metrics) {
    char value[32] = "null";  // JSON has no NaN or infinity.
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.10g", m.value);
    }
    rows_.push_back("{\"case\": {" + labels_json +
                    "}, \"metric\": " + JsonString(m.name) +
                    ", \"unit\": " + JsonString(m.unit) +
                    ", \"value\": " + value + "}");
  }
}

int Report::Finish(bool ok) const {
  if (args_.json_path.empty()) return ok ? 0 : 1;
  std::string doc =
      "{\n  \"schema\": 1,\n  \"bench\": " + JsonString(bench_) +
      ",\n  \"quick\": " + (args_.quick ? "true" : "false") +
      ",\n  \"commit\": " + JsonString(BBF_BENCH_COMMIT) +
      ",\n  \"build_type\": " + JsonString(BBF_BENCH_BUILD_TYPE) +
      ",\n  \"host\": {\"cpus\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": " + JsonString(CpuModel()) +
      ", \"kernel\": " + JsonString(simd::ActiveIsaName()) +
      "},\n  \"results\": [";
  for (size_t i = 0; i < rows_.size(); ++i) {
    doc += (i == 0 ? "\n    " : ",\n    ") + rows_[i];
  }
  doc += "\n  ]\n}\n";

  std::FILE* f = std::fopen(args_.json_path.c_str(), "w");
  bool written = f != nullptr &&
                 std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  if (f != nullptr) written = std::fclose(f) == 0 && written;
  if (!written) {
    std::fprintf(stderr, "cannot write %s\n", args_.json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", args_.json_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace bbf::bench
