#ifndef BBF_BENCH_HARNESS_H_
#define BBF_BENCH_HARNESS_H_

// The one command line and the one JSON schema of every bench that writes
// a BENCH_*.json (DESIGN.md §4). A bench calls ParseArgs before it
// measures, records every number through Report::Add, and returns
// Report::Finish from main. The file it writes is
//
//   {"schema": 1, "bench": NAME, "quick": BOOL, "commit": SHA,
//    "build_type": TYPE,
//    "host": {"cpus": N, "cpu_model": STR, "kernel": SIMD_ISA},
//    "results": [{"case": {LABEL: VALUE, ...}, "metric": STR,
//                 "unit": STR, "value": NUMBER or null}, ...]}

#include <concepts>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace bbf::bench {

struct Args {
  bool quick = false;
  std::string json_path;  // Empty: print the tables, write no file.
};

/// Accepts only `--quick` and `--json=PATH`. Prints usage and exits 2 on
/// any other argument, or when PATH cannot be opened for writing, so a bad
/// command line fails before anything is measured.
Args ParseArgs(int argc, char** argv);

/// One case label, a string or an integer, held as its JSON text.
struct Label {
  Label(std::string_view key, std::string_view value);
  template <std::integral T>
  Label(std::string_view key, T value)
      : key(key), json(std::to_string(value)) {}

  std::string key;
  std::string json;
};

struct Metric {
  template <typename T>
    requires std::is_arithmetic_v<T>
  Metric(std::string_view name, std::string_view unit, T value)
      : name(name), unit(unit), value(static_cast<double>(value)) {}

  std::string_view name;
  std::string_view unit;
  double value;
};

class Report {
 public:
  Report(std::string_view bench, Args args);

  /// Appends one result row per metric, all under the same case labels.
  void Add(std::initializer_list<Label> labels,
           std::initializer_list<Metric> metrics);

  /// Writes the JSON file when --json was given and returns main's exit
  /// code: 0 when `ok` and the file (if any) was written in full, else 1.
  int Finish(bool ok = true) const;

 private:
  std::string bench_;
  Args args_;
  std::vector<std::string> rows_;
};

}  // namespace bbf::bench

#endif  // BBF_BENCH_HARNESS_H_
