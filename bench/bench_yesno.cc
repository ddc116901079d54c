// Experiments E11 + E12 (DESIGN.md §4): the yes/no-list problem (§3.3)
// and stacked filters (§2.8).
//
// Paper claims: a no list keeps important benign URLs from ever being
// blocked; adaptive filters solve both the static and dynamic cases;
// stacked filters exponentially cut the FPR of known hot negatives.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/net/blocklist.h"
#include "bloom/bloom_filter.h"
#include "stacked/learned_filter.h"
#include "stacked/stacked_filter.h"
#include "util/hash.h"
#include "workload/generators.h"
#include "workload/zipf.h"

using namespace bbf;
using namespace bbf::net;

int main() {
  std::printf("== E11: URL yes/no lists ==\n\n");
  auto urls = GenerateUrls(1030000, 9);
  const std::vector<std::string> malicious(urls.begin(),
                                           urls.begin() + 1000000);
  const std::vector<std::string> hot(urls.begin() + 1000000,
                                     urls.begin() + 1010000);
  const std::vector<std::string> cold(urls.begin() + 1010000, urls.end());

  auto bloom = MakeBloomBlocklist(malicious, 10.0);
  auto integrated = MakeIntegratedBlocklist(malicious, hot, 10);
  auto adaptive = MakeAdaptiveBlocklist(malicious, 0.001);

  ZipfGenerator zipf(hot.size(), 1.1, 5);
  const int kVisits = 500000;
  std::printf("%-12s | %-12s | %-14s | %-10s\n", "filter",
              "hot wrong-blocks", "cold benign fpr", "MiB");
  for (Blocklist* b : {bloom.get(), integrated.get(), adaptive.get()}) {
    ZipfGenerator z(hot.size(), 1.1, 5);
    uint64_t wrong = 0;
    for (int i = 0; i < kVisits; ++i) {
      const std::string& url = hot[z.Next()];
      if (b->IsBlocked(url)) {
        ++wrong;
        b->ReportFalseBlock(url);
      }
    }
    uint64_t cold_fp = 0;
    for (const auto& u : cold) cold_fp += b->IsBlocked(u);
    std::printf("%-12s | %16llu | %14.6f | %10.1f\n",
                std::string(b->Name()).c_str(),
                static_cast<unsigned long long>(wrong),
                static_cast<double>(cold_fp) / cold.size(),
                b->SpaceBits() / 8.0 / (1 << 20));
  }

  std::printf("\n== E12: stacked filters — FPR of hot vs cold negatives ==\n\n");
  std::vector<uint64_t> positive_keys;
  for (const auto& u : malicious) positive_keys.push_back(HashBytes(u, 7));
  std::vector<uint64_t> hot_keys;
  for (const auto& u : hot) hot_keys.push_back(HashBytes(u, 7));
  std::vector<uint64_t> cold_keys;
  for (const auto& u : cold) cold_keys.push_back(HashBytes(u, 7));

  auto fpr = [](const auto& f, const std::vector<uint64_t>& qs) {
    uint64_t fp = 0;
    for (uint64_t k : qs) fp += f.Contains(k);
    return static_cast<double>(fp) / qs.size();
  };
  BloomFilter plain(positive_keys.size(), 10.0);
  for (uint64_t k : positive_keys) plain.Insert(k);
  std::printf("%-22s %12s %12s %12s\n", "filter", "hot fpr", "cold fpr",
              "bits/key");
  std::printf("%-22s %12.6f %12.6f %12.2f\n", "plain bloom",
              fpr(plain, hot_keys), fpr(plain, cold_keys),
              plain.BitsPerKey());
  for (int layers : {3, 5}) {
    StackedFilter stacked(positive_keys, hot_keys, 10.0, layers);
    std::printf("stacked (%d layers)    %12.6f %12.6f %12.2f\n", layers,
                fpr(stacked, hot_keys), fpr(stacked, cold_keys),
                static_cast<double>(stacked.SpaceBits()) /
                    positive_keys.size());
  }
  std::printf("\n== E17: learned filter (§2.8) — clustered vs uniform keys ==\n\n");
  {
    // Clustered keys (the distribution a model can exploit).
    SplitMix64 rng(170);
    std::vector<uint64_t> clustered;
    while (clustered.size() < 500000) {
      uint64_t base = rng.Next() & ~uint64_t{0xFFFFFF};
      const uint64_t count = 500 + rng.NextBelow(1500);
      for (uint64_t i = 0; i < count && clustered.size() < 500000; ++i) {
        base += 1 + rng.NextBelow(3);
        clustered.push_back(base);
      }
    }
    std::sort(clustered.begin(), clustered.end());
    clustered.erase(std::unique(clustered.begin(), clustered.end()),
                    clustered.end());
    const std::vector<uint64_t>& clustered_ref = clustered;
    const auto uniform = GenerateDistinctKeys(clustered.size(), 171);
    std::printf("%-22s %14s %14s %14s\n", "keys", "learned b/key",
                "bloom b/key", "modeled frac");
    for (const auto* keys : {&clustered_ref, &uniform}) {
      LearnedFilter learned(*keys, 16, 64, 10.0);
      BloomFilter bloom(keys->size(), 10.0);
      std::printf("%-22s %14.2f %14.2f %14.3f\n",
                  keys == &clustered_ref ? "clustered" : "uniform",
                  static_cast<double>(learned.SpaceBits()) / keys->size(),
                  10.0,
                  static_cast<double>(learned.modeled_keys()) /
                      keys->size());
    }
  }

  std::printf(
      "\nexpected shape (papers §2.8/§3.3): integrated & adaptive rows show\n"
      "(near-)zero wrong blocks; each stacked layer pair multiplies the hot\n"
      "FPR down by another Bloom factor while cold FPR stays ~plain; the\n"
      "learned filter beats Bloom only when the key set has structure.\n");
  return 0;
}
