// serve_mixed: closed-loop mixed traffic over TCP loopback.
//
// Two SyncClient connections, one client thread each, drive a two-loop
// net::Server (four threads in all). The server fronts 16 QuotientFilter
// shards at eps = 1%, each wrapped in obs::InstrumentedFilter, sized for
// 2M keys with 512K resident (fits in L2). Frames carry 128 keys; every
// tenth frame inserts fresh keys, the rest look keys up (half resident,
// half absent). Per-frame costs dominate here: codec, epoll loop,
// syscalls, wakeups and instrumentation. Inserts take the exclusive shard
// lock beside reads, so a change that speeds reads by taxing writers
// shows in the insert tail.
//
// A run is a series of identical rounds, each from an empty filter, so
// the filter never outgrows its sizing however fast the host is, and the
// state at the end of a round (hence fpr) depends only on the seed.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <latch>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apps/net/client.h"
#include "apps/net/server.h"
#include "apps/net/wire.h"
#include "common.h"
#include "core/sharded_filter.h"
#include "obs/instrumented.h"
#include "quotient/quotient_filter.h"

namespace perfbench {
namespace {

using bbf::net::FrameStatus;

constexpr uint64_t kTag = 2;
constexpr uint64_t kCapacity = uint64_t{1} << 21;
constexpr uint64_t kResident = uint64_t{1} << 19;
constexpr int kShards = 16;
constexpr double kFpr = 0.01;
constexpr int kLoops = 2;
constexpr int kConns = 2;
// Each connection has a CPU of its own, shared by its client thread and
// the server loop that serves it (see PinLoops). A round trip then hands
// that CPU from client to loop and back: it never waits on waking another
// CPU, and the two connections never compete for one. Spread over four
// vCPUs of a shared virtual machine, every round trip waited on such a
// wake-up and figures swung with the host's load (p99 from 70 to 1100 us
// between runs). On two CPUs left to the scheduler, a round's median
// round trip now and then jumped by half (35 to 53 us), and the median of
// a run moved by up to a quarter between runs. With all four threads on
// one CPU, rounds were bimodal (median round trip about 45 or 63 us) and
// the median of a run moved by a fifth to a quarter between runs.
constexpr int kCpus = kConns;
constexpr size_t kFrameKeys = 128;
constexpr int kInsertEvery = 10;  // 9 lookup frames, then 1 insert frame.
constexpr uint64_t kFramesPerRound = 30000;  // Per connection.
// Statistics windows (see Windows); both divide kFramesPerRound. An
// insert window holds 100 inserts, so its p90 has 10 samples beyond it.
constexpr size_t kWindowFrames = 2000;
constexpr size_t kInsertWindowFrames = 1000;
constexpr uint64_t kInsertFrames = kFramesPerRound / kInsertEvery;
constexpr uint64_t kLookupPool = 4096;  // Lookup frames per connection.
constexpr uint64_t kAbsentDomain = uint64_t{1} << 22;
constexpr int kMinRounds = 3;
constexpr uint64_t kTraceFrames = 10000;  // Per connection, traced round.
constexpr uint64_t kLayerFrames = 2048;
constexpr int kLayerReps = 3;
constexpr uint64_t kGroup = 16;      // Frames per timed call (span).
constexpr uint64_t kLayerBlock = 8;  // Calls per pass before the next.

// Consumes the hash pass's results so the loop cannot be optimised away.
volatile uint64_t g_sink = 0;

struct Inputs {
  std::vector<uint64_t> resident;
  std::vector<std::vector<uint64_t>> lookups;  // Per connection.
  std::vector<std::vector<uint8_t>> expect;    // 1 = resident.
  std::vector<std::vector<uint64_t>> inserts;  // Fresh keys per connection.
  std::vector<uint64_t> absent;                // The absent-key domain.
  std::vector<uint64_t> spare;                 // Fresh keys for the layers.
};

Inputs MakeInputs(uint64_t seed) {
  const uint64_t s = StreamSeed(seed, kTag);
  Inputs in;
  in.resident.resize(kResident);
  for (uint64_t i = 0; i < kResident; ++i) in.resident[i] = PresentKey(s, i);
  in.absent.resize(kAbsentDomain);
  for (uint64_t i = 0; i < kAbsentDomain; ++i) in.absent[i] = AbsentKey(s, i);
  Rng rng(s);
  uint64_t fresh = kResident;
  for (int c = 0; c < kConns; ++c) {
    std::vector<uint64_t> keys(kLookupPool * kFrameKeys);
    std::vector<uint8_t> expect(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      expect[i] = rng.Next() & 1;
      keys[i] = expect[i] ? in.resident[rng.Below(kResident)]
                          : in.absent[rng.Below(kAbsentDomain)];
    }
    in.lookups.push_back(std::move(keys));
    in.expect.push_back(std::move(expect));
    std::vector<uint64_t> ins(kInsertFrames * kFrameKeys);
    for (uint64_t& k : ins) k = PresentKey(s, fresh++);
    in.inserts.push_back(std::move(ins));
  }
  in.spare.resize(kLayerFrames * kFrameKeys * kLayerReps);
  for (uint64_t& k : in.spare) k = PresentKey(s, fresh++);
  return in;
}

struct Served {
  std::unique_ptr<bbf::ShardedFilter> filter;
  // The instrumented shards in shard order, owned by `filter`.
  std::shared_ptr<std::vector<bbf::obs::InstrumentedFilter*>> shards;
  std::unique_ptr<bbf::net::Server> server;
  std::vector<std::unique_ptr<bbf::net::SyncClient>> clients;
};

// A listening socket on 127.0.0.1 with an ephemeral port, or -1.
int ListenLoopback(uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, kConns) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

// Pins server loop i to CPU i. `before` lists the process's threads from
// just before Server::Start; the loops are the threads it added. It
// starts them in loop order and the kernel hands out thread ids in
// increasing order (short of wrapping around), so ascending ids are loops
// 0, 1, ...
void PinLoops(const std::vector<int>& before) {
  const std::vector<int> now = ThreadIds();
  std::vector<int> loops;
  std::set_difference(now.begin(), now.end(), before.begin(), before.end(),
                      std::back_inserter(loops));
  if (loops.size() != kLoops) {
    std::fprintf(stderr, "serve_mixed: found %zu server loops, not pinned\n",
                 loops.size());
    return;
  }
  for (int i = 0; i < kLoops; ++i) PinThread(loops[i], i);
}

// From empty to ready: builds and preloads the filter, starts the server
// and connects the clients. Connections are accepted here and handed to
// Server::AdoptConnection, which places them round-robin, connection c
// on loop c; SO_REUSEPORT hashing could put both on one loop. Returns the
// seconds taken, or a negative value when the server could not be brought
// up.
double SetUp(const Inputs& in, Served* sv, Report* report) {
  const uint64_t t0 = NowNs();
  sv->shards = std::make_shared<std::vector<bbf::obs::InstrumentedFilter*>>();
  sv->filter = std::make_unique<bbf::ShardedFilter>(
      kCapacity, kShards, [shards = sv->shards](uint64_t cap) {
        auto f = std::make_unique<bbf::obs::InstrumentedFilter>(
            std::make_unique<bbf::QuotientFilter>(
                bbf::QuotientFilter::ForCapacity(cap, kFpr)),
            kFpr);
        shards->push_back(f.get());
        return std::unique_ptr<bbf::Filter>(std::move(f));
      });
  const size_t stored =
      sv->filter->InsertMany(std::span<const uint64_t>(in.resident));
  report->attempted += kResident;
  report->failed += kResident - stored;

  bbf::net::ServerConfig config;
  config.num_threads = kLoops;
  sv->server = std::make_unique<bbf::net::Server>(sv->filter.get(), config);
  const std::vector<int> before = ThreadIds();
  if (!sv->server->Start()) return -1.0;
  PinLoops(before);
  uint16_t port = 0;
  const int listener = ListenLoopback(&port);
  if (listener < 0) return -1.0;
  for (int c = 0; c < kConns; ++c) {
    const int fd = bbf::net::SyncClient::ConnectTcp(port);
    const int accepted =
        fd < 0 ? -1 : ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    if (accepted < 0) {
      if (fd >= 0) ::close(fd);
      ::close(listener);
      return -1.0;
    }
    sv->server->AdoptConnection(accepted);
    sv->clients.push_back(std::make_unique<bbf::net::SyncClient>(fd));
  }
  ::close(listener);
  for (auto& client : sv->clients) {
    if (client->Ping() != FrameStatus::kOk) return -1.0;
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

void TearDown(Served* sv) {
  sv->clients.clear();
  if (sv->server) sv->server->Shutdown();
  sv->server.reset();
}

struct Traffic {
  // Per connection, every frame's round trip in sending order; frame f is
  // an insert frame iff IsInsert(f).
  std::vector<std::vector<double>> rtt_us =
      std::vector<std::vector<double>>(kConns);
  double wall_s = 0.0;
};

bool IsInsert(uint64_t frame) {
  return frame % kInsertEvery == kInsertEvery - 1;
}

// One connection per thread sends `frames` frames, closed loop. Every
// frame is timed; resident keys answered absent, NACKed inserts and
// non-kOk frames are failures. Acked insert keys are appended to `acked`.
void RunTraffic(const Inputs& in, Served* sv, uint64_t frames,
                Tracer* tracer, Traffic* tr, std::vector<uint64_t>* acked,
                Report* report) {
  std::vector<SpanLog*> logs(kConns, nullptr);
  if (tracer != nullptr) {
    for (auto& log : logs) log = &tracer->NewLog(size_t{1} << 17);
  }
  std::vector<std::vector<uint64_t>> acked_c(kConns);
  std::vector<uint64_t> failed(kConns, 0);
  std::vector<uint64_t> attempted(kConns, 0);
  std::latch start(kConns + 1);
  std::vector<std::thread> pool;
  for (int c = 0; c < kConns; ++c) {
    pool.emplace_back([&, c] {
      bbf::net::SyncClient& client = *sv->clients[c];
      std::vector<uint8_t> res;
      uint64_t next_lookup = 0;
      uint64_t next_insert = 0;
      PinThread(0, c);  // Beside the loop that serves this connection.
      start.arrive_and_wait();
      for (uint64_t f = 0; f < frames; ++f) {
        const uint64_t req = (static_cast<uint64_t>(c) << 32) | f;
        const bool insert = IsInsert(f);
        const size_t off =
            (insert ? next_insert++ : next_lookup++ % kLookupPool) *
            kFrameKeys;
        const std::span<const uint64_t> keys(
            (insert ? in.inserts[c] : in.lookups[c]).data() + off,
            kFrameKeys);
        const uint32_t sp =
            logs[c] ? logs[c]->Open(insert ? "serve.insert" : "serve.lookup",
                                    req)
                    : kNoSpan;
        const uint64_t c0 = NowNs();
        const FrameStatus st =
            insert ? client.Insert(keys, &res) : client.Lookup(keys, &res);
        const uint64_t ns = NowNs() - c0;
        if (logs[c]) logs[c]->Close(sp, kFrameKeys);
        tr->rtt_us[c].push_back(static_cast<double>(ns) / 1e3);
        attempted[c] += kFrameKeys;
        if (st != FrameStatus::kOk || res.size() != kFrameKeys) {
          failed[c] += kFrameKeys;
          continue;
        }
        if (insert) {
          for (size_t i = 0; i < kFrameKeys; ++i) {
            if (res[i] == bbf::net::kInsertNacked) {
              ++failed[c];
            } else {
              acked_c[c].push_back(keys[i]);
            }
          }
        } else {
          const uint8_t* expect = in.expect[c].data() + off;
          for (size_t i = 0; i < kFrameKeys; ++i) {
            failed[c] += expect[i] && res[i] != bbf::net::kKeyPresent;
          }
        }
      }
    });
  }
  start.arrive_and_wait();
  const uint64_t t0 = NowNs();
  for (auto& th : pool) th.join();
  tr->wall_s += static_cast<double>(NowNs() - t0) / 1e9;
  for (int c = 0; c < kConns; ++c) {
    acked->insert(acked->end(), acked_c[c].begin(), acked_c[c].end());
    report->failed += failed[c];
    report->attempted += attempted[c];
  }
}

// Sum of the fastest `share` of `v` (sorted in place), and how many that is.
std::pair<double, size_t> FastestSum(std::vector<double>& v, double share) {
  std::sort(v.begin(), v.end());
  const size_t n = static_cast<size_t>(share * static_cast<double>(v.size()));
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += v[i];
  return {sum, n};
}

// Figures taken over windows of consecutive frames of one connection;
// each metric is the median over windows. On a shared virtual machine the
// host's scheduler now and then stalls a round trip for milliseconds; in
// busy spells the stalls reached a few percent of frames and moved p99
// and mean rates several-fold between runs (insert p99 from 80 us to
// 3.7 ms) while p50 and p90 moved by a tenth. So rates are taken over the
// fastest 90% of round trips, and the tails are p90s.
struct Windows {
  std::vector<double> mops;         // Keys per us, all frames.
  std::vector<double> lookup_mops;  // Keys per us, lookup frames.
  std::vector<double> p50;          // Lookup round trips.
  std::vector<double> p90;
  std::vector<double> insert_p90;   // Over kInsertWindowFrames windows.

  void Add(const Traffic& tr) {
    constexpr double kKept = 0.9;
    for (const std::vector<double>& rtt : tr.rtt_us) {
      for (size_t b = 0; b + kWindowFrames <= rtt.size(); b += kWindowFrames) {
        std::vector<double> all(rtt.begin() + b,
                                rtt.begin() + b + kWindowFrames);
        std::vector<double> lookups;
        for (size_t f = b; f < b + kWindowFrames; ++f) {
          if (!IsInsert(f)) lookups.push_back(rtt[f]);
        }
        // One connection's rate, times the connections running alongside.
        const auto [all_us, all_n] = FastestSum(all, kKept);
        const auto [lookup_us, lookup_n] = FastestSum(lookups, kKept);
        mops.push_back(kConns * kFrameKeys * all_n / all_us);
        lookup_mops.push_back(kConns * kFrameKeys * lookup_n / lookup_us);
        p50.push_back(Quantile(lookups, 0.50));
        p90.push_back(Quantile(lookups, 0.90));
      }
      for (size_t b = 0; b + kInsertWindowFrames <= rtt.size();
           b += kInsertWindowFrames) {
        std::vector<double> inserts;
        for (size_t f = b; f < b + kInsertWindowFrames; ++f) {
          if (IsInsert(f)) inserts.push_back(rtt[f]);
        }
        insert_p90.push_back(Quantile(inserts, 0.90));
      }
    }
  }
};

// Every acked insert must answer present. Checked in process, after the
// server is down, on the filter the server answered from.
void CheckAcked(const bbf::ShardedFilter& f, const std::vector<uint64_t>& acked,
                Report* report) {
  std::vector<uint8_t> out(acked.size());
  f.ContainsMany(std::span<const uint64_t>(acked), out.data());
  for (uint8_t hit : out) report->failed += hit == 0;
  report->attempted += acked.size();
}

double AbsentFpr(const Inputs& in, const bbf::ShardedFilter& f) {
  std::vector<uint8_t> out(in.absent.size());
  f.ContainsMany(std::span<const uint64_t>(in.absent), out.data());
  uint64_t positives = 0;
  for (uint8_t hit : out) positives += hit;
  return static_cast<double>(positives) / in.absent.size();
}

}  // namespace

void RunServeMixed(const Options& opt, double seconds, Tracer* tracer,
                   Report* report) {
  const Inputs in = MakeInputs(opt.seed);
  const CpuConfinement cpus(kCpus);
  std::vector<double> setup_s;
  Windows win;
  std::vector<double> lookup_us;
  std::vector<double> insert_us;
  double measured_s = 0.0;
  std::unique_ptr<bbf::ShardedFilter> last;
  for (int round = 0; round < kMinRounds || measured_s < seconds; ++round) {
    Served sv;
    const double secs = SetUp(in, &sv, report);
    if (secs < 0) {
      std::fprintf(stderr, "serve_mixed: server set-up failed\n");
      TearDown(&sv);
      ++report->failed;
      return;
    }
    Traffic tr;
    std::vector<uint64_t> acked;
    RunTraffic(in, &sv, kFramesPerRound, tracer, &tr, &acked, report);
    TearDown(&sv);
    CheckAcked(*sv.filter, acked, report);
    measured_s += tr.wall_s;
    setup_s.push_back(secs);
    win.Add(tr);
    for (const std::vector<double>& rtt : tr.rtt_us) {
      for (size_t f = 0; f < rtt.size(); ++f) {
        (IsInsert(f) ? insert_us : lookup_us).push_back(rtt[f]);
      }
    }
    last = std::move(sv.filter);
  }
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("throughput_mops", Median(win.mops), "Mops");
  report->Add("lookup_mops", Median(win.lookup_mops), "Mops");
  report->Add("lookup_p50_us", Median(win.p50), "us");
  report->Add("lookup_tail_us", Median(win.p90), "us");
  report->Add("write_tail_us", Median(win.insert_p90), "us");
  report->info.push_back({"lookup_p99_us", Quantile(lookup_us, 0.99), "us"});
  report->info.push_back({"insert_p99_us", Quantile(insert_us, 0.99), "us"});
  // Every round ends in the same state, so the last one stands for all.
  report->Add("fpr", AbsentFpr(in, *last), "ratio");
  report->Add("bits_per_key",
              static_cast<double>(last->SpaceBits()) / last->NumKeys(),
              "bits");
}

void TraceServeLayers(const Options& opt, Tracer* tracer, Report* report) {
  const Inputs in = MakeInputs(opt.seed);
  const CpuConfinement cpus(kCpus);
  Served sv;
  if (SetUp(in, &sv, report) < 0) {
    std::fprintf(stderr, "serve_mixed: server set-up failed\n");
    TearDown(&sv);
    ++report->failed;
    return;
  }
  // A traced round: one span per frame round trip.
  Traffic tr;
  std::vector<uint64_t> acked;
  RunTraffic(in, &sv, kTraceFrames, tracer, &tr, &acked, report);
  const bbf::net::ServerMetrics& m = sv.server->metrics();
  // Read after the clients have their replies; the Ping frames of set-up
  // are served too and count here.
  const double frames_served = static_cast<double>(m.frames_served.Load());
  const double nacked_busy = static_cast<double>(m.nacked_busy.Load());
  const double keys_nacked = static_cast<double>(m.keys_insert_nacked.Load());
  TearDown(&sv);
  CheckAcked(*sv.filter, acked, report);

  // Direct calls into each layer on the lookup frames the clients sent.
  // One call is kGroup frames; a layer's cost is its spans' summed time
  // over the frames or keys they covered.
  bbf::ShardedFilter& f = *sv.filter;
  const auto& shards = *sv.shards;
  const std::vector<uint64_t>& keys = in.lookups[0];
  const auto frame_keys = [&](uint64_t fr) {
    return std::span<const uint64_t>(keys.data() + fr * kFrameKeys,
                                     kFrameKeys);
  };
  // Each frame's keys hashed and grouped by shard the way ShardedFilter
  // routes them (the canonical mix modulo the shard count).
  std::vector<bbf::HashedKey> grouped(kLayerFrames * kFrameKeys);
  std::vector<uint32_t> bounds;
  for (uint64_t fr = 0; fr < kLayerFrames; ++fr) {
    std::vector<std::vector<bbf::HashedKey>> by_shard(kShards);
    for (uint64_t k : frame_keys(fr)) {
      const bbf::HashedKey h(k);
      by_shard[h.value() % kShards].push_back(h);
    }
    size_t pos = fr * kFrameKeys;
    for (int s = 0; s < kShards; ++s) {
      bounds.push_back(static_cast<uint32_t>(pos));
      std::copy(by_shard[s].begin(), by_shard[s].end(), grouped.begin() + pos);
      pos += by_shard[s].size();
    }
    bounds.push_back(static_cast<uint32_t>(pos));
  }
  const auto shard_many = [&](uint64_t call, bool bare) {
    for (uint64_t fr = call * kGroup; fr < (call + 1) * kGroup; ++fr) {
      const uint32_t* bd = &bounds[fr * (kShards + 1)];
      uint8_t out[kFrameKeys];
      for (int s = 0; s < kShards; ++s) {
        const std::span<const bbf::HashedKey> sub(grouped.data() + bd[s],
                                                  bd[s + 1] - bd[s]);
        uint8_t* o = out + (bd[s] - fr * kFrameKeys);
        if (bare) {
          shards[s]->inner().ContainsMany(sub, o);
        } else {
          shards[s]->ContainsMany(sub, o);
        }
      }
    }
  };

  // The passes run in rotating order, so the decode pass must not depend
  // on the encode pass having run first: encode every request up front.
  const auto encode = [&](uint64_t fr) {
    return bbf::net::EncodeFrame(bbf::net::Opcode::kLookup, FrameStatus::kOk,
                                 static_cast<uint32_t>(kFrameKeys), fr,
                                 bbf::net::EncodeKeysPayload(frame_keys(fr)));
  };
  std::vector<std::string> requests(kLayerFrames);
  for (uint64_t fr = 0; fr < kLayerFrames; ++fr) requests[fr] = encode(fr);
  std::vector<std::string> responses(kLayerFrames);
  std::vector<uint64_t> decoded;
  uint64_t decode_errors = 0;
  std::vector<uint8_t> answers(kLayerFrames * kFrameKeys);
  std::vector<bbf::HashedKey> fresh(kFrameKeys);
  std::vector<bbf::InsertOutcome> outcomes(kLayerFrames * kFrameKeys *
                                           kLayerReps);
  uint64_t sink = 0;
  const auto spare = [&](int rep, uint64_t fr) {
    return in.spare.data() + (rep * kLayerFrames + fr) * kFrameKeys;
  };
  const std::vector<LayerPass> passes = {
      {"net.encode", kGroup,
       [&](int, uint64_t call) {
         for (uint64_t fr = call * kGroup; fr < (call + 1) * kGroup; ++fr) {
           requests[fr] = encode(fr);
         }
       }},
      {"net.decode", kGroup,
       [&](int, uint64_t call) {
         for (uint64_t fr = call * kGroup; fr < (call + 1) * kGroup; ++fr) {
           bbf::net::FrameHeader h;
           std::string_view payload;
           size_t consumed = 0;
           if (bbf::net::CutFrame(requests[fr], &h, &payload, &consumed) !=
                   bbf::net::CutResult::kFrame ||
               !bbf::net::DecodeKeysPayload(h, payload, &decoded) ||
               decoded.size() != kFrameKeys) {
             ++decode_errors;
           }
         }
       }},
      {"core.sharded_contains_many", kGroup,
       [&](int, uint64_t call) {
         for (uint64_t fr = call * kGroup; fr < (call + 1) * kGroup; ++fr) {
           f.ContainsMany(frame_keys(fr), answers.data() + fr * kFrameKeys);
         }
       }},
      {"net.response_encode", kGroup,
       [&](int, uint64_t call) {
         for (uint64_t fr = call * kGroup; fr < (call + 1) * kGroup; ++fr) {
           const uint8_t* a = answers.data() + fr * kFrameKeys;
           responses[fr] = bbf::net::EncodeFrame(
               bbf::net::Opcode::kLookup, FrameStatus::kOk,
               static_cast<uint32_t>(kFrameKeys), fr,
               std::string(a, a + kFrameKeys));
         }
       }},
      {"obs.contains_many", kGroup * kFrameKeys,
       [&](int, uint64_t call) { shard_many(call, false); }},
      {"quotient.contains_many", kGroup * kFrameKeys,
       [&](int, uint64_t call) { shard_many(call, true); }},
      // Hashing the fresh keys is inside the insert spans, as it is in the
      // server; the hash pass on the same keys is subtracted below.
      {"core.insert_with_status", kGroup * kFrameKeys,
       [&](int rep, uint64_t call) {
         for (uint64_t fr = call * kGroup; fr < (call + 1) * kGroup; ++fr) {
           const uint64_t* k = spare(rep, fr);
           for (size_t i = 0; i < kFrameKeys; ++i) {
             fresh[i] = bbf::HashedKey(k[i]);
           }
           f.InsertManyWithStatus(
               fresh, outcomes.data() + (rep * kLayerFrames + fr) * kFrameKeys);
         }
       }},
      {"serve.hash", kGroup * kFrameKeys,
       [&](int rep, uint64_t call) {
         for (uint64_t fr = call * kGroup; fr < (call + 1) * kGroup; ++fr) {
           const uint64_t* k = spare(rep, fr);
           for (size_t i = 0; i < kFrameKeys; ++i) {
             sink ^= bbf::HashedKey(k[i]).value();
           }
         }
       }},
  };
  SpanLog& log = tracer->NewLog(size_t{1} << 14);
  RunLayerPasses(log, passes, kLayerFrames / kGroup, kLayerBlock, kLayerReps);
  uint64_t fn = 0;
  const uint8_t* expect = in.expect[0].data();
  for (size_t i = 0; i < answers.size(); ++i) {
    fn += expect[i] & (answers[i] ^ 1);
  }
  uint64_t nacked = 0;
  for (bbf::InsertOutcome o : outcomes) nacked += !bbf::Accepted(o);
  report->attempted += answers.size() + outcomes.size();
  report->failed += fn + nacked + decode_errors;
  g_sink = sink;

  const double encode_ns = tracer->Sum("net.encode").NsPerItem();
  const double decode_ns = tracer->Sum("net.decode").NsPerItem();
  const double response_ns = tracer->Sum("net.response_encode").NsPerItem();
  const double sharded_us =
      tracer->Sum("core.sharded_contains_many").NsPerItem() / 1e3;  // Frame.
  const double obs_ns = tracer->Sum("obs.contains_many").NsPerItem();
  const double bare_ns = tracer->Sum("quotient.contains_many").NsPerItem();
  const double insert_ns =
      tracer->Sum("core.insert_with_status").NsPerItem() -
      tracer->Sum("serve.hash").NsPerItem();
  const double rtt_us = Median(tracer->DurationsUs("serve.lookup"));
  report->Add("net.encode_ns", encode_ns, "ns");
  report->Add("net.decode_ns", decode_ns, "ns");
  report->Add("net.response_encode_ns", response_ns, "ns");
  report->Add("quotient.contains_many_ns", bare_ns, "ns");
  report->Add("obs.self_ns", obs_ns - bare_ns, "ns");
  report->Add("core.sharded_contains_many_us", sharded_us, "us");
  report->Add("core.insert_with_status_ns", insert_ns, "ns");
  report->Add("net.rtt_us", rtt_us, "us");
  report->Add("net.server_self_us",
              rtt_us - (encode_ns + decode_ns + response_ns) / 1e3 -
                  sharded_us,
              "us");
  report->Add("net.frames_served", frames_served, "count");
  report->Add("net.nacked_busy", nacked_busy, "count");
  report->Add("net.keys_insert_nacked", keys_nacked, "count");
}

}  // namespace perfbench
