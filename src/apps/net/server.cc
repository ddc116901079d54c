#include "apps/net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "core/filter_io.h"
#include "obs/export.h"

namespace bbf::net {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Upper bound on a buffered-but-unparsed HTTP request head.
constexpr size_t kMaxHttpHeadBytes = 8 * 1024;

/// Event-loop tick: epoll_wait wakes at least this often so deadline
/// scans and the drain flag are observed promptly even on idle loops.
constexpr int kTickMs = 20;

/// The drain flag installed by InstallDrainOnSignal. A signal handler may
/// only touch lock-free state; storing one atomic flag that the loops
/// poll every tick is exactly that.
std::atomic<std::atomic<bool>*> g_signal_drain_flag{nullptr};

extern "C" void DrainSignalHandler(int) {
  if (auto* flag = g_signal_drain_flag.load(std::memory_order_acquire)) {
    flag->store(true, std::memory_order_release);
  }
}

}  // namespace

obs::MetricsSnapshot ServerMetrics::Snapshot() const {
  obs::MetricsSnapshot snap;
  snap.counters = {
      {"net_connections_accepted_total", accepted.Load()},
      {"net_connections_closed_total", closed.Load()},
      {"net_connections_evicted_idle_total", evicted_idle.Load()},
      {"net_connections_evicted_deadline_total", evicted_deadline.Load()},
      {"net_frames_served_total", frames_served.Load()},
      {"net_frames_nacked_busy_total", nacked_busy.Load()},
      {"net_frames_malformed_total", malformed_rejected.Load()},
      {"net_frames_drained_inflight_total", drained_inflight.Load()},
      {"net_keys_looked_up_total", keys_looked_up.Load()},
      {"net_keys_inserted_total", keys_inserted.Load()},
      {"net_keys_insert_nacked_total", keys_insert_nacked.Load()},
      {"net_http_scrapes_total", http_scrapes.Load()},
      {"net_tuner_ctl_total", tuner_ctl.Load()},
  };
  return snap;
}

/// One event loop: its own epoll instance, its own listening socket (when
/// Listen was called), its own connection table. Connections never
/// migrate, so everything here is single-threaded except the explicitly
/// atomic cross-thread state (adopt queue, global budgets, drain flags).
struct Server::Worker {
  struct Conn {
    int fd = -1;
    std::string in;       // Buffered unparsed input.
    size_t in_off = 0;    // Consumed prefix of `in`.
    std::string out;      // Pending responses.
    size_t out_off = 0;   // Flushed prefix of `out`.
    bool http = false;    // First bytes were "GET " — scrape mode.
    bool mode_known = false;
    bool closing = false;  // Flush `out`, then close.
    bool paused = false;   // Over budget: EPOLLIN disabled until drained.
    bool peer_eof = false;  // Peer half-closed; serve what we hold, then go.
    uint32_t events = EPOLLIN;  // Interest mask last registered with epoll.
    int64_t last_activity_ms = 0;
    int64_t deadline_ms = 0;  // 0 = no armed deadline.
  };

  explicit Worker(Server* server) : server_(server) {}

  Server* server_;
  int epoll_fd = -1;
  int wake_fd = -1;
  int listen_fd = -1;
  std::unordered_map<int, Conn> conns;
  std::mutex adopt_mu;
  std::vector<int> adopt_queue;
  bool drain_seen = false;

  bool Init() {
    epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    wake_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (epoll_fd < 0 || wake_fd < 0) return false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd;
    return epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) == 0;
  }

  ~Worker() {
    for (auto& [fd, conn] : conns) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
  }

  void Wake() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }

  size_t PendingBytes(const Conn& conn) const {
    return conn.out.size() - conn.out_off;
  }

  /// Registers the interest mask the connection's state calls for. Most
  /// flushes leave it unchanged (reading, nothing pending), so the
  /// syscall is only made when the mask differs from the registered one.
  void UpdateEpoll(Conn& conn) {
    uint32_t want = 0;
    if (!conn.paused && !conn.closing && !conn.peer_eof) want |= EPOLLIN;
    if (PendingBytes(conn) > 0) want |= EPOLLOUT;
    if (want == conn.events) return;
    epoll_event ev{};
    ev.data.fd = conn.fd;
    ev.events = want;
    if (epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
      conn.events = want;
    }
  }

  void CloseConn(int fd) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    server_->global_pending_.fetch_sub(PendingBytes(it->second),
                                       std::memory_order_relaxed);
    epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns.erase(it);
    server_->open_connections_.fetch_sub(1, std::memory_order_relaxed);
    server_->metrics_.closed.Add();
  }

  void AddConn(int fd) {
    if (server_->open_connections_.load(std::memory_order_relaxed) >=
        server_->config_.max_connections) {
      ::close(fd);
      return;
    }
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      return;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn conn;
    conn.fd = fd;
    conn.last_activity_ms = NowMs();
    epoll_event ev{};
    ev.events = conn.events;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      return;
    }
    conns.emplace(fd, std::move(conn));
    server_->open_connections_.fetch_add(1, std::memory_order_relaxed);
    server_->metrics_.accepted.Add();
  }

  void Enqueue(int fd) {
    {
      std::lock_guard<std::mutex> lock(adopt_mu);
      adopt_queue.push_back(fd);
    }
    Wake();
  }

  void DrainAdoptQueue() {
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> lock(adopt_mu);
      fds.swap(adopt_queue);
    }
    for (int fd : fds) {
      if (server_->draining_.load(std::memory_order_acquire) ||
          server_->stop_now_.load(std::memory_order_acquire)) {
        ::close(fd);
      } else {
        AddConn(fd);
      }
    }
  }

  void Accept() {
    while (true) {
      const int fd =
          accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN, or transient error — both: stop.
      AddConn(fd);
    }
  }

  void AppendOut(Conn& conn, std::string_view bytes) {
    conn.out.append(bytes);
    server_->global_pending_.fetch_add(bytes.size(),
                                       std::memory_order_relaxed);
  }

  /// Flushes as much of `out` as the socket takes. Returns false when the
  /// connection was closed.
  bool TryFlush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_off,
                 conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          // Peer not reading: arm the write-progress deadline.
          if (conn.deadline_ms == 0) {
            conn.deadline_ms = NowMs() + server_->config_.io_deadline_ms;
          }
          UpdateEpoll(conn);
          return true;
        }
        CloseConn(conn.fd);
        return false;
      }
      conn.out_off += static_cast<size_t>(n);
      conn.last_activity_ms = NowMs();
      conn.deadline_ms = 0;  // Progress; re-armed below if still pending.
      server_->global_pending_.fetch_sub(static_cast<size_t>(n),
                                         std::memory_order_relaxed);
    }
    conn.out.clear();
    conn.out_off = 0;
    if (conn.closing) {
      CloseConn(conn.fd);
      return false;
    }
    // Fully drained: a paused (over-budget) connection may resume.
    // Resumption is the CALLER's job (ProcessBuffered's loop or the
    // EPOLLOUT handler) — doing it here would recurse flush->process->
    // flush arbitrarily deep on a buffer full of tiny frames.
    conn.paused = false;
    UpdateEpoll(conn);
    return true;
  }

  /// Sends a best-effort NACK (the connection is being torn down for a
  /// framing violation; the peer may already be gone).
  void SendDirect(Conn& conn, const std::string& frame) {
    [[maybe_unused]] ssize_t n =
        ::send(conn.fd, frame.data(), frame.size(), MSG_NOSIGNAL);
  }

  /// A half-closed peer sent everything it ever will: whatever responses
  /// are owed get flushed (under the io deadline — the peer must still
  /// read), then the connection closes. An incomplete trailing frame was
  /// never acked, so abandoning it is within contract.
  void FinishEof(Conn& conn) {
    conn.closing = true;
    if (PendingBytes(conn) == 0) {
      CloseConn(conn.fd);
      return;
    }
    if (conn.deadline_ms == 0) {
      conn.deadline_ms = NowMs() + server_->config_.io_deadline_ms;
    }
    UpdateEpoll(conn);
  }

  bool OverBudget(const Conn& conn) const {
    return PendingBytes(conn) > server_->config_.conn_inflight_budget ||
           server_->global_pending_.load(std::memory_order_relaxed) >
               server_->config_.global_inflight_budget;
  }

  /// Handles one validated frame. Returns the response frame.
  std::string Dispatch(const FrameHeader& h, std::string_view payload) {
    Server& s = *server_;
    const Opcode op = static_cast<Opcode>(h.opcode);
    if (s.filter_ == nullptr &&
        (op == Opcode::kLookup || op == Opcode::kInsert ||
         op == Opcode::kErase)) {
      return EncodeFrame(op, FrameStatus::kUnsupported, 0, h.seq, "");
    }
    switch (op) {
      case Opcode::kPing:
        return EncodeFrame(op, FrameStatus::kOk, 0, h.seq, "");
      case Opcode::kLookup: {
        std::vector<uint64_t> raw;
        if (!DecodeKeysPayload(h, payload, &raw)) return std::string();
        // Hash-once boundary: the server is the API boundary, clients
        // ship raw u64 keys, each mixed exactly once here.
        std::vector<HashedKey> keys;
        keys.reserve(raw.size());
        for (uint64_t k : raw) keys.emplace_back(k);
        std::vector<uint8_t> res(raw.size());
        if (!keys.empty()) {
          s.filter_->ContainsMany(std::span<const HashedKey>(keys),
                                  res.data());
        }
        s.metrics_.keys_looked_up.Add(raw.size());
        return EncodeFrame(op, FrameStatus::kOk,
                           static_cast<uint32_t>(res.size()), h.seq,
                           std::string(res.begin(), res.end()));
      }
      case Opcode::kInsert: {
        std::vector<uint64_t> raw;
        if (!DecodeKeysPayload(h, payload, &raw)) return std::string();
        std::vector<HashedKey> keys;
        keys.reserve(raw.size());
        for (uint64_t k : raw) keys.emplace_back(k);
        std::vector<InsertOutcome> outcomes(raw.size());
        if (!keys.empty()) {
          s.filter_->InsertManyWithStatus(std::span<const HashedKey>(keys),
                                          outcomes.data());
        }
        std::string body(raw.size(), '\0');
        uint64_t stored = 0;
        uint64_t nacked = 0;
        for (size_t i = 0; i < outcomes.size(); ++i) {
          switch (outcomes[i]) {
            case InsertOutcome::kAccepted:
              body[i] = static_cast<char>(kInsertAccepted);
              ++stored;
              break;
            case InsertOutcome::kExpanded:
              body[i] = static_cast<char>(kInsertExpanded);
              ++stored;
              break;
            case InsertOutcome::kRejectedFull:
              // The saturation policy refused the key: an explicit
              // per-key NACK, never a silent ack-then-drop.
              body[i] = static_cast<char>(kInsertNacked);
              ++nacked;
              break;
          }
        }
        s.metrics_.keys_inserted.Add(stored);
        s.metrics_.keys_insert_nacked.Add(nacked);
        return EncodeFrame(op, FrameStatus::kOk,
                           static_cast<uint32_t>(body.size()), h.seq, body);
      }
      case Opcode::kErase: {
        std::vector<uint64_t> raw;
        if (!DecodeKeysPayload(h, payload, &raw)) return std::string();
        std::string body(raw.size(), '\0');
        for (size_t i = 0; i < raw.size(); ++i) {
          body[i] = static_cast<char>(s.filter_->Erase(HashedKey(raw[i]))
                                          ? kEraseDone
                                          : kEraseMiss);
        }
        return EncodeFrame(op, FrameStatus::kOk,
                           static_cast<uint32_t>(body.size()), h.seq, body);
      }
      case Opcode::kMetrics: {
        std::string text = s.MetricsText();
        if (text.size() > kMaxWirePayloadBytes) {
          text.resize(kMaxWirePayloadBytes);
        }
        return EncodeFrame(op, FrameStatus::kOk, 0, h.seq, text);
      }
      case Opcode::kBlockCheck:
      case Opcode::kReportFalseBlock: {
        if (s.blocklist_ == nullptr) {
          return EncodeFrame(op, FrameStatus::kUnsupported, 0, h.seq, "");
        }
        std::vector<std::string_view> urls;
        if (!DecodeStringsPayload(h, payload, &urls)) return std::string();
        std::string body(urls.size(), '\0');
        {
          // Blocklist implementations are not internally locked (and
          // ReportFalseBlock mutates); serialize across loops.
          std::lock_guard<std::mutex> lock(s.blocklist_mu_);
          for (size_t i = 0; i < urls.size(); ++i) {
            const bool r = op == Opcode::kBlockCheck
                               ? s.blocklist_->IsBlocked(urls[i])
                               : s.blocklist_->ReportFalseBlock(urls[i]);
            body[i] = static_cast<char>(r ? 1 : 0);
          }
        }
        return EncodeFrame(op, FrameStatus::kOk,
                           static_cast<uint32_t>(body.size()), h.seq, body);
      }
      case Opcode::kTunerCtl: {
        if (!s.tuner_control_) {
          return EncodeFrame(op, FrameStatus::kUnsupported, 0, h.seq, "");
        }
        // Exactly one command byte; anything else is a framing error.
        if (payload.size() != 1 || h.count > 1) return std::string();
        s.metrics_.tuner_ctl.Add();
        std::string text = s.tuner_control_(static_cast<uint8_t>(payload[0]));
        if (text.size() > kMaxWirePayloadBytes) {
          text.resize(kMaxWirePayloadBytes);
        }
        return EncodeFrame(op, FrameStatus::kOk, 0, h.seq, text);
      }
    }
    return std::string();
  }

  /// Cuts and serves every complete frame buffered on `conn`. Returns
  /// false when the connection was closed.
  bool ProcessBuffered(Conn& conn) {
    while (true) {
      const std::string_view buf(conn.in.data() + conn.in_off,
                                 conn.in.size() - conn.in_off);
      FrameHeader h;
      std::string_view payload;
      size_t consumed = 0;
      const CutResult res = CutFrame(buf, &h, &payload, &consumed);
      if (res == CutResult::kNeedMore) {
        // Mid-frame: the peer owes us bytes — arm the read deadline
        // (slow-loris eviction). A clean frame boundary owes nothing.
        if (!buf.empty() && PendingBytes(conn) == 0) {
          if (conn.deadline_ms == 0) {
            conn.deadline_ms = NowMs() + server_->config_.io_deadline_ms;
          }
        } else if (buf.empty() && PendingBytes(conn) == 0) {
          conn.deadline_ms = 0;
        }
        break;
      }
      if (res == CutResult::kMalformed) {
        server_->metrics_.malformed_rejected.Add();
        // Framing is unrecoverable: NACK best-effort and close. The NACK
        // goes around the write buffer on purpose — this connection has
        // no future, only a diagnostic to offer.
        SendDirect(conn, EncodeFrame(static_cast<Opcode>(1),
                                     FrameStatus::kMalformed, 0, 0, ""));
        CloseConn(conn.fd);
        return false;
      }
      // One whole valid frame. Budget check before any processing: an
      // over-budget connection gets an explicit BUSY NACK and stops
      // being read until its responses drain.
      if (OverBudget(conn)) {
        server_->metrics_.nacked_busy.Add();
        conn.in_off += consumed;
        AppendOut(conn, EncodeFrame(static_cast<Opcode>(h.opcode),
                                    FrameStatus::kBusy, 0, h.seq, ""));
        conn.paused = true;
        if (!TryFlush(conn)) return false;
        if (conn.paused) break;  // Still pending: wait for EPOLLOUT.
        continue;                // Budget freed: keep serving buffered frames.
      }
      conn.in_off += consumed;
      std::string response = Dispatch(h, payload);
      if (response.empty()) {
        // Structurally valid frame with a semantically malformed payload
        // (count/length mismatch, oversized string): same treatment as a
        // framing violation.
        server_->metrics_.malformed_rejected.Add();
        SendDirect(conn, EncodeFrame(static_cast<Opcode>(h.opcode),
                                     FrameStatus::kMalformed, 0, h.seq, ""));
        CloseConn(conn.fd);
        return false;
      }
      server_->metrics_.frames_served.Add();
      if (drain_seen) server_->metrics_.drained_inflight.Add();
      conn.deadline_ms = 0;
      AppendOut(conn, response);
      if (!TryFlush(conn)) return false;
      if (conn.paused || conn.closing) break;
    }
    // Compact the consumed prefix; `in` stays bounded by one partial
    // frame (<= header + kMaxWirePayloadBytes) plus one read chunk.
    if (conn.in_off == conn.in.size()) {
      conn.in.clear();
      conn.in_off = 0;
    } else if (conn.in_off > (size_t{256} << 10)) {
      conn.in.erase(0, conn.in_off);
      conn.in_off = 0;
    }
    // Every servable frame is served (a paused connection still has work;
    // its EPOLLOUT resume re-enters here): a half-closed peer can now be
    // flushed and finished.
    if (conn.peer_eof && !conn.paused) {
      FinishEof(conn);
      return false;
    }
    return true;
  }

  bool HandleHttp(Conn& conn) {
    const size_t head_end = conn.in.find("\r\n\r\n", conn.in_off);
    if (head_end == std::string::npos) {
      if (conn.in.size() - conn.in_off > kMaxHttpHeadBytes) {
        server_->metrics_.malformed_rejected.Add();
        CloseConn(conn.fd);
        return false;
      }
      return true;  // Await the rest of the head.
    }
    server_->metrics_.http_scrapes.Add();
    std::string body = server_->MetricsText();
    std::string resp = "HTTP/1.0 200 OK\r\n"
                       "Content-Type: text/plain; version=0.0.4\r\n"
                       "Content-Length: " +
                       std::to_string(body.size()) +
                       "\r\n"
                       "Connection: close\r\n\r\n" +
                       body;
    conn.in.clear();
    conn.in_off = 0;
    AppendOut(conn, resp);
    conn.closing = true;  // One scrape per connection, like node_exporter.
    return TryFlush(conn);
  }

  bool OnReadable(Conn& conn) {
    char chunk[64 * 1024];
    while (true) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n == 0) {
        // Half-close, not abandonment: responses for frames the peer DID
        // finish sending are still owed (acked work is never dropped).
        conn.peer_eof = true;
        break;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        CloseConn(conn.fd);
        return false;
      }
      conn.in.append(chunk, static_cast<size_t>(n));
      conn.last_activity_ms = NowMs();
      if (!conn.mode_known && conn.in.size() >= 4) {
        conn.mode_known = true;
        conn.http = conn.in.compare(0, 4, "GET ") == 0;
      }
      if (conn.mode_known) {
        if (conn.http) {
          if (!HandleHttp(conn)) return false;
        } else {
          if (!ProcessBuffered(conn)) return false;
        }
      } else if (conn.deadline_ms == 0) {
        // 1-3 bytes of something: mid-frame either way — arm a deadline.
        conn.deadline_ms = NowMs() + server_->config_.io_deadline_ms;
      }
      if (conn.paused || conn.closing) break;
    }
    if (conn.peer_eof) {
      if (conn.http || !conn.mode_known) {
        // An HTTP head that never completed, or <4 bytes then EOF:
        // nothing servable remains. (A served scrape is `closing` and
        // flushing — leave it to TryFlush.)
        if (!conn.closing) {
          CloseConn(conn.fd);
          return false;
        }
        return true;
      }
      if (!conn.paused) return ProcessBuffered(conn);
    }
    return true;
  }

  void ScanDeadlines() {
    const int64_t now = NowMs();
    std::vector<int> evict_deadline;
    std::vector<int> evict_idle;
    for (auto& [fd, conn] : conns) {
      if (conn.deadline_ms != 0 && now >= conn.deadline_ms) {
        evict_deadline.push_back(fd);
      } else if (server_->config_.idle_timeout_ms > 0 &&
                 now - conn.last_activity_ms >=
                     server_->config_.idle_timeout_ms &&
                 PendingBytes(conn) == 0 && conn.in_off == conn.in.size()) {
        evict_idle.push_back(fd);
      }
    }
    for (int fd : evict_deadline) {
      server_->metrics_.evicted_deadline.Add();
      CloseConn(fd);
    }
    for (int fd : evict_idle) {
      server_->metrics_.evicted_idle.Add();
      CloseConn(fd);
    }
  }

  void BeginDrain() {
    drain_seen = true;
    if (listen_fd >= 0) {
      epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
      ::close(listen_fd);
      listen_fd = -1;
    }
    // Finish what is already in flight: slurp whatever the kernel has
    // buffered, serve every complete frame, then flush-and-close. A
    // frame that was never fully received was never acked — dropping it
    // is within contract.
    std::vector<int> fds;
    fds.reserve(conns.size());
    for (auto& [fd, conn] : conns) fds.push_back(fd);
    for (int fd : fds) {
      auto it = conns.find(fd);
      if (it == conns.end()) continue;
      Conn& conn = it->second;
      conn.paused = false;
      if (!OnReadable(conn)) continue;  // May close.
      auto it2 = conns.find(fd);
      if (it2 == conns.end()) continue;
      Conn& c2 = it2->second;
      c2.closing = true;
      if (PendingBytes(c2) == 0) {
        CloseConn(fd);
      } else {
        // Flush under the io deadline; a peer that won't read its last
        // responses is evicted, not waited on forever.
        c2.deadline_ms = NowMs() + server_->config_.io_deadline_ms;
        UpdateEpoll(c2);
      }
    }
  }

  void Run() {
    epoll_event events[128];
    while (true) {
      if (server_->stop_now_.load(std::memory_order_acquire)) return;
      const bool draining = server_->draining_.load(std::memory_order_acquire);
      if (draining && !drain_seen) BeginDrain();
      if (drain_seen && conns.empty()) return;
      const int n = epoll_wait(epoll_fd, events,
                               static_cast<int>(std::size(events)), kTickMs);
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        const uint32_t ev = events[i].events;
        if (fd == wake_fd) {
          uint64_t junk;
          while (::read(wake_fd, &junk, sizeof(junk)) > 0) {
          }
          DrainAdoptQueue();
          continue;
        }
        if (fd == listen_fd) {
          Accept();
          continue;
        }
        auto it = conns.find(fd);
        if (it == conns.end()) continue;
        if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
          CloseConn(fd);
          continue;
        }
        if ((ev & EPOLLOUT) != 0) {
          Conn& conn = it->second;
          const bool was_paused = conn.paused;
          if (!TryFlush(conn)) continue;
          // A connection un-paused by this flush has requests buffered
          // from before the pause; no further EPOLLIN will announce
          // them, so resume serving here.
          if (was_paused && !conn.paused && !conn.http) {
            if (!ProcessBuffered(conn)) continue;
          }
        }
        it = conns.find(fd);
        if (it == conns.end()) continue;
        if ((ev & EPOLLIN) != 0) {
          OnReadable(it->second);
        }
      }
      DrainAdoptQueue();
      ScanDeadlines();
    }
  }
};

Server::Server(ShardedFilter* filter, ServerConfig config)
    : filter_(filter), config_(std::move(config)) {
  if (config_.num_threads < 1) config_.num_threads = 1;
  workers_.reserve(config_.num_threads);
  for (int i = 0; i < config_.num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>(this));
  }
}

Server::~Server() {
  if (running()) {
    stop_now_.store(true, std::memory_order_release);
    for (auto& w : workers_) w->Wake();
  }
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

std::string Server::MetricsText() const {
  if (metrics_text_) return metrics_text_();
  obs::MetricsRegistry registry;
  registry.Register("net", [this] { return metrics_.Snapshot(); });
  return obs::RenderPrometheus(registry.Snapshot());
}

bool Server::Listen(uint16_t port) {
  uint16_t bound = port;
  for (auto& w : workers_) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    // One listening socket per loop: the kernel balances accepts across
    // them, and each accepted connection is owned end-to-end by the loop
    // that accepted it.
    setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(bound);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 512) != 0 || !SetNonBlocking(fd)) {
      ::close(fd);
      return false;
    }
    if (bound == 0) {
      sockaddr_in actual{};
      socklen_t len = sizeof(actual);
      if (getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
        ::close(fd);
        return false;
      }
      bound = ntohs(actual.sin_port);
    }
    w->listen_fd = fd;
  }
  port_ = bound;
  return true;
}

void Server::AdoptConnection(int fd) {
  const size_t i = adopt_rr_.fetch_add(1, std::memory_order_relaxed);
  workers_[i % workers_.size()]->Enqueue(fd);
}

bool Server::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return false;
  for (auto& w : workers_) {
    if (!w->Init()) {
      stop_now_.store(true, std::memory_order_release);
      return false;
    }
    if (w->listen_fd >= 0) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = w->listen_fd;
      epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->listen_fd, &ev);
    }
  }
  threads_.reserve(workers_.size());
  for (auto& w : workers_) {
    threads_.emplace_back([worker = w.get()] { worker->Run(); });
  }
  return true;
}

void Server::InstallDrainOnSignal(int signo) {
  g_signal_drain_flag.store(&draining_, std::memory_order_release);
  struct sigaction sa{};
  sa.sa_handler = DrainSignalHandler;
  sigemptyset(&sa.sa_mask);
  sigaction(signo, &sa, nullptr);
}

bool Server::WriteDrainSnapshot() const {
  if (config_.drain_snapshot_path.empty() || filter_ == nullptr) return true;
  std::ofstream os(config_.drain_snapshot_path,
                   std::ios::binary | std::ios::trunc);
  return os.good() && SaveFilterSnapshot(*filter_, os) && os.good();
}

void Server::Shutdown() {
  RequestDrain();
  for (auto& w : workers_) w->Wake();
  if (!joined_) {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    joined_ = true;
    running_.store(false, std::memory_order_release);
    WriteDrainSnapshot();
  }
}

}  // namespace bbf::net
