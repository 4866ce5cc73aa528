// Open-loop HTTP load generator: one thread, at most one keep-alive
// connection per core, Poisson arrivals drawn from the seed. Each due
// request goes to the connection with the fewest responses outstanding and
// is pipelined behind them (HTTP/1.1), so head-of-line blocking inside the
// server is measured. Latency runs from the moment a request was due, not
// from when it was sent, so a stall charges every request it delays; how
// late the generator itself ran is reported as lag.
//
// The generator runs in a process of its own (GeneratorProcess), forked
// before the server exists: the server's threads, sandbox forks and page
// faults never share an address space or a lock with it, and the server's
// CPU time and memory are its whole process.
#ifndef BENCH_E2E_LOADGEN_H_
#define BENCH_E2E_LOADGEN_H_

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "bench/e2e/util.h"
#include "bench/e2e/workloads.h"

namespace e2e {

// One fixed-rate stretch of arrivals. Equal (seed, stream) pairs give equal
// schedules: the traced replay re-issues exactly the `lo` schedule.
struct PhasePlan {
  std::string name;
  double rate = 0;     // req/s
  double seconds = 0;
  uint64_t stream = 0;
};

// A fixed-rate phase is issued as consecutive windows of about a second,
// each a generator run with its own arrival stream, so that the server's
// memory can be sampled between windows.
inline std::vector<PhasePlan> Windows(const PhasePlan& plan) {
  const int n = std::max(1, static_cast<int>(std::lround(plan.seconds)));
  std::vector<PhasePlan> windows;
  for (int i = 0; i < n; ++i) {
    windows.push_back({plan.name, plan.rate, plan.seconds / n, plan.stream * 100 + i});
  }
  return windows;
}

// The arrival schedule of one phase: offsets from the phase start and the
// template each arrival sends.
class Arrivals {
 public:
  Arrivals(const Inputs& inputs, uint64_t seed, const PhasePlan& plan)
      : inputs_(inputs),
        rng_(seed * 0xD1B54A32D192ED03ull + plan.stream * 0x9E3779B97F4A7C15ull + 7),
        mean_ns_(1e9 / plan.rate),
        span_ns_(static_cast<int64_t>(plan.seconds * 1e9)) {
    Advance();
  }

  bool done() const { return offset_ns_ >= span_ns_; }
  int64_t offset_ns() const { return offset_ns_; }
  uint32_t tmpl() const { return tmpl_; }
  void Advance() {
    offset_ns_ += static_cast<int64_t>(rng_.Exponential(mean_ns_));
    tmpl_ = inputs_.Pick(rng_, static_cast<double>(offset_ns_) / static_cast<double>(span_ns_));
  }

 private:
  const Inputs& inputs_;
  dbase::Rng rng_;
  double mean_ns_;
  int64_t span_ns_;
  int64_t offset_ns_ = 0;
  uint32_t tmpl_ = 0;
};

struct PhaseResult {
  std::string name;
  double rate = 0;
  double seconds = 0;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t non200 = 0;
  uint64_t wrong_body = 0;
  uint64_t transport = 0;
  uint64_t unanswered = 0;
  // Requests still unanswered at the moment the phase stopped issuing.
  uint64_t backlog_at_end = 0;
  // Share of the machine's CPU time the hypervisor took while the phase
  // issued requests (see HostStealNs).
  double host_steal = 0;
  std::vector<double> latency_ms;  // Verified 200s only; sorted.
  std::vector<double> lag_us;      // Sorted.

  uint64_t failed() const { return non200 + wrong_body + transport + unanswered; }
  double LatencyP(double p) const { return Percentile(latency_ms, p); }
  double LagP(double p) const { return Percentile(lag_us, p); }

  // One result for consecutive runs of the same phase.
  static PhaseResult Merge(const std::string& name, const std::vector<PhaseResult>& parts) {
    PhaseResult m;
    m.name = name;
    for (const PhaseResult& p : parts) {
      m.rate = p.rate;
      m.seconds += p.seconds;
      m.sent += p.sent;
      m.ok += p.ok;
      m.non200 += p.non200;
      m.wrong_body += p.wrong_body;
      m.transport += p.transport;
      m.unanswered += p.unanswered;
      m.backlog_at_end = p.backlog_at_end;
      m.host_steal += p.host_steal * p.seconds;
      m.latency_ms.insert(m.latency_ms.end(), p.latency_ms.begin(), p.latency_ms.end());
      m.lag_us.insert(m.lag_us.end(), p.lag_us.begin(), p.lag_us.end());
    }
    m.host_steal /= std::max(m.seconds, 1e-9);
    std::sort(m.latency_ms.begin(), m.latency_ms.end());
    std::sort(m.lag_us.begin(), m.lag_us.end());
    return m;
  }
};

class LoadGen {
 public:
  LoadGen(uint16_t port, const Inputs& inputs, int connections)
      : port_(port), inputs_(inputs), conns_(static_cast<size_t>(connections)) {}
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;
  ~LoadGen() {
    for (Conn& conn : conns_) {
      CloseConn(conn);
    }
  }

  dbase::Status Open() {
    for (Conn& conn : conns_) {
      RETURN_IF_ERROR(OpenConn(conn));
    }
    return dbase::OkStatus();
  }

  // Issues the phase's schedule, then waits up to kDrainNs for the requests
  // still in flight; whatever is unanswered by then counts as failed. Before
  // returning it waits (up to kQuiesceNs) for those late responses too, so
  // the next phase starts on idle connections and an idle server.
  PhaseResult Run(const PhasePlan& plan, uint64_t seed) {
    PhaseResult result;
    result.name = plan.name;
    result.rate = plan.rate;
    result.seconds = plan.seconds;
    result.latency_ms.reserve(static_cast<size_t>(plan.rate * plan.seconds * 1.2) + 16);
    result.lag_us.reserve(result.latency_ms.capacity());
    Arrivals arrivals(inputs_, seed, plan);
    const int64_t steal_before = HostStealNs();
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(plan.seconds * 1e9);
    while (true) {
      const int64_t now = NowNs();
      while (!arrivals.done() && start + arrivals.offset_ns() <= now) {
        Dispatch(start + arrivals.offset_ns(), arrivals.tmpl(), now, &result);
        arrivals.Advance();
      }
      if (now >= end) {
        break;
      }
      PollUntil(arrivals.done() ? end : std::min(end, start + arrivals.offset_ns()), &result);
    }
    result.host_steal = static_cast<double>(HostStealNs() - steal_before) /
                        (static_cast<double>(NowNs() - start) *
                         static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN))));
    result.backlog_at_end = Outstanding();
    const int64_t drain_deadline = NowNs() + kDrainNs;
    while (Outstanding() > 0 && NowNs() < drain_deadline) {
      PollUntil(drain_deadline, &result);
    }
    for (Conn& conn : conns_) {
      for (Pending& pending : conn.fifo) {
        pending.stale = true;
        ++result.unanswered;
      }
    }
    const int64_t quiesce_deadline = NowNs() + kQuiesceNs;
    while (Outstanding() > 0 && NowNs() < quiesce_deadline) {
      PollUntil(quiesce_deadline, &result);
    }
    std::sort(result.latency_ms.begin(), result.latency_ms.end());
    std::sort(result.lag_us.begin(), result.lag_us.end());
    return result;
  }

 private:
  static constexpr int64_t kDrainNs = 1'000'000'000;
  static constexpr int64_t kQuiesceNs = 10'000'000'000;

  struct Pending {
    int64_t due_ns = 0;
    uint32_t tmpl = 0;
    // Already counted as unanswered by an earlier phase: its response is
    // read and dropped.
    bool stale = false;
  };
  struct Conn {
    int fd = -1;
    std::deque<Pending> fifo;          // Sent (or queued) requests, in order.
    std::deque<std::string_view> out;  // Unsent bytes: views of template wires.
    size_t out_offset = 0;
    std::string in;
    size_t in_offset = 0;
  };

  dbase::Status OpenConn(Conn& conn) {
    ASSIGN_OR_RETURN(int fd, ConnectLoopback(port_));
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    conn.fd = fd;
    return dbase::OkStatus();
  }
  static void CloseConn(Conn& conn) {
    if (conn.fd >= 0) {
      close(conn.fd);
    }
    conn.fd = -1;
    conn.fifo.clear();
    conn.out.clear();
    conn.out_offset = 0;
    conn.in.clear();
    conn.in_offset = 0;
  }

  size_t Outstanding() const {
    size_t n = 0;
    for (const Conn& conn : conns_) {
      n += conn.fifo.size();
    }
    return n;
  }

  // Ties go round-robin, so every connection stays in use: the server reaps
  // a keep-alive connection that has been idle for 10 s.
  void Dispatch(int64_t due, uint32_t tmpl, int64_t now, PhaseResult* result) {
    ++result->sent;
    result->lag_us.push_back(NsToUs(now - due));
    Conn* best = nullptr;
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = conns_[(next_ + i) % conns_.size()];
      if (conn.fd >= 0 && (best == nullptr || conn.fifo.size() < best->fifo.size())) {
        best = &conn;
      }
    }
    if (best == nullptr) {
      ++result->transport;
      return;
    }
    next_ = static_cast<size_t>(best - conns_.data()) + 1;
    best->fifo.push_back({due, tmpl});
    best->out.push_back(inputs_.templates[tmpl].wire);
    Send(*best, result);
  }

  // The connection broke (reset, or bytes that are not an HTTP response):
  // everything it still carried failed in transport, and it is replaced.
  void Fail(Conn& conn, PhaseResult* result) {
    for (const Pending& pending : conn.fifo) {
      result->transport += pending.stale ? 0 : 1;
    }
    CloseConn(conn);
    (void)OpenConn(conn);  // On failure the connection stays closed and unused.
  }

  void Send(Conn& conn, PhaseResult* result) {
    while (!conn.out.empty()) {
      iovec iov[64];
      size_t count = 0;
      size_t skip = conn.out_offset;
      for (const std::string_view chunk : conn.out) {
        if (count == 64) {
          break;
        }
        iov[count].iov_base = const_cast<char*>(chunk.data() + skip);
        iov[count].iov_len = chunk.size() - skip;
        skip = 0;
        ++count;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = count;
      const ssize_t n = sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          Fail(conn, result);
        }
        return;
      }
      size_t advanced = static_cast<size_t>(n);
      while (advanced > 0) {
        const size_t left = conn.out.front().size() - conn.out_offset;
        if (advanced < left) {
          conn.out_offset += advanced;
          break;
        }
        advanced -= left;
        conn.out.pop_front();
        conn.out_offset = 0;
      }
    }
  }

  void Receive(Conn& conn, PhaseResult* result) {
    char buf[65536];
    while (true) {
      const ssize_t n = recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        conn.in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        Fail(conn, result);
        return;
      }
      break;
    }
    const int64_t now = NowNs();
    while (true) {
      const std::string_view pending = std::string_view(conn.in).substr(conn.in_offset);
      bool broken = false;
      const auto frame = NextResponse(pending, &broken);
      if (broken || (frame.has_value() && conn.fifo.empty())) {
        Fail(conn, result);
        return;
      }
      if (!frame.has_value()) {
        break;
      }
      const Pending request = conn.fifo.front();
      conn.fifo.pop_front();
      conn.in_offset += frame->total;
      if (request.stale) {
        continue;
      }
      if (frame->status != 200) {
        ++result->non200;
      } else if (!inputs_.Verify(inputs_.templates[request.tmpl],
                                 pending.substr(frame->head, frame->total - frame->head))) {
        ++result->wrong_body;
      } else {
        ++result->ok;
        result->latency_ms.push_back(NsToMs(now - request.due_ns));
      }
    }
    if (conn.in_offset == conn.in.size()) {
      conn.in.clear();
      conn.in_offset = 0;
    } else if (conn.in_offset > (1u << 20)) {
      conn.in.erase(0, conn.in_offset);
      conn.in_offset = 0;
    }
  }

  // Waits until a connection is ready or `until_ns` passes.
  void PollUntil(int64_t until_ns, PhaseResult* result) {
    pollfd fds[64];
    Conn* owners[64];
    nfds_t count = 0;
    for (Conn& conn : conns_) {
      if (conn.fd < 0 || count == 64) {
        continue;
      }
      // Idle connections are watched too: a close by the server then
      // reopens them before a request is lost to it.
      short events = POLLIN;
      if (!conn.out.empty()) {
        events |= POLLOUT;
      }
      fds[count] = {conn.fd, events, 0};
      owners[count] = &conn;
      ++count;
    }
    const int64_t wait_ns = std::max<int64_t>(0, until_ns - NowNs());
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    if (ppoll(fds, count, &timeout, nullptr) <= 0) {
      return;
    }
    for (nfds_t i = 0; i < count; ++i) {
      Conn& conn = *owners[i];
      if (fds[i].revents & POLLOUT) {
        Send(conn, result);
      }
      if (conn.fd == fds[i].fd && (fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
        Receive(conn, result);
      }
    }
  }

  uint16_t port_;
  const Inputs& inputs_;
  std::vector<Conn> conns_;
  size_t next_ = 0;  // Where the search for the least-loaded connection starts.
};

// ------------------------------------------------------ generator process

// Byte-level encoding of the commands and results that cross the pipes.
class Wire {
 public:
  template <typename T>
  void Put(const T& value) {
    out_.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }
  void PutDoubles(const std::vector<double>& values) {
    Put<uint64_t>(values.size());
    out_.append(reinterpret_cast<const char*>(values.data()), values.size() * sizeof(double));
  }
  const std::string& bytes() const { return out_; }

  explicit Wire(std::string in = {}) : in_(std::move(in)) {}
  template <typename T>
  bool Get(T* value) {
    if (in_.size() - pos_ < sizeof(T)) {
      return false;
    }
    std::memcpy(value, in_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool GetDoubles(std::vector<double>* values) {
    uint64_t n = 0;
    if (!Get(&n) || (in_.size() - pos_) / sizeof(double) < n) {
      return false;
    }
    values->resize(n);
    std::memcpy(values->data(), in_.data() + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
    return true;
  }

 private:
  std::string out_;
  std::string in_;
  size_t pos_ = 0;
};

inline bool WriteAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

inline bool ReadAll(int fd, size_t size, std::string* out) {
  out->resize(size);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = read(fd, out->data() + done, size - done);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

// A length-prefixed message.
inline bool SendMessage(int fd, const Wire& message) {
  Wire framed;
  framed.Put<uint64_t>(message.bytes().size());
  return WriteAll(fd, framed.bytes() + message.bytes());
}
inline bool ReceiveMessage(int fd, Wire* message) {
  std::string header;
  uint64_t size = 0;
  if (!ReadAll(fd, sizeof(size), &header)) {
    return false;
  }
  std::memcpy(&size, header.data(), sizeof(size));
  std::string body;
  if (size > (1ull << 32) || !ReadAll(fd, size, &body)) {
    return false;
  }
  *message = Wire(std::move(body));
  return true;
}

// The load generator in a child process. Start() forks it while the caller
// is still single-threaded; Connect() and Run() are requests it serves one
// at a time. The child dies with its parent.
class GeneratorProcess {
 public:
  GeneratorProcess() = default;
  GeneratorProcess(const GeneratorProcess&) = delete;
  GeneratorProcess& operator=(const GeneratorProcess&) = delete;
  ~GeneratorProcess() { Stop(); }

  dbase::Status Start(const Inputs& inputs, int connections) {
    int down[2];
    int up[2];
    if (pipe2(down, O_CLOEXEC) != 0) {
      return dbase::Internal("pipe() failed");
    }
    if (pipe2(up, O_CLOEXEC) != 0) {
      close(down[0]);
      close(down[1]);
      return dbase::Internal("pipe() failed");
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) {
      for (const int fd : {down[0], down[1], up[0], up[1]}) {
        close(fd);
      }
      return dbase::Internal("fork() failed");
    }
    if (pid == 0) {
      close(down[1]);
      close(up[0]);
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) {
        _exit(1);
      }
      Serve(inputs, connections, down[0], up[1]);
      _exit(0);
    }
    close(down[0]);
    close(up[1]);
    pid_ = pid;
    to_child_ = down[1];
    from_child_ = up[0];
    return dbase::OkStatus();
  }

  // Opens the keep-alive connections to the server on `port`. The RenderLogs
  // reference digest is only known once the server is set up, so it is
  // handed over here.
  dbase::Status Connect(uint16_t port, uint64_t html_digest) {
    Wire request;
    request.Put<uint32_t>(kConnect);
    request.Put<uint16_t>(port);
    request.Put<uint64_t>(html_digest);
    Wire reply;
    uint8_t ok = 0;
    if (!SendMessage(to_child_, request) || !ReceiveMessage(from_child_, &reply) ||
        !reply.Get(&ok)) {
      return dbase::Internal("load generator process lost");
    }
    return ok != 0 ? dbase::OkStatus() : dbase::Unavailable("loopback connect failed");
  }

  dbase::Result<PhaseResult> Run(const PhasePlan& plan, uint64_t seed) {
    Wire request;
    request.Put<uint32_t>(kRun);
    request.Put(plan.rate);
    request.Put(plan.seconds);
    request.Put(plan.stream);
    request.Put(seed);
    Wire reply;
    if (!SendMessage(to_child_, request)) {
      return dbase::Internal("load generator process lost");
    }
    PhaseResult r;
    r.name = plan.name;
    r.rate = plan.rate;
    r.seconds = plan.seconds;
    const bool ok = ReceiveMessage(from_child_, &reply) &&
              reply.Get(&r.sent) && reply.Get(&r.ok) && reply.Get(&r.non200) &&
              reply.Get(&r.wrong_body) && reply.Get(&r.transport) && reply.Get(&r.unanswered) &&
              reply.Get(&r.backlog_at_end) && reply.Get(&r.host_steal) &&
              reply.GetDoubles(&r.latency_ms) && reply.GetDoubles(&r.lag_us);
    if (!ok) {
      return dbase::Internal("load generator process lost");
    }
    return r;
  }

  // Asks the child to close its connections and exit, then reaps it.
  void Stop() {
    if (pid_ <= 0) {
      return;
    }
    Wire request;
    request.Put<uint32_t>(kQuit);
    (void)SendMessage(to_child_, request);
    close(to_child_);
    close(from_child_);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  enum Command : uint32_t { kConnect = 1, kRun = 2, kQuit = 3 };

  // Runs in the child, on its own copy of the inputs.
  static void Serve(Inputs inputs, int connections, int in, int out) {
    std::unique_ptr<LoadGen> gen;
    Wire request;
    while (ReceiveMessage(in, &request)) {
      uint32_t command = 0;
      if (!request.Get(&command) || command == kQuit) {
        return;
      }
      Wire reply;
      if (command == kConnect) {
        uint16_t port = 0;
        request.Get(&port);
        request.Get(&inputs.html_digest);
        gen = std::make_unique<LoadGen>(port, inputs, connections);
        reply.Put<uint8_t>(gen->Open().ok() ? 1 : 0);
      } else if (command == kRun && gen != nullptr) {
        PhasePlan plan;
        uint64_t seed = 0;
        request.Get(&plan.rate);
        request.Get(&plan.seconds);
        request.Get(&plan.stream);
        request.Get(&seed);
        const PhaseResult r = gen->Run(plan, seed);
        for (const uint64_t count : {r.sent, r.ok, r.non200, r.wrong_body, r.transport,
                                     r.unanswered, r.backlog_at_end}) {
          reply.Put(count);
        }
        reply.Put(r.host_steal);
        reply.PutDoubles(r.latency_ms);
        reply.PutDoubles(r.lag_us);
      } else {
        return;
      }
      if (!SendMessage(out, reply)) {
        return;
      }
    }
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

}  // namespace e2e

#endif  // BENCH_E2E_LOADGEN_H_
