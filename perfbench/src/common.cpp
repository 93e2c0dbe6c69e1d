#include "common.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <numeric>
#include <thread>

#include "ref/workload.h"

namespace perfbench {

namespace {
int64_t g_start_ns = now_ns();  // process start, as close to main() as it gets
int64_t g_ready_ns = 0;
}  // namespace

void mark_ready() { g_ready_ns = now_ns(); }

double setup_seconds() {
  return static_cast<double>((g_ready_ns != 0 ? g_ready_ns : now_ns()) -
                             g_start_ns) *
         1e-9;
}

void Report::fail(const std::string& what, uint64_t count) {
  failed += count;
  if (correct) std::fprintf(stderr, "DIVERGENCE: %s\n", what.c_str());
  correct = false;
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

Summary summarize(std::vector<Group> groups, double tail_pct) {
  Summary s;
  std::vector<double> p50, tail, rate;
  for (auto& g : groups) {
    if (g.latency_ms.empty()) continue;
    s.samples += g.latency_ms.size();
    rate.push_back(static_cast<double>(g.latency_ms.size()) / g.seconds);
    p50.push_back(percentile(g.latency_ms, 50));
    tail.push_back(percentile(g.latency_ms, tail_pct));
  }
  s.groups = rate.size();
  s.p50_ms = percentile(p50, 50);
  s.tail_ms = percentile(tail, 50);
  s.ops_per_s = percentile(rate, 50);
  return s;
}

std::vector<Group> chunk(const std::vector<double>& latency_ms, size_t size) {
  std::vector<Group> out;
  for (size_t i = 0; i < latency_ms.size(); i += size) {
    const size_t n = std::min(size, latency_ms.size() - i);
    if (n * 2 < size && !out.empty()) break;
    Group g;
    g.latency_ms.assign(latency_ms.begin() + static_cast<ptrdiff_t>(i),
                        latency_ms.begin() + static_cast<ptrdiff_t>(i + n));
    g.seconds = std::accumulate(g.latency_ms.begin(), g.latency_ms.end(), 0.0) *
                1e-3;
    out.push_back(std::move(g));
  }
  return out;
}

std::vector<uint8_t> make_input(size_t bytes, uint64_t seed) {
  const auto lanes = subword::ref::make_pixels(bytes / 2, seed);
  std::vector<uint8_t> out(bytes, 0);
  std::copy_n(reinterpret_cast<const uint8_t*>(lanes.data()),
              lanes.size() * 2, out.begin());
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

CpuTicks cpu_ticks() {
  CpuTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.steal = v[7];
    for (const auto x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

std::vector<double> calibration_ms(int threads, int reps) {
  std::vector<double> out;
  std::atomic<uint64_t> sink{0};
  // Allocated and touched once, so no round times page faults, whose cost
  // depends on what the process did before.
  std::vector<std::vector<uint32_t>> tables(
      static_cast<size_t>(threads), std::vector<uint32_t>(1u << 16, 1));
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = now_ns();
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i) {
      pool.emplace_back([&sink, &tables, i] {
        uint64_t x = static_cast<uint64_t>(i) + 1;
        auto& table = tables[static_cast<size_t>(i)];
        for (int pass = 0; pass < 60; ++pass) {
          for (size_t j = 0; j < table.size(); ++j) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            table[(x >> 20) & 0xffff] += static_cast<uint32_t>(x);
          }
        }
        sink.fetch_add(std::accumulate(table.begin(), table.end(), x),
                       std::memory_order_relaxed);
      });
    }
    for (auto& t : pool) t.join();
    out.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return out;
}

namespace {
std::vector<double> g_between_ms;
}  // namespace

void calibrate_between(int threads) {
  const auto rounds = calibration_ms(threads, 2);
  g_between_ms.insert(g_between_ms.end(), rounds.begin(), rounds.end());
}

const std::vector<double>& calibration_between() { return g_between_ms; }

int64_t wait_until(int64_t due_ns) {
  constexpr int64_t kSpinNs = 60'000;
  thread_local const bool slack_cut =
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL) == 0;
  (void)slack_cut;
  int64_t now = now_ns();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(due_ns - kSpinNs)));
  }
  while ((now = now_ns()) < due_ns) {
  }
  return now;
}

double loopback_echo_us(int connections, double rate, double seconds,
                        uint64_t seed) {
  constexpr size_t kMessageBytes = 64;
  const auto n = static_cast<size_t>(connections);
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listener, connections) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (listener >= 0) ::close(listener);
    return 0;
  }
  std::vector<int> client(n, -1), server(n, -1);
  bool ok = true;
  const int one = 1;
  for (size_t i = 0; i < n && ok; ++i) {
    client[i] = ::socket(AF_INET, SOCK_STREAM, 0);
    ok = client[i] >= 0 &&
         ::connect(client[i], reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    if (ok) server[i] = ::accept(listener, nullptr, nullptr);
    ok = ok && server[i] >= 0;
    for (const int fd : {client[i], server[i]}) {
      if (fd >= 0) ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
  }
  ::close(listener);

  struct Job {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
  };
  std::mutex qm;
  std::condition_variable qcv;
  std::deque<Job*> queue;
  bool stop = false;
  std::vector<std::vector<double>> rtt_us(n);
  std::vector<std::thread> workers, servers, clients;
  if (ok) {
    for (size_t i = 0; i < n; ++i) {
      workers.emplace_back([&] {
        for (;;) {
          Job* job = nullptr;
          {
            std::unique_lock lock(qm);
            qcv.wait(lock, [&] { return stop || !queue.empty(); });
            if (queue.empty()) return;
            job = queue.front();
            queue.pop_front();
          }
          std::lock_guard lock(job->m);
          job->done = true;
          job->cv.notify_one();
        }
      });
      servers.emplace_back([&, i] {
        char buf[kMessageBytes];
        while (::recv(server[i], buf, sizeof buf, MSG_WAITALL) ==
               static_cast<ssize_t>(sizeof buf)) {
          Job job;
          {
            std::lock_guard lock(qm);
            queue.push_back(&job);
          }
          qcv.notify_one();
          {
            std::unique_lock lock(job.m);
            job.cv.wait(lock, [&] { return job.done; });
          }
          if (::send(server[i], buf, sizeof buf, MSG_NOSIGNAL) !=
              static_cast<ssize_t>(sizeof buf)) {
            ::shutdown(server[i], SHUT_RDWR);  // the client's read ends
            return;
          }
        }
      });
    }
    const int64_t t0 = now_ns() + 2'000'000;
    for (size_t i = 0; i < n; ++i) {
      clients.emplace_back([&, i] {
        subword::ref::Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (i + 1)));
        char buf[kMessageBytes] = {};
        double t = 0;
        for (;;) {
          const double u =
              (static_cast<double>(rng.next() >> 11) + 0.5) * 0x1.0p-53;
          t += -std::log(u) * static_cast<double>(n) / rate;
          if (t >= seconds) break;
          const int64_t due = t0 + static_cast<int64_t>(t * 1e9);
          wait_until(due);
          if (::send(client[i], buf, sizeof buf, MSG_NOSIGNAL) !=
                  static_cast<ssize_t>(sizeof buf) ||
              ::recv(client[i], buf, sizeof buf, MSG_WAITALL) !=
                  static_cast<ssize_t>(sizeof buf)) {
            return;
          }
          rtt_us[i].push_back(static_cast<double>(now_ns() - due) * 1e-3);
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  // Closing the client ends shut the serving threads' reads, then the
  // workers are stopped.
  for (const int fd : client) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& t : servers) t.join();
  {
    std::lock_guard lock(qm);
    stop = true;
  }
  qcv.notify_all();
  for (auto& t : workers) t.join();
  for (size_t i = 0; i < n; ++i) {
    for (const int fd : {client[i], server[i]}) {
      if (fd >= 0) ::close(fd);
    }
  }
  std::vector<double> all;
  for (const auto& v : rtt_us) all.insert(all.end(), v.begin(), v.end());
  return percentile(all, 50);
}

double steal_pct(const CpuTicks& before, const CpuTicks& after) {
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(std::max<uint64_t>(1, after.total - before.total));
}

int64_t Tracer::add(std::string name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, uint64_t request) {
  std::lock_guard lock(mu_);
  spans_.push_back({std::move(name), start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

double Tracer::mean_us(const std::string& name) const {
  std::lock_guard lock(mu_);
  double sum = 0;
  size_t n = 0;
  for (const auto& s : spans_) {
    if (s.name != name) continue;
    sum += static_cast<double>(s.end_ns - s.start_ns);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n) * 1e-3;
}

size_t Tracer::count(const std::string& name) const {
  std::lock_guard lock(mu_);
  return static_cast<size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [&](const Span& s) { return s.name == name; }));
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"request\": %llu}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
