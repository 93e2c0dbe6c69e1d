// common.h — shared plumbing of the perfbench workloads: clocks, seeded
// inputs, percentiles, the in-memory span recorder and the report every
// workload returns to main().
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;  // where the traced run writes its spans
  int threads = 1;        // load-generator threads == connections == workers
};

// One named measurement with its unit. A timing with `host_scaled` cleared
// is already on the nominal host (the workload scaled it by a reference of
// its own) and main() leaves it alone.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool host_scaled = true;
};

// What a workload hands back to main(). `metrics` carries the end-to-end
// numbers on an untraced run and the per-layer numbers on a traced one;
// `info` carries the context lines (sample counts, the named metrics of the
// workload, validity flags) that are printed but not compared.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> info;
  // Whether main() scales the end-to-end timings to the nominal host (see
  // kCalibrationNominalMs). A workload whose speed does not follow the
  // calibration loop reports its timings as measured.
  bool host_scaled = true;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
  // Record `count` failed operations: counted, and the run is marked wrong.
  void fail(const std::string& what, uint64_t count = 1);
};

// Nearest-rank percentile (p in [0,100]) of an unsorted sample; sorts it.
[[nodiscard]] double percentile(std::vector<double>& v, double p);
[[nodiscard]] double mean(const std::vector<double>& v);

// A stretch of consecutive operations: their latencies and the wall time
// the stretch took.
struct Group {
  std::vector<double> latency_ms;
  double seconds = 0;
};

// The end-to-end numbers of a run, each the median across groups of the
// group's own p50, tail percentile and operations per second. The host is
// shared: a slow stretch of it moves only the groups it overlaps, and the
// median across groups sets those aside, while a slowdown of the program
// itself moves every group.
struct Summary {
  double p50_ms = 0;
  double tail_ms = 0;
  double ops_per_s = 0;
  size_t groups = 0;
  size_t samples = 0;
};
[[nodiscard]] Summary summarize(std::vector<Group> groups, double tail_pct);

// Consecutive runs of `size` samples (in the order given), each timed by
// its own latencies; a trailing remainder under half a group is dropped.
[[nodiscard]] std::vector<Group> chunk(const std::vector<double>& latency_ms,
                                       size_t size);

// Seeded i16 pixel lanes in [0, 255] (the kernels' data contract) viewed
// as the byte buffers the buffer-capable kernels accept.
[[nodiscard]] std::vector<uint8_t> make_input(size_t bytes, uint64_t seed);

// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

// Steal and total CPU ticks of the whole machine so far, over all CPUs
// (/proc/stat; zeros where it cannot be read). Steal is time the
// hypervisor gave to other guests: a run measured while it was high is
// recognisable by it.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();
// Steal between two snapshots, in percent of all CPU time.
[[nodiscard]] double steal_pct(const CpuTicks& before, const CpuTicks& after);

// The shared host's speed drifts by up to 1.45x over minutes, with no steal
// to show for it. A fixed loop of the benchmark's own (xorshift scatter
// into a 256 KiB table on `threads` threads, none of the program under
// test) measures that speed: calibration_ms times `reps` rounds of it.
// main() runs rounds before and after the workload, and the workloads with
// many units of work run two between units (calibrate_between), so the
// rounds sample the host over the whole run. Interference only ever slows
// a round, so the host's speed is the rounds' lower quartile. End-to-end
// timings are scaled to a host on which it reads kCalibrationNominalMs,
// unless the workload clears Report::host_scaled.
inline constexpr double kCalibrationNominalMs = 11.0;
[[nodiscard]] std::vector<double> calibration_ms(int threads, int reps);
void calibrate_between(int threads);
// The rounds calibrate_between took so far.
[[nodiscard]] const std::vector<double>& calibration_between();

// Waits until `due_ns` on the steady clock and returns the time it woke.
// It sleeps to just short of the due time and spins the rest, with this
// thread's timer slack cut to 1 ns: a plain sleep wakes 50-70 us late on
// the 4-core host, which an open-loop generator would count as latency.
int64_t wait_until(int64_t due_ns);

// The round-trip time of the service's wake-up chain without any of the
// program's code: `connections` loopback TCP connections, each served by a
// thread that hands every message through a mutex/condition-variable
// queue to one of `connections` workers and sends it back, driven by
// seeded Poisson arrivals at `rate` messages/s in all for `seconds`.
// Returns the median round trip in microseconds, timed from the due time
// (0 when the sockets cannot be set up).
// At light load wire latency is mostly such wake-ups, and on the shared
// host their cost wanders by +-20% between runs, moving the compute-bound
// calibration loop far less; kEchoNominalUs is the median on the host the
// bounds were set on.
inline constexpr double kEchoNominalUs = 90.0;
[[nodiscard]] double loopback_echo_us(int connections, double rate,
                                      double seconds, uint64_t seed);

// Span recorder for the traced run: name, start, end, parent and request
// id, kept in memory and written once at exit. Thread-safe. Untraced runs
// pass no recorder at all, so their code paths pay one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  // index of the enclosing span, -1 at the root
    uint64_t request = 0;
  };

  // Append a finished span; returns its index (the parent handle).
  int64_t add(std::string name, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1, uint64_t request = 0);

  // Mean duration of the spans called `name`, in microseconds (0: none).
  [[nodiscard]] double mean_us(const std::string& name) const;
  [[nodiscard]] size_t count(const std::string& name) const;

  // Write every span as one JSON object per line. False on I/O failure.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Runs `fn` and records it as a span; returns what `fn` returns.
template <typename Fn>
auto traced(Tracer& t, const char* name, int64_t parent, uint64_t request,
            Fn&& fn) {
  const int64_t t0 = now_ns();
  auto r = fn();
  t.add(name, t0, now_ns(), parent, request);
  return r;
}

// Workload entry points (one per file). Each returns after measuring for
// opts.seconds; setup ends where it calls mark_ready().
void mark_ready();
[[nodiscard]] double setup_seconds();

Report run_wire_open(const Options& opts, Tracer* tracer);
Report run_frame_tiled(const Options& opts, Tracer* tracer);
Report run_sim_suite(const Options& opts, Tracer* tracer);
Report run_plan_cold(const Options& opts, Tracer* tracer);

}  // namespace perfbench
