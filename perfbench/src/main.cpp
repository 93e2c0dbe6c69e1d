// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--setup-only] [--trace-out <path>] [--revision <text>]
//
// Runs one workload and prints, as its last stdout line, one JSON object:
// correctness, operations attempted and failed, the measured metrics
// (end-to-end on an untraced run, per-layer on a traced one), context notes
// and the host stamp. perfbench/run.py drives it; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace {

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload wire_open|frame_tiled|sim_suite|"
               "plan_cold --seed N --seconds S --trace 0|1 [--setup-only]\n"
               "                 [--trace-out PATH] [--revision TEXT]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string revision = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--setup-only") {
      opts.setup_only = true;
    } else if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out" && has_value) {
      opts.trace_out = argv[++i];
    } else if (a == "--revision" && has_value) {
      revision = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(opts.seconds > 0)) return usage();
  opts.threads = static_cast<int>(std::thread::hardware_concurrency());
  if (opts.threads <= 0) opts.threads = 1;

  Report (*run)(const Options&, Tracer*) = nullptr;
  if (opts.workload == "wire_open") run = run_wire_open;
  if (opts.workload == "frame_tiled") run = run_frame_tiled;
  if (opts.workload == "sim_suite") run = run_sim_suite;
  if (opts.workload == "plan_cold") run = run_plan_cold;
  if (run == nullptr) return usage();

  // Host speed before and after the workload (see kCalibrationNominalMs);
  // the rounds before it are not set-up time.
  constexpr int kCalibrationReps = 8;
  const int64_t c0 = now_ns();
  std::vector<double> calibration = calibration_ms(opts.threads, kCalibrationReps);
  const double calibration_s = static_cast<double>(now_ns() - c0) * 1e-9;

  Tracer tracer;
  const CpuTicks ticks0 = cpu_ticks();
  Report rep = run(opts, opts.trace ? &tracer : nullptr);
  const double steal = steal_pct(ticks0, cpu_ticks());
  const std::vector<double> after = calibration_ms(opts.threads, kCalibrationReps);
  calibration.insert(calibration.end(), after.begin(), after.end());
  const auto& between = calibration_between();
  calibration.insert(calibration.end(), between.begin(), between.end());
  const double calibration_q1 = percentile(calibration, 25);
  rep.note("host.calibration_ms", calibration_q1, "ms");
  rep.note("host.calibration_rounds", static_cast<double>(calibration.size()),
           "count");
  if (!opts.trace) {
    rep.metrics.insert(rep.metrics.begin(),
                       {{"setup_s", setup_seconds() - calibration_s, "s"},
                        {"peak_rss_mb", peak_rss_mb(), "MB"}});
    // End-to-end timings as on the nominal host; the measured ones are
    // kept in the notes.
    const double slowdown =
        rep.host_scaled ? calibration_q1 / kCalibrationNominalMs : 1.0;
    for (Metric& m : rep.metrics) {
      const bool time = m.unit == "ms" || m.unit == "s";
      if ((!time && m.unit != "1/s") || !m.host_scaled) continue;
      rep.note("measured." + m.name, m.value, m.unit);
      m.value = time ? m.value / slowdown : m.value * slowdown;
    }
  }
  if (opts.trace && !opts.trace_out.empty() && !tracer.write(opts.trace_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", opts.trace_out.c_str());
    rep.correct = false;
  }
  const double fail_ratio =
      rep.attempted == 0 ? 0.0
                         : static_cast<double>(rep.failed) /
                               static_cast<double>(rep.attempted);
  if (opts.trace) rep.metric("fail_ratio", fail_ratio, "ratio");
  rep.note("fail_ratio", fail_ratio, "ratio");

  const std::string host =
      "{\"nproc\": " + std::to_string(opts.threads) +
      ", \"compiler\": " + json_string(kCompiler) +
      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
      ", \"revision\": " + json_string(revision) +
      ", \"seed\": " + std::to_string(opts.seed) +
      ", \"steal_pct\": " + json_number(steal) + "}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s, \"info\": %s, \"host\": %s}\n",
      rep.correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed),
      json_metrics(rep.metrics).c_str(), json_metrics(rep.info).c_str(),
      host.c_str());
  return rep.correct ? 0 : 1;
}
