// Benchmark driver binary. perfbench/run.py builds it and runs
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--rev <revision>]
//
// It prints a readable report and, as its last line, one JSON object with
// the keys correct, attempted, failed and metrics. The exit code is 0 only
// when every answer matched its reference.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "core/interaction_lists.hpp"
#include "core/kernels_simd.hpp"
#include "runner.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--rev <revision>]\nworkloads:");
  for (const std::string& name : perfbench::workload_names())
    std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string rev = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") return usage();
    } else if (flag == "--rev") {
      rev = value;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (!have_workload || !(args.seconds > 0.0)) return usage();

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // Provenance: enough to trace a number to a dispatch or tiling change.
  std::printf(
      "provenance {\"rev\": \"%s\", \"simd_dispatch\": \"%s\", \"tile_bytes\": %zu, "
      "\"nproc\": %u, \"l2_bytes\": %zu}\n",
      json_escape(rev).c_str(), gbpol::simd_dispatch_name(), gbpol::default_tile_bytes(),
      std::thread::hardware_concurrency(), gbpol::detected_l2_bytes());
  for (const perfbench::Metric& m : report.metrics)
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const perfbench::Metric& m : report.details)
    std::printf("detail %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  // JSON has no NaN or infinity; a non-finite figure is a benchmark bug and
  // fails the run.
  std::string metrics;
  char buf[64];
  for (const perfbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      ++report.other_mismatches;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    metrics += metrics.empty() ? "" : ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}
