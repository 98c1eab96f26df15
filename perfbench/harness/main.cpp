// perfbench: the repository benchmark harness.
//
//   perfbench --workload <campaign|campaign-faults|serve|dock>
//             --seconds <s> --trace <0|1> [--smoke]
//             [--campaign-seed <n>] [--serve-seed <n>]
//             [--protein-seeds <receptor>,<ligand>] [--dock-first <isep>]
//             [--commit <id>] [--history <file.jsonl>] [--trace-out <file>]
//
// Prints a table of every metric (value, unit, sample count), one metadata
// line, and as its last line the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Untraced runs report the end-to-end metrics (setup_s, peak_rss_mb,
// work_s). Traced runs report the per-layer metrics: the layer probes,
// which are the same on every workload, plus the end-to-end metrics of the
// traced run renamed `traced.*`, so the cost of the harness's own spans is
// visible beside the untraced numbers. A traced run also prints the
// workload's own breakdown (core.*, client.*, docking.*, ...) in the table
// and on a `details` line. perfbench/run.py builds this program and
// derives every seed.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v[8] = {};
  stat >> cpu;
  for (double& x : v) stat >> x;
  return cpu == "cpu" ? v[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

bool Spans::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d}}",
                  i ? "," : "", s.name, static_cast<unsigned long long>(s.id),
                  s.start * 1e6, std::max(0.0, s.end - s.start) * 1e6, i,
                  s.parent);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::string commit = "unknown";
  std::string history;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    auto integer = [&] {
      const unsigned long long n = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage(("bad integer for " + a).c_str());
      return n;
    };
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) usage("bad --seconds");
    } else if (a == "--trace") {
      opt.trace = integer() != 0;
    } else if (a == "--campaign-seed") {
      opt.campaign_seed = integer();
    } else if (a == "--serve-seed") {
      opt.serve_seed = integer();
    } else if (a == "--dock-first") {
      opt.dock_first = static_cast<std::uint32_t>(integer());
    } else if (a == "--protein-seeds") {
      unsigned long long r = 0, l = 0;
      if (std::sscanf(v, "%llu,%llu", &r, &l) != 2)
        usage("bad --protein-seeds (want R,L)");
      opt.receptor_seed = r;
      opt.ligand_seed = l;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--history") {
      history = v;
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }

  Sheet sheet;
  Spans spans;
  Spans* sp = opt.trace ? &spans : nullptr;
  const auto t0 = Clock::now();
  const double steal0 = steal_seconds();
  try {
    if (opt.workload == "campaign")
      run_campaign_workload(opt, false, sheet, sp);
    else if (opt.workload == "campaign-faults")
      run_campaign_workload(opt, true, sheet, sp);
    else if (opt.workload == "serve")
      run_serve_workload(opt, sheet, sp);
    else if (opt.workload == "dock")
      run_dock_workload(opt, sheet, sp);
    else
      usage("--workload must be campaign, campaign-faults, serve or dock");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  sheet.add("peak_rss_mb", peak_rss_mb(), "MB");
  // CPU time the hypervisor took from this machine during the workload:
  // the context for any timing that moved without a code change.
  const double steal_s = steal_seconds() - steal0;
  if (opt.trace) {
    try {
      campaign_layer_probes(opt, sheet, sp);
      serve_layer_probes(opt, sheet, sp);
      dock_layer_probes(opt, sheet, sp);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: layer probes failed: %s\n", e.what());
      return 1;
    }
  }
  const double run_s = seconds_between(t0, Clock::now());

  std::string metrics, details, table;
  std::ostringstream samples;
  for (Metric& m : sheet.metrics) {
    if (m.kind != Kind::kEndToEnd && !opt.trace) continue;
    if (opt.trace && m.kind == Kind::kEndToEnd) m.name = "traced." + m.name;
    if (!std::isfinite(m.value)) {
      sheet.check(false, m.name + " is not finite");
      m.value = -1.0;
    }
    char row[200];
    std::snprintf(row, sizeof row, "  %-36s %16.6g %-6s n=%llu%s\n",
                  m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples),
                  m.kind == Kind::kDetail ? "  (detail)" : "");
    table += row;
    const std::string entry = json_string(m.name) +
                              ": {\"value\": " + number(m.value) +
                              ", \"unit\": " + json_string(m.unit) + "}";
    std::string& out = m.kind == Kind::kDetail ? details : metrics;
    out += (out.empty() ? "" : ", ") + entry;
    samples << (samples.tellp() > 0 ? ", " : "") << json_string(m.name)
            << ": " << m.samples;
  }
  for (const std::string& f : sheet.failures)
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());

  char seeds[256];
  std::snprintf(seeds, sizeof seeds,
                "{\"campaign\": %llu, \"serve\": %llu, \"receptor\": %llu, "
                "\"ligand\": %llu, \"dock_first\": %u}",
                static_cast<unsigned long long>(opt.campaign_seed),
                static_cast<unsigned long long>(opt.serve_seed),
                static_cast<unsigned long long>(opt.receptor_seed),
                static_cast<unsigned long long>(opt.ligand_seed),
                opt.dock_first);
  const std::string meta =
      "{\"workload\": " + json_string(opt.workload) +
      ", \"trace\": " + (opt.trace ? "1" : "0") +
      ", \"smoke\": " + (opt.smoke ? "true" : "false") +
      ", \"nproc\": " + std::to_string(opt.nproc) +
      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
      ", \"commit\": " + json_string(commit) + ", \"seeds\": " + seeds +
      ", \"seconds\": " + number(opt.seconds) +
      ", \"run_s\": " + number(run_s) + ", \"steal_s\": " + number(steal_s) +
      ", \"samples\": {" + samples.str() + "}}";
  const bool correct = sheet.failed == 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(sheet.attempted) +
      ", \"failed\": " + std::to_string(sheet.failed) + ", \"metrics\": {" +
      metrics + "}}";

  if (sp && !opt.trace_out.empty() && !spans.write_chrome(opt.trace_out))
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
  if (!history.empty()) {
    std::ofstream h(history, std::ios::app);
    h << "{\"meta\": " << meta << ", \"details\": {" << details
      << "}, \"result\": " << result << "}\n";
  }
  std::printf("%s", table.c_str());
  if (opt.trace) std::printf("details {%s}\n", details.c_str());
  std::printf("meta %s\n", meta.c_str());
  std::printf("%s\n", result.c_str());
  return 0;
}
