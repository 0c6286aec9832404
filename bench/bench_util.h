// Shared setup for the reproduction benchmarks: the "WAN" and "WAN+DCN"
// environments (scaled-down but shape-preserving stand-ins for the paper's
// production network), timing helpers, and table/CDF printers.
//
// Scale note: the paper's WAN has >2000 routers, O(10^6) prefixes, O(10^9)
// flows, and runs on 10 physical servers. This repo reproduces the *shape*
// of every result on a laptop: the synthetic WAN has O(10^2) routers (the
// WAN+DCN variant O(10^3)), O(10^4) input routes, and O(10^5..10^6) flows,
// with worker threads standing in for servers. Relative factors (speedups,
// reduction ratios, crossovers) are the reproduction target, not absolute
// times. See EXPERIMENTS.md.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/run_registry.h"
#include "obs/statusd.h"
#include "obs/telemetry.h"

namespace hoyan::bench {

// Reads `--<name>=<value>` from /proc/self/cmdline (argv[] NUL-separated;
// absent outside Linux) falling back to the `env` variable. Works before
// main() and without touching each bench's argv handling (flags a bench does
// not read are ignored).
inline std::string benchFlag(const std::string& name, const char* env = nullptr) {
  std::ifstream cmdline("/proc/self/cmdline", std::ios::binary);
  std::string arg;
  const std::string prefix = "--" + name + "=";
  while (std::getline(cmdline, arg, '\0'))
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  if (env)
    if (const char* value = std::getenv(env)) return value;
  return {};
}

// Opt-in observability for every benchmark, with no per-bench changes. Any
// of these flags builds one `obs::Telemetry` and installs it as the process
// global (`Telemetry::global()`), which Hoyan, the distributed simulator, the
// sweep, the incremental engine and the diag entry points resolve when their
// caller passes no context:
//   --trace-out=<file>    (HOYAN_TRACE_OUT)    Chrome-trace spans + a metrics
//                                              snapshot at <file>.metrics.json
//   --metrics-out=<file>  (HOYAN_METRICS_OUT)  metrics snapshot alone
//   --journal-out=<file>  (HOYAN_JOURNAL_OUT)  run flight-recorder JSONL
//   --explain=<device>/<prefix>  (HOYAN_EXPLAIN)  attaches a prefix-scoped
//         ProvenanceRecorder; on exit the decision chain for the pair is
//         written as JSON to HOYAN_EXPLAIN_OUT (default "explain.json")
//   --serve=<port>        (HOYAN_SERVE)        attaches a RunRegistry and
//         serves the context on 127.0.0.1 (port 0 binds an ephemeral one):
//         /healthz, /metrics, /runs, /runs/<id> and /explain answer while the
//         bench runs. Extras for harnesses:
//     --serve-port-file=<path>  (HOYAN_SERVE_PORT_FILE)  write the bound
//                               port, so CI can discover an ephemeral one
//     --serve-linger=<seconds>  (HOYAN_SERVE_LINGER)     keep serving that
//                               long after the bench, for trailing scrapes
// Tracing and journaling are enabled only when their flag asks for the
// artifact. Implemented as a header-inline global so the hook runs before
// main() and, on exit, stops the server before it writes the artifacts and
// tears the context down.
class ObservabilityHook {
 public:
  ObservabilityHook() {
    tracePath_ = benchFlag("trace-out", "HOYAN_TRACE_OUT");
    metricsPath_ = benchFlag("metrics-out", "HOYAN_METRICS_OUT");
    journalPath_ = benchFlag("journal-out", "HOYAN_JOURNAL_OUT");
    const std::string explain = benchFlag("explain", "HOYAN_EXPLAIN");
    const std::string serve = benchFlag("serve", "HOYAN_SERVE");
    if (tracePath_.empty() && metricsPath_.empty() && journalPath_.empty() &&
        explain.empty() && serve.empty())
      return;
    obs::TelemetryOptions options;
    options.tracing = !tracePath_.empty();
    options.journal = !journalPath_.empty();
    telemetry_ = std::make_unique<obs::Telemetry>(options);
    if (!explain.empty() && obs::parseExplainTarget(explain, device_, prefix_)) {
      // Interning here forces the Names singleton to finish construction
      // before this hook does, so it is still alive when the destructor
      // renders the chain (function-local statics destroy in reverse
      // construction order).
      deviceId_ = Names::id(device_);
      obs::ProvenanceOptions provenance;
      provenance.enabled = true;
      provenance.prefixes.push_back(prefix_);
      recorder_ = std::make_unique<obs::ProvenanceRecorder>(provenance);
      telemetry_->attach(recorder_.get());
    }
    if (!serve.empty()) startServer(serve);
    obs::Telemetry::setGlobal(telemetry_.get());
  }

  ~ObservabilityHook() {
    if (!telemetry_) return;
    if (server_) {
      const std::string linger = benchFlag("serve-linger", "HOYAN_SERVE_LINGER");
      if (const int seconds = std::atoi(linger.c_str()); seconds > 0) {
        std::fprintf(stderr, "serve: lingering %ds for trailing scrapes\n", seconds);
        std::this_thread::sleep_for(std::chrono::seconds(seconds));
      }
      server_->stop();
    }
    obs::Telemetry::setGlobal(nullptr);
    if (!tracePath_.empty()) {
      if (obs::writeFile(tracePath_, telemetry_->tracer().toChromeTraceJson()))
        std::fprintf(stderr, "trace: %zu spans -> %s (open in chrome://tracing or "
                     "https://ui.perfetto.dev)\n",
                     telemetry_->tracer().eventCount(), tracePath_.c_str());
      else
        std::fprintf(stderr, "trace: failed to write %s\n", tracePath_.c_str());
      const std::string metricsPath = tracePath_ + ".metrics.json";
      if (obs::writeFile(metricsPath, telemetry_->metrics().toJson()))
        std::fprintf(stderr, "metrics snapshot -> %s\n", metricsPath.c_str());
    }
    if (!metricsPath_.empty()) {
      if (obs::writeFile(metricsPath_, telemetry_->metrics().toJson()))
        std::fprintf(stderr, "metrics snapshot -> %s\n", metricsPath_.c_str());
      else
        std::fprintf(stderr, "metrics: failed to write %s\n", metricsPath_.c_str());
    }
    if (!journalPath_.empty()) {
      if (obs::writeFile(journalPath_, telemetry_->journal().toJsonl()))
        std::fprintf(stderr, "journal: %zu events -> %s\n",
                     telemetry_->journal().eventCount(), journalPath_.c_str());
      else
        std::fprintf(stderr, "journal: failed to write %s\n", journalPath_.c_str());
    }
    if (recorder_) {
      std::string path = "explain.json";
      if (const char* env = std::getenv("HOYAN_EXPLAIN_OUT")) path = env;
      if (obs::writeFile(path, recorder_->explainJson(deviceId_, prefix_)))
        std::fprintf(stderr, "explain: %s/%s (%zu events recorded) -> %s\n",
                     device_.c_str(), prefix_.str().c_str(),
                     recorder_->eventCount(), path.c_str());
      else
        std::fprintf(stderr, "explain: failed to write %s\n", path.c_str());
    }
  }

 private:
  void startServer(const std::string& port) {
    registry_ = std::make_unique<obs::RunRegistry>();
    telemetry_->attach(registry_.get());
    obs::StatusServerOptions options;
    options.port = static_cast<uint16_t>(std::atoi(port.c_str()));
    options.telemetry = telemetry_.get();
    server_ = std::make_unique<obs::StatusServer>(options);
    if (!server_->start()) {
      std::fprintf(stderr, "serve: failed to bind 127.0.0.1:%s\n", port.c_str());
      server_.reset();
      return;
    }
    std::fprintf(stderr, "serve: live status on http://127.0.0.1:%u\n",
                 static_cast<unsigned>(server_->port()));
    const std::string portFile = benchFlag("serve-port-file", "HOYAN_SERVE_PORT_FILE");
    if (!portFile.empty())
      obs::writeFile(portFile, std::to_string(server_->port()) + "\n");
  }

  std::string tracePath_;
  std::string metricsPath_;
  std::string journalPath_;
  std::string device_;
  NameId deviceId_ = kInvalidName;
  Prefix prefix_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<obs::ProvenanceRecorder> recorder_;
  std::unique_ptr<obs::RunRegistry> registry_;
  std::unique_ptr<obs::StatusServer> server_;
};

inline ObservabilityHook g_observabilityHook;  // One per bench binary.

inline WanSpec wanSpec() {
  WanSpec spec;
  spec.regions = 10;
  spec.coresPerRegion = 3;
  spec.bordersPerRegion = 2;
  spec.dcsPerRegion = 3;
  spec.ispsPerBorder = 2;
  spec.seed = 42;
  return spec;
}

inline WanSpec wanDcnSpec() {
  WanSpec spec = wanSpec();
  spec.dcnCoresPerDc = 20;  // + 600 DCN core-layer routers.
  return spec;
}

inline WorkloadSpec benchWorkload() {
  WorkloadSpec workload;
  workload.prefixesPerIsp = 400;
  workload.prefixesPerDc = 60;
  workload.attrGroupSize = 5;
  workload.v6Share = 0.2;
  workload.seed = 7;
  return workload;
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Prints an aligned table: header row + data rows.
inline void printTable(const std::string& title,
                       const std::vector<std::vector<std::string>>& rows) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::vector<size_t> widths;
  for (const auto& row : rows) {
    if (widths.size() < row.size()) widths.resize(row.size());
    for (size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    std::string line = "  ";
    for (size_t i = 0; i < rows[r].size(); ++i) {
      line += rows[r][i];
      line.append(widths[i] - rows[r][i].size() + 2, ' ');
    }
    std::printf("%s\n", line.c_str());
    if (r == 0) {
      std::string rule = "  ";
      for (const size_t w : widths) rule.append(w + 2, '-');
      std::printf("%s\n", rule.c_str());
    }
  }
}

// Prints percentile points of a sample set (a CDF in table form).
inline void printCdf(const std::string& title, std::vector<double> samples,
                     const std::string& unit) {
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  std::vector<std::vector<std::string>> rows = {{"percentile", unit}};
  for (const double p : {0.0, 0.10, 0.25, 0.50, 0.75, 0.80, 0.90, 0.95, 1.0}) {
    const size_t index = obs::nearestRankIndex(p, samples.size());
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.4g", samples[index]);
    rows.push_back({std::to_string(static_cast<int>(p * 100)) + "%", buffer});
  }
  printTable(title, rows);
}

inline std::string fmt(double value, const char* format = "%.3g") {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

// The common machine-readable result artifact: every bench that reports
// numbers emits the same shape behind `--json-out=<file>` (env
// HOYAN_BENCH_JSON), so CI regression gates and ad-hoc tooling parse one
// schema instead of one per bench:
//
//   {"bench":"<name>",
//    "config":{...},     // What the run was (flags, sizes, seeds).
//    "metrics":{...},    // Dimensionless results (counts, rates, speedups).
//    "seconds":{...}}    // Every duration, in seconds.
//
// Keys within each section sort lexicographically (std::map), so the
// artifact is byte-deterministic for a deterministic run.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  void config(const std::string& name, const std::string& value) {
    config_[name] = quoted(value);
  }
  void config(const std::string& name, double value) { config_[name] = number(value); }
  void metric(const std::string& name, double value) { metrics_[name] = number(value); }
  void seconds(const std::string& name, double value) { seconds_[name] = number(value); }

  std::string str() const {
    std::string out = "{\"bench\":" + quoted(bench_);
    out += ",\"config\":" + section(config_);
    out += ",\"metrics\":" + section(metrics_);
    out += ",\"seconds\":" + section(seconds_);
    out += "}\n";
    return out;
  }

  // The path `--json-out=` / HOYAN_BENCH_JSON asks for; empty when absent.
  static std::string requestedPath() { return benchFlag("json-out", "HOYAN_BENCH_JSON"); }

  // Writes the artifact when one was requested. Returns false only on I/O
  // failure (no request is success).
  bool writeIfRequested() const {
    const std::string path = requestedPath();
    if (path.empty()) return true;
    const bool ok = obs::writeFile(path, str());
    std::fprintf(stderr, ok ? "bench json -> %s\n" : "bench json: failed to write %s\n",
                 path.c_str());
    return ok;
  }

 private:
  static std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    out += '"';
    return out;
  }

  static std::string number(double value) {
    if (!std::isfinite(value)) return "0";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    return buffer;
  }

  static std::string section(const std::map<std::string, std::string>& fields) {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, value] : fields) {
      if (!first) out += ',';
      first = false;
      out += quoted(name) + ":" + value;
    }
    out += '}';
    return out;
  }

  std::string bench_;
  std::map<std::string, std::string> config_;
  std::map<std::string, std::string> metrics_;
  std::map<std::string, std::string> seconds_;
};

}  // namespace hoyan::bench

namespace hoyan::bench {

// Models the end-to-end makespan of running `durations` on `workers` servers
// with FIFO list scheduling (the message-queue semantics of §3.2): each free
// worker pops the next subtask. Used to project the measured per-subtask
// runtimes onto cluster sizes beyond this machine's core count.
inline double modelMakespan(const std::vector<double>& durations, size_t workers) {
  if (workers == 0) workers = 1;
  std::vector<double> busyUntil(workers, 0.0);
  for (const double duration : durations) {
    auto next = std::min_element(busyUntil.begin(), busyUntil.end());
    *next += duration;
  }
  return *std::max_element(busyUntil.begin(), busyUntil.end());
}

}  // namespace hoyan::bench
