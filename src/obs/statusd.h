// Embedded HTTP/1.1 status server: the live operational surface over the
// observability layer. Where every existing exporter in src/obs writes a
// file *after* the run, the status server answers scrapes *during* it:
//
//   GET /healthz          liveness + current run state
//   GET /metrics          Prometheus text exposition, rendered per scrape
//   GET /runs             JSON listing of known runs (newest current)
//   GET /runs/<id>        live per-run snapshot (phase, subtask counts,
//                         cache hit rate, active subtasks + stragglers);
//                         `/runs/current` aliases the newest run
//   GET /explain?device=&prefix=
//                         provenance decision chain (provenance.h), when a
//                         recorder is attached and the target is watched
//
// Every endpoint reads one observability context (telemetry.h): its metrics,
// the RunRegistry attached to it, the ProvenanceRecorder attached to it.
//
// Dependency-free by design: POSIX sockets, HTTP/1.1 parsed just far enough
// for GET request lines (everything else is 400/405), one accept thread plus
// a short-lived thread per connection capped at `maxConnections` (over the
// cap the server answers 503 immediately rather than queueing — a scrape
// stampede must never back-pressure the verification run). `handle()` is the
// socket-free core, exposed so tests can drive every endpoint without a
// port.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "obs/run_registry.h"
#include "obs/telemetry.h"

namespace hoyan::obs {

struct StatusServerOptions {
  // Port to bind (loopback only); 0 picks an ephemeral port — read the
  // result from `port()` after start().
  uint16_t port = 0;
  // Concurrent in-flight connections; excess requests get 503.
  size_t maxConnections = 8;
  // The context served, resolved once at construction by
  // Telemetry::resolve (null: the process global, else the disabled
  // context). Endpoints whose source is missing — the metrics of the
  // disabled context, a registry or recorder never attached — answer 503
  // with a JSON error body.
  Telemetry* telemetry = nullptr;
};

struct HttpResponse {
  int status = 200;
  std::string contentType = "application/json";
  std::string body;
};

class StatusServer {
 public:
  explicit StatusServer(StatusServerOptions options = {});
  ~StatusServer();  // Joins the accept thread; equivalent to stop().

  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  // Binds 127.0.0.1:<port>, starts the accept thread. False (with errno
  // intact) when the socket can't be bound; already-running is a no-op true.
  bool start();
  // Stops accepting, closes the listener, and joins every in-flight
  // connection thread. Safe to call twice.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // The bound port (resolves port 0), 0 before start().
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  // Routes one request; the socket-free core of the server. `target` is the
  // request-target including any query string (e.g. "/explain?device=R1&
  // prefix=10.0.0.0/8").
  HttpResponse handle(std::string_view method, std::string_view target) const;

 private:
  HttpResponse handleHealthz() const;
  HttpResponse handleMetrics() const;
  HttpResponse handleRunList() const;
  HttpResponse handleRun(std::string_view idText) const;
  HttpResponse handleExplain(std::string_view query) const;

  void acceptLoop();
  void serveConnection(int fd);

  StatusServerOptions options_;
  Telemetry& context_;
  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
  int listenFd_ = -1;
  std::thread acceptThread_;
  // In-flight connection accounting: serveConnection threads detach, so
  // stop() waits on this count instead of joining them individually.
  mutable std::mutex connMutex_;
  std::condition_variable connCv_;
  size_t activeConnections_ = 0;
};

// Serializers behind /runs and /runs/<id>, exposed so the schema tests and
// the CI smoke job validate the exact bytes the endpoints serve.
std::string runSnapshotToJson(const RunSnapshot& snapshot);
std::string runSummaryToJson(const RunSummary& summary);

}  // namespace hoyan::obs
