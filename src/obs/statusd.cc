#include "obs/statusd.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <sstream>

#include "net/names.h"
#include "obs/json.h"
#include "obs/provenance.h"

namespace hoyan::obs {
namespace {

std::string jsonDouble(double value) {
  // Full round-trip precision without locale surprises; JSON has no inf/nan.
  if (!std::isfinite(value)) return "0";
  std::ostringstream out;
  out.precision(12);
  out << value;
  return out.str();
}

HttpResponse errorResponse(int status, std::string_view message) {
  HttpResponse response;
  response.status = status;
  response.body =
      "{\"error\":\"" + jsonEscape(std::string(message)) + "\"}\n";
  return response;
}

const char* statusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

// Percent-decodes a query component ('+' is a space, bad escapes pass
// through literally).
std::string urlDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%' && i + 2 < text.size() &&
               std::isxdigit(static_cast<unsigned char>(text[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(text[i + 2]))) {
      int value = 0;
      std::from_chars(text.data() + i + 1, text.data() + i + 3, value, 16);
      out += static_cast<char>(value);
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

// Extracts a query parameter value ("" when absent).
std::string queryParam(std::string_view query, std::string_view key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string_view::npos) end = query.size();
    std::string_view pair = query.substr(pos, end - pos);
    size_t eq = pair.find('=');
    std::string_view k = eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (k == key) {
      return urlDecode(eq == std::string_view::npos ? std::string_view{}
                                                    : pair.substr(eq + 1));
    }
    pos = end + 1;
  }
  return "";
}

}  // namespace

std::string runSummaryToJson(const RunSummary& summary) {
  std::string out = "{";
  out += "\"id\":" + std::to_string(summary.id);
  out += ",\"name\":\"" + jsonEscape(summary.name) + "\"";
  out += ",\"state\":\"" + jsonEscape(summary.state) + "\"";
  out += ",\"phase\":\"" + jsonEscape(summary.phase) + "\"";
  out += ",\"elapsed_seconds\":" + jsonDouble(summary.elapsedSeconds);
  out += ",\"pending\":" + std::to_string(summary.pending);
  out += ",\"running\":" + std::to_string(summary.running);
  out += ",\"succeeded\":" + std::to_string(summary.succeeded);
  out += ",\"failed\":" + std::to_string(summary.failed);
  out += "}";
  return out;
}

std::string runSnapshotToJson(const RunSnapshot& snapshot) {
  std::string out = "{";
  out += "\"id\":" + std::to_string(snapshot.id);
  out += ",\"name\":\"" + jsonEscape(snapshot.name) + "\"";
  out += ",\"state\":\"" + jsonEscape(snapshot.state) + "\"";
  out += ",\"phase\":\"" + jsonEscape(snapshot.phase) + "\"";
  out += ",\"elapsed_seconds\":" + jsonDouble(snapshot.elapsedSeconds);
  out += ",\"version\":" + std::to_string(snapshot.version);
  if (!snapshot.impact.empty()) {
    out += ",\"impact\":\"" + jsonEscape(snapshot.impact) + "\"";
  }
  out += ",\"subtasks\":{";
  out += "\"pending\":" + std::to_string(snapshot.pending);
  out += ",\"running\":" + std::to_string(snapshot.running);
  out += ",\"succeeded\":" + std::to_string(snapshot.succeeded);
  out += ",\"failed\":" + std::to_string(snapshot.failed);
  out += ",\"retries\":" + std::to_string(snapshot.retries);
  out += ",\"exhausted\":" + std::to_string(snapshot.exhausted);
  out += "}";
  const uint64_t lookups = snapshot.cacheHits + snapshot.cacheMisses;
  out += ",\"cache\":{";
  out += "\"hits\":" + std::to_string(snapshot.cacheHits);
  out += ",\"misses\":" + std::to_string(snapshot.cacheMisses);
  out += ",\"bypasses\":" + std::to_string(snapshot.cacheBypasses);
  out += ",\"hit_rate\":" +
         jsonDouble(lookups == 0 ? 0
                                 : static_cast<double>(snapshot.cacheHits) /
                                       static_cast<double>(lookups));
  out += "}";
  out += ",\"active\":[";
  for (size_t i = 0; i < snapshot.active.size(); ++i) {
    const ActiveSubtask& row = snapshot.active[i];
    if (i) out += ",";
    out += "{\"id\":\"" + jsonEscape(row.id) + "\"";
    out += ",\"worker\":" + std::to_string(row.worker);
    out += ",\"seconds\":" + jsonDouble(row.seconds);
    out += ",\"straggler\":" + std::string(row.straggler ? "true" : "false");
    out += "}";
  }
  out += "]}";
  return out;
}

StatusServer::StatusServer(StatusServerOptions options)
    : options_(options), context_(Telemetry::resolve(options.telemetry)) {}

StatusServer::~StatusServer() { stop(); }

HttpResponse StatusServer::handle(std::string_view method,
                                  std::string_view target) const {
  if (method != "GET" && method != "HEAD") {
    return errorResponse(405, "only GET is served");
  }
  std::string_view path = target;
  std::string_view query;
  if (size_t q = target.find('?'); q != std::string_view::npos) {
    path = target.substr(0, q);
    query = target.substr(q + 1);
  }
  if (path == "/healthz") return handleHealthz();
  if (path == "/metrics") return handleMetrics();
  if (path == "/runs" || path == "/runs/") return handleRunList();
  if (path.rfind("/runs/", 0) == 0) return handleRun(path.substr(6));
  if (path == "/explain") return handleExplain(query);
  return errorResponse(404, "no such endpoint");
}

HttpResponse StatusServer::handleHealthz() const {
  RunRegistry* runs = context_.runs();
  HttpResponse response;
  std::string body = "{\"status\":\"ok\"";
  if (runs) {
    auto list = runs->list();
    body += ",\"runs\":" + std::to_string(list.size());
    uint64_t current = runs->currentRunId();
    if (current != 0) {
      if (auto snapshot = runs->snapshot(current)) {
        body += ",\"current\":{\"id\":" + std::to_string(snapshot->id);
        body += ",\"name\":\"" + jsonEscape(snapshot->name) + "\"";
        body += ",\"state\":\"" + jsonEscape(snapshot->state) + "\"";
        body += ",\"phase\":\"" + jsonEscape(snapshot->phase) + "\"}";
      }
    } else {
      body += ",\"current\":null";
    }
  } else {
    body += ",\"runs\":0,\"current\":null";
  }
  body += "}\n";
  response.body = std::move(body);
  return response;
}

HttpResponse StatusServer::handleMetrics() const {
  if (&context_ == &Telemetry::disabled())
    return errorResponse(503, "no telemetry attached");
  HttpResponse response;
  response.contentType = "text/plain; version=0.0.4; charset=utf-8";
  response.body = context_.metrics().toPrometheusText();
  return response;
}

HttpResponse StatusServer::handleRunList() const {
  RunRegistry* runs = context_.runs();
  if (!runs) return errorResponse(503, "no run registry attached");
  uint64_t current = runs->currentRunId();
  HttpResponse response;
  std::string body = "{\"current\":";
  body += current == 0 ? "null" : std::to_string(current);
  body += ",\"runs\":[";
  auto list = runs->list();
  for (size_t i = 0; i < list.size(); ++i) {
    if (i) body += ",";
    body += runSummaryToJson(list[i]);
  }
  body += "]}\n";
  response.body = std::move(body);
  return response;
}

HttpResponse StatusServer::handleRun(std::string_view idText) const {
  RunRegistry* runs = context_.runs();
  if (!runs) return errorResponse(503, "no run registry attached");
  uint64_t id = 0;
  if (idText == "current") {
    id = runs->currentRunId();
    if (id == 0) return errorResponse(404, "no runs yet");
  } else {
    auto [ptr, ec] =
        std::from_chars(idText.data(), idText.data() + idText.size(), id);
    if (ec != std::errc() || ptr != idText.data() + idText.size()) {
      return errorResponse(400, "run id must be a number or 'current'");
    }
  }
  auto snapshot = runs->snapshot(id);
  if (!snapshot) return errorResponse(404, "no such run");
  HttpResponse response;
  response.body = runSnapshotToJson(*snapshot) + "\n";
  return response;
}

HttpResponse StatusServer::handleExplain(std::string_view query) const {
  ProvenanceRecorder* provenance = context_.provenance();
  if (!provenance) return errorResponse(503, "no provenance recorder attached");
  const std::string device = queryParam(query, "device");
  const std::string prefixText = queryParam(query, "prefix");
  if (device.empty() || prefixText.empty()) {
    return errorResponse(400, "explain needs device= and prefix= parameters");
  }
  auto prefix = Prefix::parse(prefixText);
  if (!prefix) return errorResponse(400, "unparsable prefix");
  HttpResponse response;
  response.body = provenance->explainJson(Names::id(device), *prefix) + "\n";
  return response;
}

bool StatusServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return false;
  }
  listenFd_ = fd;
  port_.store(ntohs(addr.sin_port), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptThread_ = std::thread([this] { acceptLoop(); });
  return true;
}

void StatusServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // shutdown() wakes the blocking accept(); close happens after the thread
  // exits so the fd can't be recycled under it.
  ::shutdown(listenFd_, SHUT_RDWR);
  if (acceptThread_.joinable()) acceptThread_.join();
  ::close(listenFd_);
  listenFd_ = -1;
  std::unique_lock<std::mutex> lock(connMutex_);
  connCv_.wait(lock, [this] { return activeConnections_ == 0; });
}

void StatusServer::acceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener shut down (stop()) or unrecoverable.
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(connMutex_);
      if (activeConnections_ < options_.maxConnections) {
        ++activeConnections_;
        admitted = true;
      }
    }
    if (!admitted) {
      static const char kBusy[] =
          "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n"
          "Connection: close\r\n\r\n";
      (void)!::send(fd, kBusy, sizeof(kBusy) - 1, MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    std::thread([this, fd] {
      serveConnection(fd);
      // Notify under the lock: stop()'s predicate wait may destroy this
      // object the moment it sees zero, so the cv must not be touched after
      // the count visibly drops.
      std::lock_guard<std::mutex> lock(connMutex_);
      --activeConnections_;
      connCv_.notify_all();
    }).detach();
  }
}

void StatusServer::serveConnection(int fd) {
  // Bound the whole exchange: a stalled client must not pin a connection
  // slot. 5s covers any scrape interval worth supporting.
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  // Read until the end of the request head (GETs carry no body we care
  // about), capped at 8 KiB.
  std::string head;
  char buf[2048];
  while (head.size() < 8192 && head.find("\r\n\r\n") == std::string::npos) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    head.append(buf, static_cast<size_t>(n));
  }

  HttpResponse response;
  std::string method;
  bool headOnly = false;
  size_t lineEnd = head.find("\r\n");
  if (lineEnd == std::string::npos) lineEnd = head.find('\n');
  if (lineEnd == std::string::npos || head.empty()) {
    response = errorResponse(400, "malformed request line");
  } else {
    std::string_view line(head.data(), lineEnd);
    size_t sp1 = line.find(' ');
    size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                               : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
      response = errorResponse(400, "malformed request line");
    } else {
      std::string_view methodView = line.substr(0, sp1);
      std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      headOnly = methodView == "HEAD";
      response = handle(methodView, target);
    }
  }

  std::string wire = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     statusReason(response.status) + "\r\n";
  wire += "Content-Type: " + response.contentType + "\r\n";
  wire += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  wire += "Connection: close\r\n\r\n";
  if (!headOnly) wire += response.body;
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  ::close(fd);
}

}  // namespace hoyan::obs
