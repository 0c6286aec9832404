#include "status_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hoyan::statusclient {

bool httpGet(const std::string& host, uint16_t port, const std::string& target,
             HttpResult& out, int timeoutMs) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  timeval timeout{};
  timeout.tv_sec = timeoutMs / 1000;
  timeout.tv_usec = (timeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0)
    response.append(buffer, static_cast<size_t>(n));
  ::close(fd);

  // Status line, then skip headers to the body (the server always closes the
  // connection after one response, so content-length needs no handling).
  if (response.rfind("HTTP/1.", 0) != 0) return false;
  const size_t statusStart = response.find(' ');
  if (statusStart == std::string::npos) return false;
  const int status = std::atoi(response.c_str() + statusStart + 1);
  if (status < 100 || status > 599) return false;
  const size_t headEnd = response.find("\r\n\r\n");
  if (headEnd == std::string::npos) return false;
  out.status = status;
  out.body = response.substr(headEnd + 4);
  return true;
}

// --- dashboard --------------------------------------------------------------

namespace {

std::string fmtSeconds(double seconds) {
  char buffer[64];
  if (seconds >= 60) {
    std::snprintf(buffer, sizeof(buffer), "%dm%02ds",
                  static_cast<int>(seconds) / 60,
                  static_cast<int>(seconds) % 60);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1fs", seconds);
  }
  return buffer;
}

std::string progressBar(double fraction, int width) {
  if (width < 10) width = 10;
  if (fraction < 0) fraction = 0;
  if (fraction > 1) fraction = 1;
  const int cells = width - 2;
  const int filled = static_cast<int>(std::lround(fraction * cells));
  std::string bar = "[";
  bar.append(static_cast<size_t>(filled), '#');
  bar.append(static_cast<size_t>(cells - filled), '.');
  bar += "]";
  return bar;
}

}  // namespace

std::string renderTop(const obs::JsonValue& run, double throughput, int width) {
  const obs::JsonValue* subtasks = run.find("subtasks");
  const obs::JsonValue* cache = run.find("cache");
  const double pending = subtasks ? subtasks->num("pending") : 0;
  const double running = subtasks ? subtasks->num("running") : 0;
  const double succeeded = subtasks ? subtasks->num("succeeded") : 0;
  const double failed = subtasks ? subtasks->num("failed") : 0;
  const double retries = subtasks ? subtasks->num("retries") : 0;
  const double total = pending + running + succeeded + failed;

  std::string out;
  out += "run #" + std::to_string(static_cast<uint64_t>(run.num("id")));
  const std::string name = run.str("name");
  if (!name.empty()) out += " \"" + name + "\"";
  out += "  " + run.str("state", "?");
  const std::string phase = run.str("phase");
  if (!phase.empty()) out += "  phase=" + phase;
  out += "  elapsed=" + fmtSeconds(run.num("elapsed_seconds"));
  out += "\n";

  const double done = succeeded + failed;
  out += progressBar(total > 0 ? done / total : 0, width);
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), " %.0f/%.0f\n", done, total);
  out += buffer;

  std::snprintf(buffer, sizeof(buffer),
                "subtasks: %.0f pending, %.0f running, %.0f ok, %.0f failed, "
                "%.0f retries",
                pending, running, succeeded, failed, retries);
  out += buffer;
  if (throughput >= 0) {
    std::snprintf(buffer, sizeof(buffer), "  (%.1f/s)", throughput);
    out += buffer;
  }
  out += "\n";

  if (cache) {
    std::snprintf(buffer, sizeof(buffer),
                  "cache: %.0f hits, %.0f misses, %.0f bypasses (hit rate %.0f%%)\n",
                  cache->num("hits"), cache->num("misses"),
                  cache->num("bypasses"), cache->num("hit_rate") * 100);
    out += buffer;
  }
  const std::string impact = run.str("impact");
  if (!impact.empty()) out += "impact: " + impact + "\n";

  const obs::JsonValue* active = run.find("active");
  if (active && active->kind == obs::JsonValue::Kind::kArray && !active->items.empty()) {
    out += "active subtasks:\n";
    for (const obs::JsonValue& row : active->items) {
      const obs::JsonValue* straggler = row.find("straggler");
      std::snprintf(buffer, sizeof(buffer), "  w%-3d %-24s %8s%s\n",
                    static_cast<int>(row.num("worker", -1)),
                    row.str("id", "?").c_str(),
                    fmtSeconds(row.num("seconds")).c_str(),
                    straggler && straggler->boolean ? "  STRAGGLER" : "");
      out += buffer;
    }
  }
  return out;
}

}  // namespace hoyan::statusclient
