// Client side of the embedded status server (src/obs/statusd.h), behind the
// `hoyan_top` CLI: a blocking HTTP/1.1 GET over POSIX sockets and the
// terminal-dashboard renderer. Payloads are read with the one JSON reader
// (obs::parseJson). A library so the tests can drive rendering without a
// live server, like hoyan_inspect_lib.
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.h"

namespace hoyan::statusclient {

struct HttpResult {
  int status = 0;
  std::string body;
};

// Blocking GET http://<host>:<port><target>. False on connect/IO/parse
// failure (out untouched); an HTTP error status is a *successful* call.
bool httpGet(const std::string& host, uint16_t port, const std::string& target,
             HttpResult& out, int timeoutMs = 2000);

// --- dashboard --------------------------------------------------------------

// Renders one `/runs/<id>` payload as the hoyan_top dashboard frame: header
// (run, state, phase, elapsed), subtask progress bar, counts row with
// throughput, cache hit rate, and the active-subtask table with stragglers
// flagged. `throughput` is subtasks/s between the caller's last two polls
// (negative = unknown, first frame). `width` bounds the progress bar.
std::string renderTop(const obs::JsonValue& run, double throughput, int width = 72);

}  // namespace hoyan::statusclient
