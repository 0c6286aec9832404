// hoyan_top: live terminal dashboard over a running verification process.
//
// Polls the embedded status server (enable it with `--serve=<port>` on any
// bench, or by starting an obs::StatusServer in your own harness) and
// redraws a dashboard: run/state/phase header, subtask progress bar,
// throughput, cache hit rate, and the active-subtask table with stragglers
// flagged.
//
//   hoyan_top --port=8080 [--host=127.0.0.1] [--run=current]
//             [--interval=1.0] [--once]
//
// `--run` takes a numeric run id or "current" (the default: follow the
// newest run). `--once` prints a single frame and exits — scripting form.
// Exit codes: 0 success, 1 the server became unreachable or answered with a
// malformed payload, 2 usage error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "status_client.h"

namespace {

constexpr const char* kUsage =
    "usage: hoyan_top --port=<port> [--host=127.0.0.1] [--run=current]\n"
    "                 [--interval=seconds] [--once]\n";

volatile std::sig_atomic_t g_stop = 0;
void onSignal(int) { g_stop = 1; }

std::string flagValue(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      return argv[i] + prefix.size();
  return "";
}

bool hasFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i)
    if (flag == argv[i]) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using hoyan::obs::JsonValue;
  using hoyan::statusclient::HttpResult;

  const std::string portText = flagValue(argc, argv, "port");
  if (portText.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const int port = std::atoi(portText.c_str());
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "hoyan_top: bad --port=%s\n", portText.c_str());
    return 2;
  }
  std::string host = flagValue(argc, argv, "host");
  if (host.empty()) host = "127.0.0.1";
  std::string runId = flagValue(argc, argv, "run");
  if (runId.empty()) runId = "current";
  double interval = 1.0;
  if (const std::string text = flagValue(argc, argv, "interval"); !text.empty())
    interval = std::strtod(text.c_str(), nullptr);
  if (interval < 0.1) interval = 0.1;
  const bool once = hasFlag(argc, argv, "once");

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  const std::string target = "/runs/" + runId;
  double lastDone = -1;
  int consecutiveFailures = 0;
  bool everConnected = false;
  while (!g_stop) {
    HttpResult result;
    if (!hoyan::statusclient::httpGet(host, static_cast<uint16_t>(port), target,
                                      result)) {
      if (once || ++consecutiveFailures >= 5) {
        std::fprintf(stderr, "hoyan_top: %s:%d unreachable%s\n", host.c_str(),
                     port, everConnected ? " (run finished?)" : "");
        return everConnected ? 0 : 1;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int>(interval * 1000)));
      continue;
    }
    consecutiveFailures = 0;
    everConnected = true;
    if (result.status == 404) {
      // No runs yet (or a finished one was evicted): keep polling.
      if (once) {
        std::fprintf(stderr, "hoyan_top: no such run: %s\n", runId.c_str());
        return 1;
      }
      std::printf("\x1b[H\x1b[2Jwaiting for a run on %s:%d ...\n", host.c_str(),
                  port);
      std::fflush(stdout);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int>(interval * 1000)));
      continue;
    }
    const hoyan::obs::JsonParse parsed = hoyan::obs::parseJson(result.body);
    if (result.status != 200 || !parsed.ok()) {
      std::fprintf(stderr, "hoyan_top: bad response (HTTP %d%s%s)\n", result.status,
                   parsed.ok() ? "" : ", ", parsed.ok() ? "" : parsed.error.str().c_str());
      return 1;
    }
    const JsonValue& run = parsed.value;
    const JsonValue* subtasks = run.find("subtasks");
    const double done = subtasks ? subtasks->num("succeeded") + subtasks->num("failed") : 0;
    const double throughput = lastDone >= 0 ? (done - lastDone) / interval : -1;
    lastDone = done;
    const std::string frame =
        hoyan::statusclient::renderTop(run, throughput);
    if (once) {
      std::fputs(frame.c_str(), stdout);
      return 0;
    }
    // Home + clear, then the frame: a flicker-free refresh for a frame that
    // always grows downward from the top-left.
    std::printf("\x1b[H\x1b[2J%s", frame.c_str());
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(interval * 1000)));
  }
  return 0;
}
