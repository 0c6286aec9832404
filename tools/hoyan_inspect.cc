// hoyan_inspect: run-analysis CLI over RunJournal JSONL files.
//
//   hoyan_inspect validate <journal>                 schema-check every line
//   hoyan_inspect summary <journal>                  phase/cache breakdown
//   hoyan_inspect stragglers <journal> [--threshold=3.0]
//   hoyan_inspect workers <journal>                  per-worker utilization
//   hoyan_inspect diff <cold.jsonl> <warm.jsonl>     where warm-run time went
//
// `-` as a journal path reads stdin, so
// `bench --journal-out=/dev/stdout | hoyan_inspect summary -` pipelines work.
//
// Exit codes: 0 success, 1 malformed journal (validate), 2 usage/IO error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "inspect.h"

namespace {

constexpr const char* kUsage =
    "usage: hoyan_inspect <command> <journal.jsonl> [...]\n"
    "  validate <journal>                 exit 1 if any line is malformed\n"
    "  summary <journal>                  run/phase/cache breakdown\n"
    "  stragglers <journal> [--threshold=N]  subtask duration outliers\n"
    "  workers <journal>                  per-worker utilization\n"
    "  diff <cold> <warm>                 cold-vs-warm run comparison\n";

bool loadStats(const char* path, hoyan::inspect::JournalStats& stats) {
  std::string text;
  if (!hoyan::inspect::readInput(path, text)) {
    std::fprintf(stderr, "hoyan_inspect: cannot read %s\n", path);
    return false;
  }
  std::vector<hoyan::inspect::Event> events;
  std::string error;
  if (!hoyan::inspect::parseJournal(text, events, error)) {
    std::fprintf(stderr, "hoyan_inspect: %s: %s\n", path, error.c_str());
    return false;
  }
  stats = hoyan::inspect::aggregate(events);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string command = argv[1];
  const char* path = argv[2];

  if (command == "validate" || command == "summary" || command == "stragglers" ||
      command == "workers") {
    std::string text;
    if (!hoyan::inspect::readInput(path, text)) {
      std::fprintf(stderr, "hoyan_inspect: cannot read %s\n", path);
      return 2;
    }
    std::vector<hoyan::inspect::Event> events;
    std::string error;
    if (!hoyan::inspect::parseJournal(text, events, error) ||
        (command == "validate" && !hoyan::inspect::validateJournal(events, error))) {
      std::fprintf(stderr, "hoyan_inspect: %s: %s\n", path, error.c_str());
      return 1;
    }
    if (command == "validate") {
      std::printf("ok: %zu events\n", events.size());
    } else if (command == "summary") {
      std::fputs(hoyan::inspect::renderSummary(hoyan::inspect::aggregate(events)).c_str(),
                 stdout);
    } else if (command == "stragglers") {
      double threshold = 3.0;
      for (int i = 3; i < argc; ++i) {
        if (std::strncmp(argv[i], "--threshold=", 12) == 0)
          threshold = std::strtod(argv[i] + 12, nullptr);
      }
      if (threshold <= 1.0) {
        std::fprintf(stderr, "hoyan_inspect: --threshold must be > 1\n");
        return 2;
      }
      const auto stragglers = hoyan::inspect::findStragglers(events, threshold);
      std::fputs(hoyan::inspect::renderStragglers(stragglers, threshold).c_str(),
                 stdout);
    } else {
      const auto workers = hoyan::inspect::workerUtilization(events);
      std::fputs(hoyan::inspect::renderWorkers(workers).c_str(), stdout);
    }
    return 0;
  }

  if (command == "diff") {
    if (argc < 4) {
      std::fputs(kUsage, stderr);
      return 2;
    }
    hoyan::inspect::JournalStats cold, warm;
    if (!loadStats(argv[2], cold) || !loadStats(argv[3], warm)) return 2;
    std::fputs(hoyan::inspect::renderDiff(cold, warm).c_str(), stdout);
    return 0;
  }

  std::fputs(kUsage, stderr);
  return 2;
}
