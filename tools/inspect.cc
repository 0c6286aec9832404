#include "inspect.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "obs/journal.h"

namespace hoyan::inspect {

bool readInput(const std::string& path, std::string& out) {
  std::FILE* file = path == "-" ? stdin : std::fopen(path.c_str(), "rb");
  if (!file) return false;
  char buffer[1 << 16];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
    out.append(buffer, got);
  if (file != stdin) std::fclose(file);
  return true;
}

namespace {

std::string fmtMs(double ms) {
  char buffer[64];
  if (ms >= 1000)
    std::snprintf(buffer, sizeof(buffer), "%.2fs", ms / 1000.0);
  else
    std::snprintf(buffer, sizeof(buffer), "%.2fms", ms);
  return buffer;
}

std::string fmtPct(double fraction) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f%%", fraction * 100.0);
  return buffer;
}

}  // namespace

std::optional<double> Event::num(std::string_view name) const {
  const obs::JsonValue* value = field(name);
  if (!value || value->kind != obs::JsonValue::Kind::kNumber) return std::nullopt;
  return value->number;
}

bool parseJournal(const std::string& text, std::vector<Event>& events,
                  std::string& error) {
  events.clear();
  size_t pos = 0;
  size_t lineNo = 0;
  while (pos < text.size()) {
    const size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view line = std::string_view(text).substr(pos, eol - pos);
    pos = eol + 1;
    ++lineNo;
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string_view::npos) continue;
    // Depth 1: a journal line is one flat object.
    obs::JsonParse parsed = obs::parseJson(line, 1);
    if (parsed.ok() && parsed.value.kind != obs::JsonValue::Kind::kObject)
      parsed.error = {1, start + 1, "expected a JSON object"};
    if (!parsed.ok()) {
      parsed.error.line = lineNo;
      error = parsed.error.str();
      return false;
    }
    Event event;
    event.ev = parsed.value.str("ev");
    event.line = lineNo;
    event.column = start + 1;
    event.fields = std::move(parsed.value);
    events.push_back(std::move(event));
  }
  return true;
}

bool validateJournal(const std::vector<Event>& events, std::string& error) {
  for (const Event& event : events) {
    const auto fail = [&](const std::string& what) {
      error = obs::JsonError{event.line, event.column, what}.str();
      return false;
    };
    const obs::JournalEventSpec* spec = obs::findJournalEventSpec(event.ev);
    if (!spec) return fail("unknown event type '" + event.ev + "'");
    const auto missing = [&](std::string_view name) {
      return fail(event.ev + ": missing field '" + std::string(name) + "'");
    };
    for (const std::string_view name : spec->fields)
      if (!name.empty() && !event.field(name)) return missing(name);
    for (const std::string_view name : spec->counts)
      if (!name.empty() && !event.field(name)) return missing(name);
  }
  return true;
}

JournalStats aggregate(const std::vector<Event>& events) {
  JournalStats stats;
  std::map<double, size_t> runIndexByKey;  // run number -> runs index.
  const auto runFor = [&](const Event& event) -> RunStats& {
    const double key = event.num("run").value_or(-1);
    const auto it = runIndexByKey.find(key);
    if (it != runIndexByKey.end()) return stats.runs[it->second];
    runIndexByKey.emplace(key, stats.runs.size());
    stats.runs.push_back(RunStats{});
    return stats.runs.back();
  };
  for (const Event& event : events) {
    if (event.ev == "journal_summary") {
      stats.dropped = static_cast<size_t>(event.num("dropped").value_or(0));
      continue;
    }
    ++stats.events;
    RunStats& run = runFor(event);
    if (event.ev == "run_begin") {
      run.name = event.str("id");
      run.fp = event.str("fp");
    } else if (event.ev == "run_end") {
      run.wallMs = event.num("ms").value_or(run.wallMs);
    } else if (event.ev == "phase_end") {
      run.phases[event.str("phase")].wallMs += event.num("ms").value_or(0);
    } else if (event.ev == "subtask_enqueue") {
      ++run.phases[event.str("phase")].enqueued;
    } else if (event.ev == "subtask_finish") {
      PhaseStats& phase = run.phases[event.str("phase")];
      ++phase.finished;
      phase.subtaskMsTotal += event.num("ms").value_or(0);
    } else if (event.ev == "subtask_retry") {
      ++run.phases[event.str("phase")].retries;
    } else if (event.ev == "subtask_exhaust") {
      ++run.phases[event.str("phase")].exhausted;
    } else if (event.ev == "subtask_cancel") {
      ++run.phases[event.str("phase")].cancelled;
    } else if (event.ev == "cache_hit") {
      ++run.phases[event.str("phase")].cacheHits;
      ++stats.totalCacheHits;
    } else if (event.ev == "cache_miss") {
      ++run.phases[event.str("phase")].cacheMisses;
      ++stats.totalCacheMisses;
    } else if (event.ev == "cache_bypass") {
      ++run.cacheBypasses;
      ++stats.totalCacheBypasses;
    } else if (event.ev == "cache_evict") {
      ++run.cacheEvictions;
    } else if (event.ev == "impact") {
      run.impactVerdict = event.str("note");
      run.impactReason = event.str("key");
    } else if (event.ev == "sweep_plan") {
      run.sweepSeen = true;
      run.sweepHintSource = event.str("note");
      run.sweepEnumerated += event.num("enumerated").value_or(0);
      run.sweepPruned += event.num("pruned").value_or(0);
      run.sweepDeduped += event.num("deduped").value_or(0);
      run.sweepScheduled += event.num("scheduled").value_or(0);
    } else if (event.ev == "sweep_verdict") {
      run.sweepSeen = true;
      if (event.str("note") == "pass")
        ++run.sweepVerdictPass;
      else
        ++run.sweepVerdictFail;
    } else if (event.ev == "sweep_result") {
      run.sweepSeen = true;
      run.sweepChecked += event.num("checked").value_or(0);
      run.sweepCounterexamples += event.num("counterexamples").value_or(0);
      run.sweepCacheHits += event.num("cache_hits").value_or(0);
      run.sweepRetries += event.num("retries").value_or(0);
    }
  }
  return stats;
}

std::string renderSummary(const JournalStats& stats) {
  std::string out;
  out += "journal: " + std::to_string(stats.events) + " events, " +
         std::to_string(stats.runs.size()) + " runs, " +
         std::to_string(stats.dropped) + " dropped\n";
  const size_t lookups = stats.totalCacheHits + stats.totalCacheMisses;
  if (lookups > 0)
    out += "cache: " + std::to_string(stats.totalCacheHits) + "/" +
           std::to_string(lookups) + " hits (" +
           fmtPct(static_cast<double>(stats.totalCacheHits) / lookups) + "), " +
           std::to_string(stats.totalCacheBypasses) + " bypasses\n";
  for (const RunStats& run : stats.runs) {
    out += "\nrun \"" + (run.name.empty() ? std::string("<unnamed>") : run.name) +
           "\"";
    if (run.wallMs > 0) out += "  total " + fmtMs(run.wallMs);
    if (!run.fp.empty()) out += "  fp " + run.fp;
    out += '\n';
    if (!run.impactVerdict.empty()) {
      out += "  impact: " + run.impactVerdict;
      if (!run.impactReason.empty()) out += " (" + run.impactReason + ")";
      out += '\n';
    }
    for (const auto& [name, phase] : run.phases) {
      // Subtask phases ("route"/"traffic") have no begin/end pair; their time
      // is the sum of per-subtask busy durations.
      const double shownMs =
          phase.wallMs > 0 ? phase.wallMs : phase.subtaskMsTotal;
      out += "  " + name + ": " + fmtMs(shownMs);
      if (phase.wallMs == 0 && phase.subtaskMsTotal > 0) out += " busy";
      if (phase.enqueued + phase.finished > 0)
        out += ", " + std::to_string(phase.finished) + " subtasks executed";
      if (phase.cacheHits + phase.cacheMisses > 0)
        out += ", " + std::to_string(phase.cacheHits) + "/" +
               std::to_string(phase.cacheHits + phase.cacheMisses) + " cache hits";
      if (phase.retries > 0) out += ", " + std::to_string(phase.retries) + " retries";
      if (phase.exhausted > 0)
        out += ", " + std::to_string(phase.exhausted) + " exhausted";
      if (phase.cancelled > 0)
        out += ", " + std::to_string(phase.cancelled) + " cancelled";
      out += '\n';
    }
    if (run.sweepSeen) {
      const auto count = [](double v) {
        return std::to_string(static_cast<uint64_t>(v));
      };
      out += "  sweep: " + count(run.sweepEnumerated) + " scenarios";
      if (run.sweepEnumerated > 0)
        out += " (" + count(run.sweepPruned) + " pruned " +
               fmtPct(run.sweepPruned / run.sweepEnumerated) + ", " +
               count(run.sweepDeduped) + " deduped)";
      out += ", " + count(run.sweepScheduled) + " jobs scheduled";
      if (!run.sweepHintSource.empty())
        out += " [hints: " + run.sweepHintSource + "]";
      out += '\n';
      out += "  sweep verdicts: " + std::to_string(run.sweepVerdictPass) +
             " pass / " + std::to_string(run.sweepVerdictFail) + " fail (" +
             count(run.sweepChecked) + " committed, " +
             count(run.sweepCounterexamples) + " counterexamples)";
      if (run.sweepCacheHits > 0)
        out += ", " + count(run.sweepCacheHits) + " cached verdicts";
      if (run.sweepRetries > 0) out += ", " + count(run.sweepRetries) + " retries";
      out += '\n';
    }
    if (run.cacheBypasses > 0)
      out += "  cache bypasses: " + std::to_string(run.cacheBypasses) + '\n';
    if (run.cacheEvictions > 0)
      out += "  cache evictions: " + std::to_string(run.cacheEvictions) + '\n';
  }
  return out;
}

std::vector<Straggler> findStragglers(const std::vector<Event>& events,
                                      double threshold) {
  struct Finish {
    const Event* event;
    double ms;
  };
  std::map<std::string, std::vector<Finish>> byPhase;
  for (const Event& event : events) {
    if (event.ev != "subtask_finish") continue;
    const auto ms = event.num("ms");
    if (!ms) continue;  // Canonical journal: no durations to rank.
    byPhase[event.str("phase")].push_back(Finish{&event, *ms});
  }
  std::vector<Straggler> stragglers;
  for (auto& [phase, finishes] : byPhase) {
    if (finishes.size() < 4) continue;  // Median too noisy to call outliers.
    std::vector<double> durations;
    durations.reserve(finishes.size());
    for (const Finish& finish : finishes) durations.push_back(finish.ms);
    std::sort(durations.begin(), durations.end());
    const double median = durations[durations.size() / 2];
    if (median <= 0) continue;
    for (const Finish& finish : finishes) {
      if (finish.ms <= threshold * median) continue;
      Straggler straggler;
      straggler.phase = phase;
      straggler.id = finish.event->str("id");
      straggler.worker = static_cast<int>(finish.event->num("worker").value_or(-1));
      straggler.attempt = static_cast<int>(finish.event->num("attempt").value_or(-1));
      straggler.ms = finish.ms;
      straggler.medianMs = median;
      stragglers.push_back(std::move(straggler));
    }
  }
  std::sort(stragglers.begin(), stragglers.end(),
            [](const Straggler& a, const Straggler& b) {
              return a.ms / a.medianMs > b.ms / b.medianMs;
            });
  return stragglers;
}

std::string renderStragglers(const std::vector<Straggler>& stragglers,
                             double threshold) {
  if (stragglers.empty())
    return "no stragglers (threshold " + std::to_string(threshold) + "x median)\n";
  std::string out = std::to_string(stragglers.size()) + " straggler(s):\n";
  for (const Straggler& straggler : stragglers) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %s/%s: %.2fms (%.1fx the %.2fms median)", straggler.phase.c_str(),
                  straggler.id.c_str(), straggler.ms, straggler.ms / straggler.medianMs,
                  straggler.medianMs);
    out += line;
    if (straggler.worker >= 0) out += ", worker " + std::to_string(straggler.worker);
    if (straggler.attempt > 1) out += ", attempt " + std::to_string(straggler.attempt);
    out += '\n';
  }
  return out;
}

std::vector<WorkerStats> workerUtilization(const std::vector<Event>& events) {
  std::map<int, WorkerStats> byWorker;
  for (const Event& event : events) {
    const auto worker = event.num("worker");
    if (!worker) continue;
    WorkerStats& stats = byWorker[static_cast<int>(*worker)];
    stats.worker = static_cast<int>(*worker);
    const auto t = event.num("t_ms");
    if (event.ev == "subtask_start") {
      if (t && (stats.firstStartMs < 0 || *t < stats.firstStartMs))
        stats.firstStartMs = *t;
    } else if (event.ev == "subtask_finish") {
      ++stats.subtasks;
      stats.busyMs += event.num("ms").value_or(0);
      if (t && *t > stats.lastFinishMs) stats.lastFinishMs = *t;
    }
  }
  std::vector<WorkerStats> workers;
  workers.reserve(byWorker.size());
  for (const auto& [id, stats] : byWorker) workers.push_back(stats);
  return workers;
}

std::string renderWorkers(const std::vector<WorkerStats>& workers) {
  if (workers.empty())
    return "no worker-attributed events (canonical journals strip worker ids)\n";
  double maxBusy = 0;
  for (const WorkerStats& worker : workers) maxBusy = std::max(maxBusy, worker.busyMs);
  std::string out;
  for (const WorkerStats& worker : workers) {
    char line[256];
    std::snprintf(line, sizeof(line), "worker %d: %zu subtasks, busy %s",
                  worker.worker, worker.subtasks, fmtMs(worker.busyMs).c_str());
    out += line;
    if (worker.firstStartMs >= 0 && worker.lastFinishMs >= worker.firstStartMs) {
      const double span = worker.lastFinishMs - worker.firstStartMs;
      out += ", active span " + fmtMs(span);
      if (span > 0) out += " (" + fmtPct(std::min(1.0, worker.busyMs / span)) + " busy)";
    }
    // A coarse utilization bar against the busiest worker.
    if (maxBusy > 0) {
      const int width = static_cast<int>(std::lround(20.0 * worker.busyMs / maxBusy));
      out += "  |";
      for (int i = 0; i < 20; ++i) out += i < width ? '#' : '.';
      out += '|';
    }
    out += '\n';
  }
  return out;
}

namespace {

// Sums a journal's per-phase stats across runs (diff compares whole files:
// one file per cold/warm engine instance).
std::map<std::string, PhaseStats> phaseTotals(const JournalStats& stats) {
  std::map<std::string, PhaseStats> totals;
  for (const RunStats& run : stats.runs) {
    for (const auto& [name, phase] : run.phases) {
      PhaseStats& total = totals[name];
      total.wallMs += phase.wallMs;
      total.enqueued += phase.enqueued;
      total.finished += phase.finished;
      total.retries += phase.retries;
      total.exhausted += phase.exhausted;
      total.cacheHits += phase.cacheHits;
      total.cacheMisses += phase.cacheMisses;
      total.subtaskMsTotal += phase.subtaskMsTotal;
    }
  }
  return totals;
}

double totalWallMs(const JournalStats& stats) {
  double total = 0;
  for (const RunStats& run : stats.runs) total += run.wallMs;
  return total;
}

}  // namespace

std::string renderDiff(const JournalStats& cold, const JournalStats& warm) {
  std::string out;
  // Configuration check: every run in both journals should carry the same
  // options fingerprint, else the comparison explains configuration, not
  // caching.
  std::set<std::string> coldFps, warmFps;
  for (const RunStats& run : cold.runs)
    if (!run.fp.empty()) coldFps.insert(run.fp);
  for (const RunStats& run : warm.runs)
    if (!run.fp.empty()) warmFps.insert(run.fp);
  if (!coldFps.empty() && !warmFps.empty() && coldFps != warmFps)
    out += "WARNING: options fingerprints differ between the two journals — the "
           "runs were not configured identically\n";

  const double coldWall = totalWallMs(cold);
  const double warmWall = totalWallMs(warm);
  out += "total: " + fmtMs(coldWall) + " -> " + fmtMs(warmWall);
  if (coldWall > 0) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), " (%+.1f%%)",
                  (warmWall - coldWall) / coldWall * 100.0);
    out += buffer;
  }
  out += '\n';

  const auto coldPhases = phaseTotals(cold);
  const auto warmPhases = phaseTotals(warm);
  std::set<std::string> names;
  for (const auto& [name, phase] : coldPhases) names.insert(name);
  for (const auto& [name, phase] : warmPhases) names.insert(name);
  for (const std::string& name : names) {
    static const PhaseStats kEmpty;
    const auto coldIt = coldPhases.find(name);
    const auto warmIt = warmPhases.find(name);
    const PhaseStats& a = coldIt == coldPhases.end() ? kEmpty : coldIt->second;
    const PhaseStats& b = warmIt == warmPhases.end() ? kEmpty : warmIt->second;
    // Subtask phases ("route"/"traffic") carry busy time, not wall time.
    const double aMs = a.wallMs > 0 ? a.wallMs : a.subtaskMsTotal;
    const double bMs = b.wallMs > 0 ? b.wallMs : b.subtaskMsTotal;
    out += "  " + name + ": " + fmtMs(aMs) + " -> " + fmtMs(bMs);
    if (aMs > 0) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), " (%+.1f%%)",
                    (bMs - aMs) / aMs * 100.0);
      out += buffer;
    }
    // Attribution: what explains the delta in this phase?
    if (a.finished != b.finished || a.cacheHits != b.cacheHits) {
      out += "  [executed " + std::to_string(a.finished) + " -> " +
             std::to_string(b.finished) + " subtasks";
      if (a.cacheHits + b.cacheHits > 0)
        out += ", cache hits " + std::to_string(a.cacheHits) + " -> " +
               std::to_string(b.cacheHits);
      out += "]";
    }
    out += '\n';
  }

  // One-line verdict: where did the warm run's savings come from?
  const size_t warmHits = warm.totalCacheHits;
  const size_t warmLookups = warm.totalCacheHits + warm.totalCacheMisses;
  if (coldWall > 0 && warmWall < coldWall && warmLookups > 0) {
    out += "warm run spent " + fmtPct(warmWall / coldWall) +
           " of cold wall time; " + std::to_string(warmHits) + "/" +
           std::to_string(warmLookups) + " subtask lookups were cache hits\n";
  }
  return out;
}

}  // namespace hoyan::inspect
