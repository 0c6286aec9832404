// Tests of the telemetry subsystem: registry concurrency (atomic hot paths),
// histogram bucketing, span nesting/ordering and the per-thread stack,
// exporter round-trips (the JSON snapshot and Chrome trace read back through
// the one JSON reader), the reader's own grammar, the instrumented
// queue/store bindings, and logger level gating.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/message_queue.h"
#include "dist/object_store.h"
#include "json_testing.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace hoyan {
namespace {

using testing::member;
using testing::parseJsonOrFail;

// --- the JSON reader --------------------------------------------------------

TEST(JsonReaderTest, ReadsEveryKindInDocumentOrder) {
  const obs::JsonValue root = parseJsonOrFail(
      " {\"z\":[1,-2.5,3e2,-0,0.125E-1],\"a\":{\"t\":true,\"f\":false,\"n\":null},\r\n"
      "\t\"s\":\"q\\\"b\\\\s\\/f\\bn\\nr\\rt\\tf\\f\"} \n");
  ASSERT_EQ(root.kind, obs::JsonValue::Kind::kObject);
  ASSERT_EQ(root.members.size(), 3u);
  EXPECT_EQ(root.members[0].first, "z") << "document order, not sorted";
  EXPECT_EQ(root.members[1].first, "a");
  const std::vector<obs::JsonValue>& numbers = member(root, "z").items;
  ASSERT_EQ(numbers.size(), 5u);
  EXPECT_EQ(numbers[0].number, 1);
  EXPECT_EQ(numbers[1].number, -2.5);
  EXPECT_EQ(numbers[2].number, 300);
  EXPECT_EQ(numbers[3].number, 0);
  EXPECT_DOUBLE_EQ(numbers[4].number, 0.0125);
  const obs::JsonValue& a = member(root, "a");
  EXPECT_EQ(member(a, "t").kind, obs::JsonValue::Kind::kBool);
  EXPECT_TRUE(member(a, "t").boolean);
  EXPECT_FALSE(member(a, "f").boolean);
  EXPECT_EQ(member(a, "n").kind, obs::JsonValue::Kind::kNull);
  EXPECT_EQ(root.str("s"), "q\"b\\s/f\bn\nr\rt\tf\f");
  EXPECT_EQ(root.num("s", 7), 7) << "a member of another kind reads the fallback";
  EXPECT_EQ(root.str("absent", "x"), "x");
  EXPECT_EQ(a.find("absent"), nullptr);
  EXPECT_EQ(numbers[0].find("z"), nullptr) << "find on a non-object";
}

// Each case names where parsing stopped. None is JSON, though a reader
// that scans numbers with strtod or by character class takes each of the
// first eleven (`[1e400]` as infinity).
TEST(JsonReaderTest, RejectsWhatRfc8259RejectsAtTheOffendingByte) {
  const struct {
    std::string text;
    size_t line, column;
  } cases[] = {
      {"[+1]", 1, 2},
      {"[0x10]", 1, 3},
      {"[nan]", 1, 2},
      {"[inf]", 1, 2},
      {"[.5]", 1, 2},
      {"[01]", 1, 3},
      {"[1.]", 1, 4},
      {"{\"a\":1e}", 1, 8},
      {"{\"a\":1-2}", 1, 7},
      {"[\"a\nb\"]", 1, 4},
      {"[1e400]", 1, 2},
      {"", 1, 1},
      {"{\"a\":", 1, 6},
      {"{} trailing", 1, 4},
      {"{\"a\" 1}", 1, 6},
      {"\"unterminated", 1, 14},
      {"[1,]", 1, 4},
      {"{\"a\":1,}", 1, 8},
      {"{1:2}", 1, 2},
      {"[\"\\x\"]", 1, 3},
      {"{\n  \"a\": 1,\n  \"b\": tru\n}", 3, 8},
  };
  for (const auto& c : cases) {
    const obs::JsonParse parsed = obs::parseJson(c.text);
    EXPECT_FALSE(parsed.ok()) << c.text;
    EXPECT_EQ(parsed.error.line, c.line) << c.text << " -> " << parsed.error.str();
    EXPECT_EQ(parsed.error.column, c.column) << c.text << " -> " << parsed.error.str();
    EXPECT_EQ(parsed.value.kind, obs::JsonValue::Kind::kNull) << c.text;
  }
  EXPECT_EQ(obs::parseJson("[1,\n 2 x]").error.str(), "line 2, column 4: expected ',' or ']'");
  EXPECT_TRUE(obs::parseJson(" {} ").ok()) << "whitespace around the value is fine";
}

TEST(JsonReaderTest, DecodesUnicodeEscapesToUtf8) {
  EXPECT_EQ(parseJsonOrFail("\"\\u00e9\"").text, "\xc3\xa9");
  EXPECT_EQ(parseJsonOrFail("\"\\u20AC\"").text, "\xe2\x82\xac");
  EXPECT_EQ(parseJsonOrFail("\"\\ud83d\\ude00\"").text, "\xf0\x9f\x98\x80");
  EXPECT_EQ(parseJsonOrFail("\"a\\u0000b\"").text, std::string("a\0b", 3));
  EXPECT_EQ(parseJsonOrFail("\"caf\xc3\xa9\"").text, "caf\xc3\xa9") << "raw UTF-8 passes";
  for (const char* bad : {"\"\\ud83d\"", "\"\\ud83d\\u0041\"", "\"\\ude00\"",
                          "\"\\u12\"", "\"\\u12g4\""}) {
    const obs::JsonParse parsed = obs::parseJson(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.error.line, 1u) << bad;
    EXPECT_GE(parsed.error.column, 2u) << bad;
  }
}

// Whatever the escaper writes, the reader gives back byte for byte.
TEST(JsonReaderTest, ReadsBackEveryByteTheEscaperWrites) {
  std::string bytes;
  for (int c = 0; c < 256; ++c) bytes += static_cast<char>(c);
  EXPECT_EQ(parseJsonOrFail("\"" + obs::jsonEscape(bytes) + "\"").text, bytes);
}

TEST(JsonReaderTest, DeepNestingIsALocatedErrorNotACrash) {
  const obs::JsonParse deep = obs::parseJson(std::string(1 << 20, '['));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.error.str(), "line 1, column " + std::to_string(obs::kMaxJsonDepth + 1) +
                                  ": nesting deeper than " +
                                  std::to_string(obs::kMaxJsonDepth));
  EXPECT_TRUE(obs::parseJson(std::string(obs::kMaxJsonDepth, '[') +
                             std::string(obs::kMaxJsonDepth, ']'))
                  .ok());
  // A lower cap: depth 1 admits one flat object or array.
  EXPECT_TRUE(obs::parseJson("{\"a\":1,\"b\":\"x\"}", 1).ok());
  EXPECT_EQ(obs::parseJson("{\"a\":[1]}", 1).error.str(),
            "line 1, column 6: nesting deeper than 1");
}

// --- metrics ----------------------------------------------------------------

TEST(MetricsTest, CounterGaugeBasics) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("c");
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  EXPECT_EQ(&registry.counter("c"), &counter) << "same name -> same instrument";

  obs::Gauge& gauge = registry.gauge("g");
  gauge.set(7);
  gauge.add(5);
  gauge.add(-10);
  EXPECT_EQ(gauge.value(), 2);
  EXPECT_EQ(gauge.maxValue(), 12) << "high-watermark survives the drop";
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsTest, HistogramBucketsObservations) {
  obs::MetricsRegistry registry;
  obs::Histogram& histogram = registry.histogram("h", {1.0, 10.0});
  histogram.observe(0.5);   // <= 1
  histogram.observe(1.0);   // <= 1 (bounds are inclusive upper bounds)
  histogram.observe(5.0);   // <= 10
  histogram.observe(100.0); // +Inf
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 106.5);
  const auto counts = histogram.bucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(MetricsTest, ConcurrentUpdatesLoseNothing) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&registry] {
      // Mixing registration and updates across threads exercises both the
      // registry lock and the atomic hot paths.
      obs::Counter& counter = registry.counter("shared.counter");
      obs::Gauge& gauge = registry.gauge("shared.gauge");
      obs::Histogram& histogram = registry.histogram("shared.hist", {0.5});
      for (int i = 0; i < kIterations; ++i) {
        counter.add(1);
        gauge.add(1);
        gauge.add(-1);
        histogram.observe(i % 2 == 0 ? 0.25 : 1.0);
      }
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.counter("shared.counter").value(),
            static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(registry.gauge("shared.gauge").value(), 0);
  obs::Histogram& histogram = registry.histogram("shared.hist");
  EXPECT_EQ(histogram.count(), static_cast<uint64_t>(kThreads) * kIterations);
  const auto counts = histogram.bucketCounts();
  EXPECT_EQ(counts[0], static_cast<uint64_t>(kThreads) * kIterations / 2);
  EXPECT_EQ(registry.size(), 3u) << "no duplicate registration under contention";
}

TEST(MetricsTest, JsonSnapshotRoundTrips) {
  obs::MetricsRegistry registry;
  registry.counter("dist.retries").add(3);
  registry.gauge("mq.depth").set(5);
  registry.histogram("lat", {1.0}).observe(0.5);
  registry.histogram("lat").observe(2.0);

  const obs::JsonValue root = parseJsonOrFail(registry.toJson());
  ASSERT_EQ(root.kind, obs::JsonValue::Kind::kObject);
  EXPECT_EQ(member(member(root, "counters"), "dist.retries").number, 3.0);
  const obs::JsonValue& gauge = member(member(root, "gauges"), "mq.depth");
  EXPECT_EQ(member(gauge, "value").number, 5.0);
  EXPECT_EQ(member(gauge, "max").number, 5.0);
  const obs::JsonValue& histogram = member(member(root, "histograms"), "lat");
  EXPECT_EQ(member(histogram, "count").number, 2.0);
  EXPECT_EQ(member(histogram, "sum").number, 2.5);
  const std::vector<obs::JsonValue>& buckets = member(histogram, "buckets").items;
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(member(buckets[0], "le").number, 1.0);
  EXPECT_EQ(member(buckets[0], "count").number, 1.0);
  EXPECT_EQ(buckets[1].str("le"), "+Inf");
}

TEST(MetricsTest, PrometheusTextExposition) {
  obs::MetricsRegistry registry;
  registry.counter("dist.retries").add(2);
  registry.gauge("store.live_bytes").set(1024);
  registry.histogram("dist.subtask_seconds", {0.1, 1.0}).observe(0.05);
  registry.histogram("dist.subtask_seconds").observe(0.5);
  const std::string text = registry.toPrometheusText();
  EXPECT_NE(text.find("# TYPE dist_retries counter\ndist_retries 2\n"), std::string::npos);
  EXPECT_NE(text.find("store_live_bytes 1024"), std::string::npos);
  // Every family carries a HELP line even when no call site registered help:
  // the default names the dotted registry entry.
  EXPECT_NE(text.find("# HELP dist_retries Hoyan counter 'dist.retries'.\n"
                      "# TYPE dist_retries counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP store_live_bytes "), std::string::npos);
  // Buckets are cumulative in the exposition format.
  EXPECT_NE(text.find("dist_subtask_seconds_bucket{le=\"0.1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("dist_subtask_seconds_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("dist_subtask_seconds_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("dist_subtask_seconds_count 2"), std::string::npos);
}

TEST(MetricsTest, PrometheusQuantileLines) {
  obs::MetricsRegistry registry;
  // Bounds at the quantile cuts so each quantile reports a distinct bucket:
  // observations 1..100 put the p50/p95/p99 ranks in the 50/95/99 buckets.
  obs::Histogram& histogram = registry.histogram("lat_seconds", {10, 50, 95, 99, 100});
  for (int i = 1; i <= 100; ++i) histogram.observe(i);
  const std::string text = registry.toPrometheusText();
  EXPECT_NE(text.find("# TYPE lat_seconds_quantile gauge"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_quantile{quantile=\"0.5\"} 50"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_seconds_quantile{quantile=\"0.95\"} 95"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_quantile{quantile=\"0.99\"} 99"), std::string::npos);
  // And the JSON snapshot carries the same quantiles.
  const obs::JsonValue root = parseJsonOrFail(registry.toJson());
  const obs::JsonValue& quantiles =
      member(member(member(root, "histograms"), "lat_seconds"), "quantiles");
  EXPECT_EQ(member(quantiles, "p50").number, 50.0);
  EXPECT_EQ(member(quantiles, "p95").number, 95.0);
  EXPECT_EQ(member(quantiles, "p99").number, 99.0);
}

TEST(MetricsTest, HistogramQuantileNearestRank) {
  obs::MetricsRegistry registry;
  obs::Histogram& histogram = registry.histogram("q", {1.0, 2.0, 4.0, 8.0});
  // Quantiles come from bucket upper bounds (the histogram keeps no samples):
  // 10 observations <= 1, none elsewhere, so every quantile reports 1.
  for (int i = 0; i < 10; ++i) histogram.observe(0.5);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.50), 1.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.99), 1.0);
  histogram.observe(3.0);  // An 11th observation in the (2, 4] bucket.
  EXPECT_DOUBLE_EQ(histogram.quantile(0.50), 1.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 4.0);
  // Empty histogram: quantiles are 0, not NaN.
  EXPECT_DOUBLE_EQ(registry.histogram("empty", {1.0}).quantile(0.5), 0.0);
}

TEST(MetricsTest, NearestRankIndexIsUnbiased) {
  // ceil(p*n) - 1: the canonical nearest-rank definition. The old
  // floor(p*n) form reported one sample too high at every exact cut.
  EXPECT_EQ(obs::nearestRankIndex(0.50, 100), 49u);
  EXPECT_EQ(obs::nearestRankIndex(0.95, 100), 94u);
  EXPECT_EQ(obs::nearestRankIndex(0.99, 100), 98u);
  EXPECT_EQ(obs::nearestRankIndex(1.00, 100), 99u);
  EXPECT_EQ(obs::nearestRankIndex(0.00, 100), 0u);
  EXPECT_EQ(obs::nearestRankIndex(0.50, 1), 0u);
  EXPECT_EQ(obs::nearestRankIndex(0.50, 2), 0u);
  EXPECT_EQ(obs::nearestRankIndex(0.75, 4), 2u);
}

TEST(MetricsTest, PrometheusNameSanitisation) {
  EXPECT_EQ(obs::prometheusMetricName("dist.subtask.seconds"), "dist_subtask_seconds");
  EXPECT_EQ(obs::prometheusMetricName("9lives"), "_9lives") << "leading digit";
  EXPECT_EQ(obs::prometheusMetricName("a-b c/d"), "a_b_c_d");
  EXPECT_EQ(obs::prometheusMetricName("ok_name:v1"), "ok_name:v1")
      << "colons are legal in the exposition grammar";
}

TEST(MetricsTest, PrometheusLabelEscaping) {
  EXPECT_EQ(obs::prometheusLabelEscape("plain"), "plain");
  EXPECT_EQ(obs::prometheusLabelEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::prometheusLabelEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prometheusLabelEscape("line1\nline2"), "line1\\nline2");
}

TEST(MetricsTest, PrometheusHelpLines) {
  obs::MetricsRegistry registry;
  registry.counter("dist.retries", "Subtasks re-enqueued after a crash.").add(1);
  // Re-registering with different help never overwrites the first.
  registry.counter("dist.retries", "other text");
  // A later registration fills help left empty by the first.
  registry.gauge("mq.depth");
  registry.gauge("mq.depth", "Messages queued.");
  const std::string text = registry.toPrometheusText();
  EXPECT_NE(text.find("# HELP dist_retries Subtasks re-enqueued after a crash.\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("other text"), std::string::npos);
  EXPECT_NE(text.find("# HELP mq_depth Messages queued.\n"), std::string::npos);
  // HELP precedes TYPE for the same family, per the exposition format.
  const size_t help = text.find("# HELP dist_retries");
  const size_t type = text.find("# TYPE dist_retries");
  ASSERT_NE(help, std::string::npos);
  ASSERT_NE(type, std::string::npos);
  EXPECT_LT(help, type);
}

TEST(MetricsTest, PrometheusHelpEscaping) {
  EXPECT_EQ(obs::prometheusHelpEscape("plain"), "plain");
  EXPECT_EQ(obs::prometheusHelpEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prometheusHelpEscape("line1\nline2"), "line1\\nline2");
  // Quotes are legal in HELP text (unlike label values) and pass through.
  EXPECT_EQ(obs::prometheusHelpEscape("say \"hi\""), "say \"hi\"");

  obs::MetricsRegistry registry;
  registry.counter("c", "multi\nline \\ help");
  const std::string text = registry.toPrometheusText();
  EXPECT_NE(text.find("# HELP c multi\\nline \\\\ help\n"), std::string::npos)
      << text;
}

// Parses the whole exposition back line by line: every line is a comment or
// `name{labels} value`, names match the grammar, and label values stay
// balanced — the round-trip guard for the exporter.
TEST(MetricsTest, PrometheusExpositionGrammarRoundTrip) {
  obs::MetricsRegistry registry;
  registry.counter("dist.retries").add(2);
  registry.gauge("9weird.gauge name", "A \"quoted\"\nhelp \\ string").set(3);
  registry.histogram("lat", {0.5, 1.5}).observe(1.0);
  const std::string text = registry.toPrometheusText();

  size_t samples = 0;
  bool lastCommentWasHelp = false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      const bool isHelp = line.rfind("# HELP ", 0) == 0;
      const bool isType = line.rfind("# TYPE ", 0) == 0;
      EXPECT_TRUE(isHelp || isType) << line;
      // Every TYPE is introduced by the family's HELP directly above it, and
      // HELP text never leaks a raw newline (it would have split the line).
      if (isType) EXPECT_TRUE(lastCommentWasHelp) << line;
      lastCommentWasHelp = isHelp;
      continue;
    }
    // name ::= [a-zA-Z_:][a-zA-Z0-9_:]*
    size_t pos = 0;
    const auto nameChar = [&](char c, bool first) {
      return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
             (!first && std::isdigit(static_cast<unsigned char>(c)));
    };
    ASSERT_TRUE(pos < line.size() && nameChar(line[pos], true)) << line;
    while (pos < line.size() && nameChar(line[pos], false)) ++pos;
    // Optional {label="value",...} block with escapes.
    if (pos < line.size() && line[pos] == '{') {
      ++pos;
      while (pos < line.size() && line[pos] != '}') {
        while (pos < line.size() && nameChar(line[pos], false)) ++pos;
        ASSERT_TRUE(pos + 1 < line.size() && line[pos] == '=' && line[pos + 1] == '"')
            << line;
        pos += 2;
        while (pos < line.size() && line[pos] != '"') pos += line[pos] == '\\' ? 2 : 1;
        ASSERT_TRUE(pos < line.size()) << "unterminated label value: " << line;
        ++pos;
        if (pos < line.size() && line[pos] == ',') ++pos;
      }
      ASSERT_TRUE(pos < line.size()) << "unterminated label block: " << line;
      ++pos;
    }
    // A single space, then a parseable number.
    ASSERT_TRUE(pos < line.size() && line[pos] == ' ') << line;
    const std::string value = line.substr(pos + 1);
    size_t parsed = 0;
    if (value == "+Inf" || value == "-Inf" || value == "NaN") {
      parsed = value.size();
    } else {
      (void)std::stod(value, &parsed);
    }
    EXPECT_EQ(parsed, value.size()) << line;
    ++samples;
  }
  EXPECT_GE(samples, 10u) << "counter + gauge(2) + buckets + quantiles + sum/count";
}

// --- tracing ----------------------------------------------------------------

TEST(TraceTest, SpansNestOnThePerThreadStack) {
  obs::Tracer tracer;
  {
    obs::Span outer = tracer.span("task", "test");
    {
      obs::Span inner = tracer.span("subtask", "test");
      inner.arg("id", "route-0");
    }
    obs::Span sibling = tracer.span("merge", "test");
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  // Events record in finish order: inner, sibling, outer.
  EXPECT_EQ(events[0].name, "subtask");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].name, "merge");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "task");
  EXPECT_EQ(events[2].depth, 0);
  // Nesting is consistent in time: the parent covers the children.
  EXPECT_LE(events[2].startMicros, events[0].startMicros);
  EXPECT_GE(events[2].startMicros + events[2].durationMicros,
            events[0].startMicros + events[0].durationMicros);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "id");
  EXPECT_EQ(events[0].args[0].second, "route-0");
}

TEST(TraceTest, DisabledTracerStillTimesButRecordsNothing) {
  obs::Tracer tracer(false);
  obs::Span span = tracer.span("x");
  span.finish();
  EXPECT_GE(span.seconds(), 0.0);
  EXPECT_EQ(tracer.eventCount(), 0u);
}

TEST(TraceTest, FinishIsIdempotentAndMoveSafe) {
  obs::Tracer tracer;
  obs::Span span = tracer.span("a");
  obs::Span moved = std::move(span);
  moved.finish();
  moved.finish();
  EXPECT_EQ(tracer.eventCount(), 1u) << "one event despite move + double finish";
}

TEST(TraceTest, ChromeTraceJsonParsesBack) {
  obs::Tracer tracer;
  {
    obs::Span outer = tracer.span("route.task", "dist");
    obs::Span inner = tracer.span("route.subtask", "dist");
    inner.arg("id", "route-7");
  }
  const obs::JsonValue root = parseJsonOrFail(tracer.toChromeTraceJson());
  const std::vector<obs::JsonValue>& events = member(root, "traceEvents").items;
  ASSERT_EQ(events.size(), 2u);
  for (const obs::JsonValue& event : events) {
    EXPECT_EQ(member(event, "ph").text, "X");
    EXPECT_EQ(member(event, "cat").text, "dist");
    EXPECT_GE(member(event, "dur").number, 0.0);
    EXPECT_GE(member(event, "tid").number, 1.0);
  }
  EXPECT_EQ(member(events[0], "name").text, "route.subtask");
  EXPECT_EQ(member(member(events[0], "args"), "id").text, "route-7");
}

TEST(TraceTest, ChromeTraceJsonEscapesControlCharacters) {
  obs::Tracer tracer;
  {
    obs::Span span = tracer.span("carriage\rreturn", "dist");
    span.arg("detail", std::string("tab\tnul\0unit\x1f", 13));
  }
  const std::string json = tracer.toChromeTraceJson();
  EXPECT_NE(json.find("carriage\\rreturn"), std::string::npos) << json;
  EXPECT_NE(json.find("tab\\tnul\\u0000unit\\u001f"), std::string::npos) << json;
  EXPECT_TRUE(std::none_of(json.begin(), json.end(),
                           [](char c) { return static_cast<unsigned char>(c) < 0x20; }))
      << "raw control character in " << json;
  const obs::JsonValue root = parseJsonOrFail(json);
  const std::vector<obs::JsonValue>& events = member(root, "traceEvents").items;
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(member(events[0], "name").text, "carriage\rreturn");
  // Decoded byte for byte, the embedded NUL included.
  EXPECT_EQ(member(member(events[0], "args"), "detail").text,
            std::string("tab\tnul\0unit\x1f", 13));
}

TEST(TraceTest, ConcurrentSpansRecordPerThreadIds) {
  obs::Tracer tracer;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&tracer] {
      for (int i = 0; i < 50; ++i) obs::Span span = tracer.span("work");
    });
  for (std::thread& thread : threads) thread.join();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 200u);
  for (const obs::TraceEvent& event : events) EXPECT_EQ(event.depth, 0);
}

// --- telemetry bundle & instrumented primitives -----------------------------

TEST(TelemetryTest, DisabledSinkIsInertAndShared) {
  obs::Telemetry& disabled = obs::Telemetry::disabled();
  EXPECT_FALSE(disabled.tracer().enabled());
  EXPECT_FALSE(disabled.log().enabled(obs::LogLevel::kError));
  EXPECT_EQ(&obs::Telemetry::orDisabled(nullptr), &disabled);
  obs::Telemetry own;
  EXPECT_EQ(&obs::Telemetry::orDisabled(&own), &own);
}

TEST(TelemetryTest, MessageQueueReportsDepthAndWait) {
  obs::MetricsRegistry registry;
  MessageQueue<int> queue;
  queue.bindTelemetry(&registry.gauge("mq.depth"), &registry.histogram("mq.wait", {1.0}));
  queue.push(1);
  queue.push(2);
  EXPECT_EQ(registry.gauge("mq.depth").value(), 2);
  EXPECT_EQ(registry.gauge("mq.depth").maxValue(), 2);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.tryPop(), 2);
  EXPECT_EQ(registry.gauge("mq.depth").value(), 0);
  EXPECT_EQ(registry.histogram("mq.wait").count(), 2u);
}

TEST(TelemetryTest, ObjectStoreTracksResidency) {
  ObjectStore store;
  obs::MetricsRegistry registry;
  store.put("pre", std::string("w"), 7);
  // Binding names the four instruments and sets the gauges to the current
  // residency.
  store.bindTelemetry(registry);
  EXPECT_EQ(registry.size(), 4u);
  EXPECT_EQ(registry.gauge("store.blobs").value(), 1);
  EXPECT_EQ(registry.gauge("store.live_bytes").value(), 7);
  const std::string exposition = registry.toPrometheusText();
  for (const char* help : {"# HELP store_blobs Live blobs in the object store.\n",
                           "# HELP store_live_bytes Bytes held by live object-store blobs.\n",
                           "# HELP store_bytes_read Bytes read from the object store.\n",
                           "# HELP store_bytes_written Bytes written to the object store.\n"})
    EXPECT_NE(exposition.find(help), std::string::npos) << help;
  store.erase("pre");
  store.put("a", std::string("x"), 100);
  store.put("b", std::string("y"), 50);
  EXPECT_EQ(store.blobCount(), 2u);
  EXPECT_EQ(store.liveBytes(), 150u);
  // Overwrite replaces the old blob's bytes instead of double counting.
  store.put("a", std::string("z"), 10);
  EXPECT_EQ(store.blobCount(), 2u);
  EXPECT_EQ(store.liveBytes(), 60u);
  store.get<std::string>("b");
  store.erase("b");
  EXPECT_EQ(store.blobCount(), 1u);
  EXPECT_EQ(store.liveBytes(), 10u);
  EXPECT_EQ(registry.gauge("store.blobs").value(), 1);
  EXPECT_EQ(registry.gauge("store.blobs").maxValue(), 2);
  EXPECT_EQ(registry.gauge("store.live_bytes").value(), 10);
  EXPECT_EQ(registry.gauge("store.live_bytes").maxValue(), 150);
  EXPECT_EQ(registry.counter("store.bytes_written").value(), 160u);
  EXPECT_EQ(registry.counter("store.bytes_read").value(), 50u);
  // The store's own cumulative accounting also counts the write made before
  // binding; the counters start at the binding.
  EXPECT_EQ(store.bytesWritten(), 167u);
  EXPECT_EQ(store.bytesRead(), 50u);
}

TEST(TelemetryTest, LoggerGatesOnLevel) {
  obs::Logger logger(obs::LogLevel::kWarn);
  EXPECT_FALSE(logger.enabled(obs::LogLevel::kDebug));
  EXPECT_FALSE(logger.enabled(obs::LogLevel::kInfo));
  EXPECT_TRUE(logger.enabled(obs::LogLevel::kWarn));
  EXPECT_TRUE(logger.enabled(obs::LogLevel::kError));
  obs::Logger off;
  EXPECT_FALSE(off.enabled(obs::LogLevel::kError));
  EXPECT_EQ(obs::logLevelFromName("info"), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::logLevelFromName("bogus", obs::LogLevel::kWarn), obs::LogLevel::kWarn);
}

TEST(TelemetryTest, WriteFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/obs_write_file_test.json";
  ASSERT_TRUE(obs::writeFile(path, "{\"ok\":true}"));
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "{\"ok\":true}");
}

}  // namespace
}  // namespace hoyan
