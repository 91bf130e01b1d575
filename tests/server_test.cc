// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the introspection server (server/introspect.h): the pure
// exposition helpers (name sanitization, label escaping, Prometheus
// rendering invariants, trace-event JSON), the socket-free Handle()
// dispatcher, a mutation sweep of the request-head parse, and the real
// HTTP loop end-to-end via FetchLocal() and a raw socket.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "amnesia/audit_ledger.h"
#include "obs/metrics.h"
#include "obs/sla.h"
#include "obs/trace.h"
#include "server/introspect.h"
#include "sim/simulator.h"

namespace amnesia {
namespace server {
namespace {

#if defined(AMNESIA_NO_METRICS)
#define SKIP_WITHOUT_METRICS() \
  GTEST_SKIP() << "metrics compiled out (AMNESIA_NO_METRICS)"
#else
#define SKIP_WITHOUT_METRICS() (void)0
#endif

// ---- pure helpers ---------------------------------------------------------

TEST(SanitizeTest, MapsOntoPrometheusCharset) {
  EXPECT_EQ(SanitizeMetricName("scan.rows_scanned"), "scan_rows_scanned");
  EXPECT_EQ(SanitizeMetricName("a.b-c d/e"), "a_b_c_d_e");
  EXPECT_EQ(SanitizeMetricName("already_fine:ok_123"), "already_fine:ok_123");
  // A leading digit is illegal in the exposition format.
  EXPECT_EQ(SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(SanitizeMetricName(""), "");
}

TEST(EscapeTest, EscapesLabelValues) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("back\\slash"), "back\\\\slash");
  EXPECT_EQ(EscapeLabelValue("quo\"te"), "quo\\\"te");
  EXPECT_EQ(EscapeLabelValue("new\nline"), "new\\nline");
}

// Parses every "name{labels} value" sample line of an exposition body into
// (series-name-with-labels, value) pairs; dies on malformed lines. This is
// the "golden parse": any line a Prometheus scraper would reject fails here.
std::vector<std::pair<std::string, double>> ParseExposition(
    const std::string& body) {
  std::vector<std::pair<std::string, double>> samples;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << "bad comment line: " << line;
      continue;
    }
    const size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << "no value in: " << line;
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    // Bare series names must stay within the legal charset.
    const size_t brace = name.find('{');
    const std::string bare =
        brace == std::string::npos ? name : name.substr(0, brace);
    for (char c : bare) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << "illegal char '" << c << "' in " << bare;
    }
    size_t parsed = 0;
    const double value = std::stod(line.substr(space + 1), &parsed);
    EXPECT_GT(parsed, 0u) << "unparseable value in: " << line;
    samples.emplace_back(name, value);
  }
  return samples;
}

double SampleValue(const std::vector<std::pair<std::string, double>>& samples,
                   const std::string& name) {
  for (const auto& s : samples) {
    if (s.first == name) return s.second;
  }
  ADD_FAILURE() << "missing sample " << name;
  return -1.0;
}

TEST(PrometheusTest, RendersCountersGaugesAndHighWaters) {
  obs::MetricsSnapshot snap;
  snap.counters["scan.rows_scanned"] = 42;
  snap.gauges["log.queue_depth"] = {7, 31};
  const std::string body = RenderPrometheus(snap);
  const auto samples = ParseExposition(body);
  EXPECT_EQ(SampleValue(samples, "amnesia_scan_rows_scanned"), 42.0);
  EXPECT_EQ(SampleValue(samples, "amnesia_log_queue_depth"), 7.0);
  EXPECT_EQ(SampleValue(samples, "amnesia_log_queue_depth_high_water"), 31.0);
  EXPECT_NE(body.find("# TYPE amnesia_scan_rows_scanned counter"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("# TYPE amnesia_log_queue_depth gauge"),
            std::string::npos)
      << body;
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeAndClosed) {
  obs::MetricsSnapshot snap;
  obs::HistogramSnapshot h;
  h.buckets[0] = 3;   // three zero samples            -> le="0"
  h.buckets[2] = 5;   // five samples in [2, 4)        -> le="3"
  h.buckets[10] = 1;  // one sample in [512, 1024)     -> le="1023"
  h.count = 9;
  h.sum = 1000;
  snap.histograms["query.scan_ns"] = h;

  const std::string body = RenderPrometheus(snap);
  const auto samples = ParseExposition(body);

  // Cumulative counts at the populated bounds.
  EXPECT_EQ(SampleValue(samples, "amnesia_query_scan_ns_bucket{le=\"0\"}"),
            3.0);
  EXPECT_EQ(SampleValue(samples, "amnesia_query_scan_ns_bucket{le=\"3\"}"),
            8.0);
  EXPECT_EQ(SampleValue(samples, "amnesia_query_scan_ns_bucket{le=\"1023\"}"),
            9.0);
  EXPECT_EQ(SampleValue(samples, "amnesia_query_scan_ns_bucket{le=\"+Inf\"}"),
            9.0);
  EXPECT_EQ(SampleValue(samples, "amnesia_query_scan_ns_sum"), 1000.0);
  EXPECT_EQ(SampleValue(samples, "amnesia_query_scan_ns_count"), 9.0);

  // The scraper-level invariant: every _bucket series is monotonically
  // non-decreasing in emission order and +Inf equals _count.
  double prev = 0.0;
  bool saw_inf = false;
  for (const auto& s : samples) {
    if (s.first.rfind("amnesia_query_scan_ns_bucket", 0) != 0) continue;
    EXPECT_GE(s.second, prev) << s.first;
    prev = s.second;
    saw_inf = s.first.find("+Inf") != std::string::npos;
  }
  EXPECT_TRUE(saw_inf) << "last bucket must be +Inf";
}

TEST(PrometheusTest, LiveRegistrySnapshotParsesCleanly) {
  SKIP_WITHOUT_METRICS();
  // Touch each metric kind so the live snapshot has all three families.
  obs::MetricsRegistry::Global().GetCounter("server_test.counter")->Inc();
  obs::MetricsRegistry::Global().GetGauge("server_test.gauge")->Set(5);
  obs::MetricsRegistry::Global()
      .GetHistogram("server_test.histogram")
      ->Record(100);
  const std::string body =
      RenderPrometheus(obs::MetricsRegistry::Global().SnapshotAll());
  const auto samples = ParseExposition(body);  // golden parse of everything
  EXPECT_GE(SampleValue(samples, "amnesia_server_test_counter"), 1.0);
  EXPECT_EQ(SampleValue(samples, "amnesia_server_test_gauge"), 5.0);
  EXPECT_GE(SampleValue(samples, "amnesia_server_test_histogram_count"), 1.0);
}

TEST(TraceJsonTest, RendersTraceEventJson) {
  std::vector<obs::TraceSpan> spans(2);
  spans[0].name = "ingest";
  spans[0].thread_id = 0xdeadbeefcafeULL;  // > 2^32: must be remapped
  spans[0].start_ns = 1'500;               // 1.5 us
  spans[0].duration_ns = 2'000;
  spans[0].annotations[0] = {"rows", 128};
  spans[0].num_annotations = 1;
  spans[1].name = "flush";
  spans[1].thread_id = 0x1234;
  spans[1].start_ns = 4'000;
  spans[1].duration_ns = 500;

  const std::string json = RenderTraceJson(spans);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ingest\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"rows\":128}"), std::string::npos);
  // Hashed thread ids are remapped to small first-seen ordinals.
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_EQ(json.find("deadbeef"), std::string::npos);
  // Balanced braces/brackets (cheap structural validity check).
  int braces = 0;
  int brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// ---- socket-free dispatch -------------------------------------------------

TEST(HandleTest, DispatchesEndpoints) {
  IntrospectionServer srv;
  EXPECT_EQ(srv.Handle("/healthz", {}).status, 200);
  EXPECT_EQ(srv.Handle("/healthz", {}).body, "ok\n");
  EXPECT_EQ(srv.Handle("/metrics", {}).status, 200);
  EXPECT_NE(srv.Handle("/metrics", {}).content_type.find("version=0.0.4"),
            std::string::npos);
  EXPECT_NE(srv.Handle("/metrics", {{"format", "json"}})
                .content_type.find("application/json"),
            std::string::npos);
  EXPECT_NE(srv.Handle("/tracez", {}).content_type.find("application/json"),
            std::string::npos);
  EXPECT_EQ(srv.Handle("/profilez", {}).status, 200);
  EXPECT_EQ(srv.Handle("/nope", {}).status, 404);
  EXPECT_FALSE(srv.quit_requested());
  EXPECT_EQ(srv.Handle("/quitz", {}).status, 200);
  EXPECT_TRUE(srv.quit_requested());
}

TEST(HandleTest, TargetParsingSplitsQueryParams) {
  IntrospectionServer srv;
  const HttpResponse json = srv.HandleTarget("/metrics?format=json");
  EXPECT_NE(json.content_type.find("application/json"), std::string::npos);
  // An unknown profile id is a 404 with a helpful body, not a parse error.
  const HttpResponse missing = srv.HandleTarget("/profilez?id=999999999");
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(srv.HandleTarget("/healthz?x=1&y=2").status, 200);
}

TEST(HandleTest, ReadyzReportsProbeResults) {
  IntrospectionServer ok_srv;
  // No probes registered: vacuously ready.
  EXPECT_EQ(ok_srv.Handle("/readyz", {}).status, 200);

  IntrospectionOptions opts;
  opts.readiness_probes.push_back({"good", [] { return Status::OK(); }});
  opts.readiness_probes.push_back(
      {"bad", [] { return Status::FailedPrecondition("still warming up"); }});
  IntrospectionServer srv;
  ASSERT_TRUE(srv.Start(std::move(opts)).ok());
  const HttpResponse resp = srv.Handle("/readyz", {});
  EXPECT_EQ(resp.status, 503);
  EXPECT_NE(resp.body.find("good: ok"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("bad:"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("still warming up"), std::string::npos)
      << resp.body;
  srv.Stop();
}

// ---- the real socket loop -------------------------------------------------

TEST(HttpTest, ServesMetricsOverLoopback) {
  IntrospectionServer srv;
  ASSERT_TRUE(srv.Start({}).ok());  // port 0: ephemeral
  ASSERT_TRUE(srv.running());
  ASSERT_NE(srv.port(), 0);

  auto resp = FetchLocal(srv.port(), "/metrics");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->content_type.find("version=0.0.4"), std::string::npos);
#if !defined(AMNESIA_NO_METRICS)
  obs::MetricsRegistry::Global().GetCounter("server_test.http")->Inc();
  resp = FetchLocal(srv.port(), "/metrics");
  ASSERT_TRUE(resp.ok());
  EXPECT_NE(resp->body.find("amnesia_server_test_http"), std::string::npos);
#endif

  auto health = FetchLocal(srv.port(), "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  auto missing = FetchLocal(srv.port(), "/definitely-not-an-endpoint");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);

  auto tracez = FetchLocal(srv.port(), "/tracez");
  ASSERT_TRUE(tracez.ok());
  EXPECT_EQ(tracez->status, 200);
  EXPECT_NE(tracez->body.find("\"traceEvents\""), std::string::npos);

  srv.Stop();
  EXPECT_FALSE(srv.running());
  srv.Stop();  // idempotent
}

TEST(HttpTest, ReadyzFlipsWithProbeState) {
  bool ready = false;
  IntrospectionOptions opts;
  opts.readiness_probes.push_back({"flag", [&ready] {
                                     return ready
                                                ? Status::OK()
                                                : Status::FailedPrecondition(
                                                      "not yet");
                                   }});
  IntrospectionServer srv;
  ASSERT_TRUE(srv.Start(std::move(opts)).ok());

  auto resp = FetchLocal(srv.port(), "/readyz");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 503);
  ready = true;
  resp = FetchLocal(srv.port(), "/readyz");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  srv.Stop();
}

TEST(HttpTest, QuitzSetsTheFlagOverHttp) {
  IntrospectionServer srv;
  ASSERT_TRUE(srv.Start({}).ok());
  EXPECT_FALSE(srv.quit_requested());
  auto resp = FetchLocal(srv.port(), "/quitz");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  EXPECT_TRUE(srv.quit_requested());
  srv.Stop();
}

TEST(HttpTest, StartTwiceFailsAndSecondServerGetsOwnPort) {
  IntrospectionServer a;
  ASSERT_TRUE(a.Start({}).ok());
  EXPECT_FALSE(a.Start({}).ok());  // already running

  IntrospectionServer b;
  ASSERT_TRUE(b.Start({}).ok());
  EXPECT_NE(a.port(), b.port());
  auto resp = FetchLocal(b.port(), "/healthz");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  b.Stop();
  a.Stop();
}

// ---- /auditz and /slaz ----------------------------------------------------

TEST(HandleTest, AuditzAndSlazAnswer404WhenNotWired) {
  IntrospectionServer srv;
  const HttpResponse auditz = srv.Handle("/auditz", {});
  EXPECT_EQ(auditz.status, 404);
  EXPECT_NE(auditz.body.find("no audit ledger"), std::string::npos);
  EXPECT_EQ(srv.Handle("/slaz", {}).status, 404);
}

TEST(HandleTest, AuditzRendersTailAndChainStatus) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "amnesia_srv_auditz").string();
  std::filesystem::remove_all(dir);
  AuditLedger ledger = AuditLedger::Open(dir).value();
  for (uint64_t i = 0; i < 3; ++i) {
    AuditRecord r;
    r.op = AuditOp::kVacuum;
    r.policy = "fifo";
    r.rows_marked = 10 + i;
    r.rows_scrubbed = 10 + i;
    r.batch = i;
    ASSERT_TRUE(ledger.Append(&r).ok());
  }

  IntrospectionOptions opts;
  opts.audit_ledger = &ledger;
  IntrospectionServer srv;
  ASSERT_TRUE(srv.Start(std::move(opts)).ok());

  const HttpResponse text = srv.Handle("/auditz", {});
  EXPECT_EQ(text.status, 200);
  EXPECT_NE(text.body.find("chain: OK"), std::string::npos) << text.body;
  EXPECT_NE(text.body.find("policy=fifo"), std::string::npos);
  EXPECT_NE(text.body.find("#2"), std::string::npos);

  const HttpResponse json = srv.HandleTarget("/auditz?format=json&n=2");
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(json.body.find("\"chain\""), std::string::npos);
  EXPECT_NE(json.body.find("\"ok\":true"), std::string::npos) << json.body;
  // n=2 limits the tail: seq 0 is not served, 1 and 2 are.
  EXPECT_EQ(json.body.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(json.body.find("\"seq\":2"), std::string::npos);
  srv.Stop();
  std::filesystem::remove_all(dir);
}

TEST(HandleTest, SlazRendersPolicyStateAndAttestation) {
  obs::SlaTracker sla;
  sla.RecordSweep("fifo", /*lag_batches=*/0, /*batch=*/5);
  sla.RecordDeletionLatency("fifo", 1, 3);
  obs::SlaAttestation att;
  att.checked = true;
  att.passed = true;
  att.batch = 5;
  att.max_age_batches = 2;
  att.live_rows = 100;
  att.overdue_rows = 0;
  sla.RecordAttestation("fifo", att);

  IntrospectionOptions opts;
  opts.sla = &sla;
  IntrospectionServer srv;
  ASSERT_TRUE(srv.Start(std::move(opts)).ok());

  const HttpResponse text = srv.Handle("/slaz", {});
  EXPECT_EQ(text.status, 200);
  EXPECT_NE(text.body.find("fifo"), std::string::npos);
  // The attestation is only asserted because a CountRange cross-check
  // recorded it as checked AND passed.
  EXPECT_NE(text.body.find("PASSED"), std::string::npos) << text.body;
  EXPECT_NE(text.body.find("no live row older than 2"), std::string::npos)
      << text.body;

  const HttpResponse json = srv.HandleTarget("/slaz?format=json");
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.body.find("\"policy\":\"fifo\""), std::string::npos);
  EXPECT_NE(json.body.find("\"passed\":true"), std::string::npos);
  EXPECT_NE(json.body.find("\"forget_lag_batches\":0"), std::string::npos);
  srv.Stop();
}

TEST(HandleTest, SlazNeverAssertsAnUncheckedAttestation) {
  obs::SlaTracker sla;
  sla.RecordSweep("fifo", /*lag_batches=*/1, /*batch=*/3);
  IntrospectionOptions opts;
  opts.sla = &sla;
  IntrospectionServer srv;
  ASSERT_TRUE(srv.Start(std::move(opts)).ok());
  const HttpResponse text = srv.Handle("/slaz", {});
  EXPECT_EQ(text.status, 200);
  EXPECT_EQ(text.body.find("PASSED"), std::string::npos) << text.body;
  EXPECT_NE(text.body.find("not yet cross-checked"), std::string::npos)
      << text.body;
  srv.Stop();
}

// ---- the request head -----------------------------------------------------

/// What a connection gets for `head`: the response status, or 0 when it
/// closes unanswered.
int Outcome(IntrospectionServer* srv, const std::string& head) {
  const std::optional<HttpResponse> resp = srv->HandleRequestHead(head);
  return resp.has_value() ? resp->status : 0;
}

bool IsServedOutcome(int outcome) {
  static const std::set<int> kServed = {0, 200, 400, 404, 405, 503};
  return kServed.count(outcome) > 0;
}

/// A server with a three-record audit ledger, so /auditz answers 200.
class RequestHeadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "amnesia_srv_head")
               .string();
    std::filesystem::remove_all(dir_);
    ledger_.emplace(AuditLedger::Open(dir_).value());
    for (uint64_t i = 0; i < 3; ++i) {
      AuditRecord r;
      r.op = AuditOp::kVacuum;
      r.policy = "fifo";
      r.batch = i;
      ASSERT_TRUE(ledger_->Append(&r).ok());
    }
    IntrospectionOptions opts;
    opts.audit_ledger = &*ledger_;
    ASSERT_TRUE(srv_.Start(std::move(opts)).ok());
  }
  void TearDown() override {
    srv_.Stop();
    ledger_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::optional<AuditLedger> ledger_;
  IntrospectionServer srv_;
};

const char kValidHead[] =
    "GET /auditz?n=5&format=json HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";

TEST_F(RequestHeadTest, EveryTruncationAndByteFlipIsAnsweredOrClosed) {
  const std::string head = kValidHead;
  const std::optional<HttpResponse> valid = srv_.HandleRequestHead(head);
  ASSERT_TRUE(valid.has_value());
  EXPECT_EQ(valid->status, 200);
  EXPECT_NE(valid->body.find("\"ok\":true"), std::string::npos)
      << valid->body;

  const size_t line_end = head.find("\r\n");
  for (size_t cut = 0; cut < head.size(); ++cut) {
    const int outcome = Outcome(&srv_, head.substr(0, cut));
    // Without its CRLF the request line is incomplete: the connection
    // closes. With it, the rest of the head does not matter.
    EXPECT_EQ(outcome, cut < line_end + 2 ? 0 : 200) << "cut at " << cut;
  }
  std::map<int, size_t> seen;
  for (size_t pos = 0; pos < head.size(); ++pos) {
    for (int mask = 1; mask < 256; ++mask) {
      std::string flipped = head;
      flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
      const int outcome = Outcome(&srv_, flipped);
      ASSERT_TRUE(IsServedOutcome(outcome))
          << "byte " << pos << " ^ " << mask << " -> " << outcome;
      ++seen[outcome];
    }
  }
  // The flips reached every answer of the parse: a malformed line, a
  // foreign method, an unknown path and a served one (the truncations
  // above reached the closed connection).
  for (int outcome : {200, 400, 404, 405}) {
    EXPECT_GT(seen[outcome], 0u) << outcome;
  }
}

TEST_F(RequestHeadTest, OddQueryStringsAreServed) {
  const std::vector<std::string> auditz = {
      "/auditz?",
      "/auditz?=",
      "/auditz?=5",
      "/auditz?&",
      "/auditz?&&&",
      "/auditz?==",
      "/auditz?n=5&&format=json",
      "/auditz?&=&=&",
      "/auditz?n=18446744073709551615",
      "/auditz?n=00000000000000000005",
      "/auditz?format=json&format=text",
  };
  for (const std::string& target : auditz) {
    EXPECT_EQ(Outcome(&srv_, "GET " + target + " HTTP/1.1\r\n\r\n"), 200)
        << target;
  }
  // A number is 1-20 decimal digits up to 2^64 - 1; anything else is
  // refused, not read as some other number.
  for (const char* target :
       {"/auditz?n==5", "/auditz?n", "/auditz?n=", "/auditz?n=-1",
        "/auditz?n=+5", "/auditz?n=5x", "/auditz?n=000000000000000000005",
        "/auditz?n=18446744073709551616",
        "/auditz?n=99999999999999999999999999999999&format=json",
        "/profilez?id=18446744073709551616", "/profilez?id=",
        "/profilez?id=99999999999999999999999"}) {
    EXPECT_EQ(Outcome(&srv_, std::string("GET ") + target +
                                 " HTTP/1.1\r\n\r\n"),
              400)
        << target;
  }
  EXPECT_EQ(Outcome(&srv_, "GET /profilez?id=18446744073709551615 "
                           "HTTP/1.1\r\n\r\n"),
            404);  // well-formed, but no such profile
  EXPECT_EQ(Outcome(&srv_, "GET /healthz?&&==&& HTTP/1.1\r\n\r\n"), 200);
  EXPECT_EQ(Outcome(&srv_, "GET  HTTP/1.1\r\n\r\n"), 404);
  EXPECT_EQ(Outcome(&srv_, "GET /healthz\r\n\r\n"), 400);
  EXPECT_EQ(Outcome(&srv_, "\r\n\r\n"), 400);
}

/// Sends `bytes` over one connection to 127.0.0.1:`port`, then shuts the
/// sending side, and returns the response's status: 0 when the server
/// closed the connection unanswered.
int RawExchange(uint16_t port, const std::string& bytes) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  // A server that stops reading may reset the connection mid-send; what
  // it answered (if anything) is still read below.
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  shutdown(fd, SHUT_WR);
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  if (raw.rfind("HTTP/1.1 ", 0) != 0) return 0;
  return std::atoi(raw.c_str() + 9);
}

TEST_F(RequestHeadTest, HostileConnectionsLeaveTheServerServing) {
  // A request line past the 8 KiB head cap: nothing to parse, closed.
  EXPECT_EQ(RawExchange(srv_.port(), "GET /" + std::string(9000, 'a')), 0);
  // A head whose headers run past the cap is answered from its line.
  EXPECT_EQ(RawExchange(srv_.port(), "GET /healthz HTTP/1.1\r\nX-Pad: " +
                                         std::string(9000, 'b')),
            200);
  // Half a head, then the client closes: closed unanswered.
  EXPECT_EQ(RawExchange(srv_.port(), "GET /healthz HTTP/1.1\r\nHost:"), 0);
  EXPECT_EQ(RawExchange(srv_.port(), "GET /heal"), 0);
  EXPECT_EQ(RawExchange(srv_.port(), "POST /healthz HTTP/1.1\r\n\r\n"),
            405);

  const StatusOr<HttpResponse> health = FetchLocal(srv_.port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
}

// ---- injected forget lag flips /readyz ------------------------------------

TEST(HttpTest, InjectedForgetLagFlipsReadyz) {
  SimulationConfig config;
  config.seed = 3;
  config.dbsize = 100;
  config.upd_perc = 0.2;
  config.num_batches = 1;  // stepped manually below
  config.queries_per_batch = 1;
  config.policy.kind = PolicyKind::kFifo;
  config.backend = BackendKind::kDelete;
  config.vacuum_max_age_batches = 1;
  config.sla_max_lag_batches = 2;
  config.serve_port = 0;

  auto sim = Simulator::Make(config).value();
  ASSERT_TRUE(sim->Initialize().ok());
  const uint16_t port = static_cast<uint16_t>(sim->introspection_port());

  // Pause the amnesia passes: expired rows pile up and the forget lag
  // grows one batch per batch while the tracker keeps sampling it.
  sim->set_amnesia_paused(true);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(sim->StepBatch().ok());
  ASSERT_GT(sim->controller().ForgetLag(config.vacuum_max_age_batches),
            static_cast<uint64_t>(config.sla_max_lag_batches));

  auto stalled = FetchLocal(port, "/readyz");
  ASSERT_TRUE(stalled.ok());
  EXPECT_EQ(stalled->status, 503);
  EXPECT_NE(stalled->body.find("deletion_sla:"), std::string::npos)
      << stalled->body;
  EXPECT_NE(stalled->body.find("forget lag"), std::string::npos)
      << stalled->body;

  // /slaz reports the violation too, and refuses to assert compliance.
  auto slaz = FetchLocal(port, "/slaz");
  ASSERT_TRUE(slaz.ok());
  EXPECT_EQ(slaz->body.find("PASSED"), std::string::npos) << slaz->body;

  // Resume: one sweep vacuums everything past deadline, lag returns to
  // zero within the batch, and the probe recovers.
  sim->set_amnesia_paused(false);
  ASSERT_TRUE(sim->StepBatch().ok());
  EXPECT_EQ(sim->controller().ForgetLag(config.vacuum_max_age_batches), 0u);
  auto recovered = FetchLocal(port, "/readyz");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->status, 200);
  auto attested = FetchLocal(port, "/slaz");
  ASSERT_TRUE(attested.ok());
  EXPECT_NE(attested->body.find("PASSED"), std::string::npos)
      << attested->body;
}

}  // namespace
}  // namespace server
}  // namespace amnesia
