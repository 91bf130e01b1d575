// Copyright 2026 The AmnesiaDB Authors
//
// Live introspection server: a tiny dependency-free HTTP/1.1 endpoint
// bound to 127.0.0.1 that exposes the observability layer while the
// engine runs. Endpoints:
//
//   /            index (plain-text endpoint table)
//   /metrics     Prometheus text exposition v0.0.4 of every registered
//                metric; ?format=json serves MetricsRegistry::DumpJson()
//   /healthz     liveness: 200 "ok" while the process serves
//   /readyz      readiness: runs the registered HealthProbes; 503 with
//                the failing probe's status when any is not ready
//   /tracez      the TraceLog ring as Chrome trace-event JSON — save it
//                and load in ui.perfetto.dev or chrome://tracing
//   /profilez    recent QueryProfiles (EXPLAIN-ANALYZE text; ?format=json
//                for machines, ?id=N for one query)
//   /auditz      the amnesia audit ledger's tail plus an on-disk hash-
//                chain verification (?n=K tail size, ?format=json)
//   /slaz        per-policy deletion-SLA state: forget lag, deletion
//                latency histogram, and the attestation block — only
//                rendered as asserted after a real CountRange scan
//                cross-checked it (?format=json)
//   /quitz       sets quit_requested() — lets CI tell a lingering demo
//                to exit without signals
//
// The server is deliberately minimal: blocking POSIX sockets, one accept
// thread that serves connections serially (introspection traffic is a
// scrape every few seconds; serial handling keeps lifetime management
// trivial and bounds resource use), Connection: close on every response,
// receive/send timeouts so a stalled client cannot wedge the loop.
//
// The render helpers (SanitizeMetricName, EscapeLabelValue,
// RenderPrometheus, RenderTraceJson) and the Handle() dispatcher are pure
// functions of their inputs, so tests exercise exposition without opening
// sockets. Under AMNESIA_NO_METRICS the server still compiles and runs —
// the registry, trace ring and profile log are no-op stubs, so every
// endpoint just serves empty data.

#ifndef AMNESIA_SERVER_INTROSPECT_H_
#define AMNESIA_SERVER_INTROSPECT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace amnesia {

class AuditLedger;

namespace obs {
class SlaTracker;
}  // namespace obs

namespace server {

/// \brief Named readiness probe: returns OK when the subsystem is ready
/// to serve (checkpointer caught up, event log flushing, ...). Probes run
/// on the serving thread per /readyz request and must be non-blocking.
struct HealthProbe {
  std::string name;
  std::function<Status()> check;
};

/// \brief Server configuration.
struct IntrospectionOptions {
  /// TCP port to bind on 127.0.0.1. 0 picks an ephemeral port; the bound
  /// port is reported by IntrospectionServer::port() after Start().
  uint16_t port = 0;
  /// Probes consulted by /readyz (all must pass for 200).
  std::vector<HealthProbe> readiness_probes;
  /// Ledger served by /auditz (borrowed, must outlive the server;
  /// nullptr => /auditz answers 404).
  AuditLedger* audit_ledger = nullptr;
  /// Tracker served by /slaz (borrowed; nullptr => /slaz answers 404).
  obs::SlaTracker* sla = nullptr;
};

/// \brief One rendered HTTP response (also the return type of the
/// socket-free Handle() dispatcher and of FetchLocal()).
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// \name Pure exposition helpers (exposed for tests and benches).
/// @{

/// Maps a dotted metric name onto the Prometheus name charset
/// [a-zA-Z0-9_:]: every other byte becomes '_', and a leading digit gains
/// a '_' prefix. "scan.rows_scanned" -> "scan_rows_scanned".
std::string SanitizeMetricName(const std::string& name);

/// Escapes a Prometheus label value: backslash, double quote and newline
/// per the text exposition format spec.
std::string EscapeLabelValue(const std::string& value);

/// Renders a snapshot as Prometheus text exposition v0.0.4. Counters and
/// gauges are emitted under "amnesia_<sanitized>"; each gauge also emits
/// an "_high_water" companion series; histograms emit the conventional
/// cumulative "_bucket{le=...}" series (inclusive integer upper bounds,
/// closed by le="+Inf") plus "_sum" and "_count".
std::string RenderPrometheus(const obs::MetricsSnapshot& snapshot);

/// Renders trace spans as Chrome trace-event JSON (complete "X" events,
/// microsecond ts/dur, annotations as args). The hashed thread ids are
/// remapped to small integers in first-seen order so tids survive the
/// JSON double round-trip. Loadable in ui.perfetto.dev.
std::string RenderTraceJson(const std::vector<obs::TraceSpan>& spans);

/// @}

/// \brief The introspection HTTP server. Start() binds and spawns the
/// accept thread; Stop() (or the destructor) shuts it down and joins.
class IntrospectionServer {
 public:
  IntrospectionServer() = default;
  ~IntrospectionServer();

  IntrospectionServer(const IntrospectionServer&) = delete;
  IntrospectionServer& operator=(const IntrospectionServer&) = delete;

  /// Binds 127.0.0.1:options.port and starts serving. Fails if already
  /// running or the port is taken.
  Status Start(IntrospectionOptions options);

  /// Stops accepting, joins the serving thread, closes the socket.
  /// Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (the ephemeral pick when options.port was 0); 0 when
  /// not running.
  uint16_t port() const { return port_; }

  /// True once a client hit /quitz — the "you may exit now" signal for
  /// demos lingering in a serve loop.
  bool quit_requested() const {
    return quit_requested_.load(std::memory_order_acquire);
  }

  /// Dispatches one request without a socket (the unit-test entry point;
  /// the socket path funnels into this). `params` is the parsed query
  /// string.
  HttpResponse Handle(const std::string& path,
                      const std::map<std::string, std::string>& params);

  /// Parses "path?k=v&..." and dispatches to Handle().
  HttpResponse HandleTarget(const std::string& target);

  /// Answers a request head as the socket path does: 400 for a malformed
  /// request line, 405 for a method other than GET, else HandleTarget();
  /// nullopt (close unanswered) when the head has no complete line.
  std::optional<HttpResponse> HandleRequestHead(const std::string& head);

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  IntrospectionOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> quit_requested_{false};
  std::thread accept_thread_;
};

/// \brief Blocking HTTP GET against 127.0.0.1:`port`. Returns the parsed
/// status / content type / body, or a non-OK Status on connect/transport
/// failure. Used by tests, the CI smoke job and the scrape-latency bench.
StatusOr<HttpResponse> FetchLocal(uint16_t port, const std::string& target);

}  // namespace server
}  // namespace amnesia

#endif  // AMNESIA_SERVER_INTROSPECT_H_
