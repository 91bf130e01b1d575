// Copyright 2026 The AmnesiaDB Authors

#include "server/introspect.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "amnesia/audit_ledger.h"
#include "obs/metrics.h"
#include "obs/sla.h"
#include "query/profile.h"

namespace amnesia {
namespace server {

namespace {

// printf-append; exposition rendering is snprintf all the way down so the
// output format is auditable in one place.
__attribute__((format(printf, 2, 3))) void AppendFmt(std::string* out,
                                                     const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<size_t>(n) < sizeof(buf)
                                  ? static_cast<size_t>(n)
                                  : sizeof(buf) - 1);
}

// One exposition family header. `orig` keeps the dotted registry name
// visible to operators grepping HELP text.
void AppendFamilyHeader(std::string* out, const std::string& name,
                        const std::string& orig, const char* type) {
  AppendFmt(out, "# HELP %s AmnesiaDB metric \"%s\".\n", name.c_str(),
            orig.c_str());
  AppendFmt(out, "# TYPE %s %s\n", name.c_str(), type);
}

}  // namespace

std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(valid ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string RenderPrometheus(const obs::MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : snapshot.counters) {
    const std::string san = "amnesia_" + SanitizeMetricName(name);
    AppendFamilyHeader(&out, san, name, "counter");
    AppendFmt(&out, "%s %llu\n", san.c_str(),
              static_cast<unsigned long long>(value));
  }
  for (const auto& [name, gauge] : snapshot.gauges) {
    const std::string san = "amnesia_" + SanitizeMetricName(name);
    AppendFamilyHeader(&out, san, name, "gauge");
    AppendFmt(&out, "%s %lld\n", san.c_str(),
              static_cast<long long>(gauge.value));
    const std::string hw = san + "_high_water";
    AppendFamilyHeader(&out, hw, name + " (high water)", "gauge");
    AppendFmt(&out, "%s %lld\n", hw.c_str(),
              static_cast<long long>(gauge.high_water));
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string san = "amnesia_" + SanitizeMetricName(name);
    AppendFamilyHeader(&out, san, name, "histogram");
    // Buckets hold integer samples, so the inclusive upper bound of
    // bucket b >= 1 (covering [2^(b-1), 2^b)) is 2^b - 1. Emit up to the
    // highest populated bucket, then close with the mandatory +Inf.
    size_t last = 0;
    for (size_t b = 0; b < hist.buckets.size(); ++b) {
      if (hist.buckets[b] != 0) last = b;
    }
    uint64_t cumulative = 0;
    for (size_t b = 0; b <= last && b + 1 < hist.buckets.size(); ++b) {
      cumulative += hist.buckets[b];
      const uint64_t le = b == 0 ? 0 : (uint64_t{1} << b) - 1;
      AppendFmt(&out, "%s_bucket{le=\"%llu\"} %llu\n", san.c_str(),
                static_cast<unsigned long long>(le),
                static_cast<unsigned long long>(cumulative));
    }
    AppendFmt(&out, "%s_bucket{le=\"+Inf\"} %llu\n", san.c_str(),
              static_cast<unsigned long long>(hist.count));
    AppendFmt(&out, "%s_sum %llu\n", san.c_str(),
              static_cast<unsigned long long>(hist.sum));
    AppendFmt(&out, "%s_count %llu\n", san.c_str(),
              static_cast<unsigned long long>(hist.count));
  }
  return out;
}

std::string RenderTraceJson(const std::vector<obs::TraceSpan>& spans) {
  std::string out = "{\"traceEvents\":[";
  // Hashed thread ids do not survive a JSON double round-trip (53-bit
  // mantissa); remap them to small integers in first-seen order.
  std::map<uint64_t, int> tids;
  bool first = true;
  for (const obs::TraceSpan& span : spans) {
    if (span.name == nullptr) continue;
    const auto [it, inserted] =
        tids.emplace(span.thread_id, static_cast<int>(tids.size()) + 1);
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    obs::AppendJsonString(&out, span.name);
    AppendFmt(&out,
              ",\"cat\":\"amnesia\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
              "\"ts\":%.3f,\"dur\":%.3f",
              it->second, static_cast<double>(span.start_ns) / 1000.0,
              static_cast<double>(span.duration_ns) / 1000.0);
    if (span.num_annotations > 0) {
      out += ",\"args\":{";
      for (int a = 0; a < span.num_annotations; ++a) {
        if (a > 0) out.push_back(',');
        obs::AppendJsonString(&out, span.annotations[a].key);
        AppendFmt(&out, ":%lld",
                  static_cast<long long>(span.annotations[a].value));
      }
      out.push_back('}');
    }
    out.push_back('}');
  }
  // Wall-clock anchor: span timestamps are steady-clock ns since process
  // start, which Perfetto renders fine but cannot align with log or audit-
  // ledger timestamps on its own. Publish the steady->realtime offset so
  // `wall ms = wallClockAnchorMs + ts/1000` converts any span timestamp.
  const double steady_ms = static_cast<double>(obs::NowNs()) / 1e6;
  const double wall_ms =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count()) /
      1000.0;
  out += "],\"otherData\":{";
  AppendFmt(&out, "\"wallClockAnchorMs\":\"%.3f\",", wall_ms - steady_ms);
  out += "\"anchorNote\":\"wall-clock ms at trace ts 0; "
         "wall ms of a span = wallClockAnchorMs + ts/1000\"}}";
  return out;
}

namespace {

constexpr const char kIndexBody[] =
    "AmnesiaDB introspection server\n"
    "\n"
    "  /metrics    Prometheus text exposition (?format=json for JSON)\n"
    "  /healthz    liveness probe\n"
    "  /readyz     readiness probes (503 until all subsystems ready)\n"
    "  /tracez     recent spans as Chrome trace-event JSON (Perfetto)\n"
    "  /profilez   recent query profiles (?id=N, ?format=json)\n"
    "  /auditz     forget audit ledger tail + chain check (?n=K, ?format=json)\n"
    "  /slaz       per-policy deletion-SLA lag/latency + attestation "
    "(?format=json)\n"
    "  /quitz      ask the hosting process to exit its serve loop\n";

HttpResponse TextResponse(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::move(body);
  return resp;
}

HttpResponse JsonResponse(std::string body) {
  HttpResponse resp;
  resp.content_type = "application/json; charset=utf-8";
  resp.body = std::move(body);
  return resp;
}

HttpResponse HandleProfilez(const std::map<std::string, std::string>& params) {
  ProfileLog& log = ProfileLog::Global();
  const bool json = [&] {
    auto it = params.find("format");
    return it != params.end() && it->second == "json";
  }();
  if (auto it = params.find("id"); it != params.end()) {
    const uint64_t id = strtoull(it->second.c_str(), nullptr, 10);
    std::optional<QueryProfile> profile = log.Find(id);
    if (!profile.has_value()) {
      return TextResponse(404, "profile " + it->second +
                                   " not retained (ring holds the last " +
                                   std::to_string(ProfileLog::kCapacity) +
                                   ")\n");
    }
    return json ? JsonResponse(profile->ToJson())
                : TextResponse(200, profile->ToText());
  }
  std::vector<QueryProfile> profiles = log.Snapshot();
  if (json) {
    std::string out = "{\"profiles\":[";
    for (size_t i = 0; i < profiles.size(); ++i) {
      if (i > 0) out.push_back(',');
      profiles[i].AppendJson(&out);
    }
    out += "]}";
    return JsonResponse(std::move(out));
  }
  if (profiles.empty()) {
    return TextResponse(
        200, "no profiles recorded (run a query with ExecOptions::profile)\n");
  }
  std::string out;
  // Newest first: the profile an operator wants is almost always the one
  // they just ran.
  for (auto it = profiles.rbegin(); it != profiles.rend(); ++it) {
    out += it->ToText();
    out.push_back('\n');
  }
  return TextResponse(200, std::move(out));
}

bool WantsJson(const std::map<std::string, std::string>& params) {
  const auto it = params.find("format");
  return it != params.end() && it->second == "json";
}

void AppendAuditRecordJson(std::string* out, const AuditRecord& r) {
  AppendFmt(out,
            "{\"seq\":%llu,\"prev_crc\":%lu,\"op\":\"%s\",",
            static_cast<unsigned long long>(r.seq),
            static_cast<unsigned long>(r.prev_crc),
            std::string(AuditOpToString(r.op)).c_str());
  *out += "\"policy\":";
  obs::AppendJsonString(out, r.policy);
  AppendFmt(out,
            ",\"backend\":%u,\"shard\":%lu,\"rows_marked\":%llu,"
            "\"rows_scrubbed\":%llu,\"partitions_dropped\":%llu,"
            "\"tick_lo\":%llu,\"tick_hi\":%llu,\"batch\":%llu,"
            "\"lsn\":%llu,\"wall_ms\":%llu,\"lifetime_forgotten\":%llu}",
            r.backend, static_cast<unsigned long>(r.shard),
            static_cast<unsigned long long>(r.rows_marked),
            static_cast<unsigned long long>(r.rows_scrubbed),
            static_cast<unsigned long long>(r.partitions_dropped),
            static_cast<unsigned long long>(r.tick_lo),
            static_cast<unsigned long long>(r.tick_hi),
            static_cast<unsigned long long>(r.batch),
            static_cast<unsigned long long>(r.lsn),
            static_cast<unsigned long long>(r.wall_ms),
            static_cast<unsigned long long>(r.lifetime_forgotten));
}

HttpResponse HandleAuditz(AuditLedger* ledger,
                          const std::map<std::string, std::string>& params) {
  if (ledger == nullptr) {
    return TextResponse(404, "no audit ledger attached\n");
  }
  size_t n = 20;
  if (const auto it = params.find("n"); it != params.end()) {
    n = static_cast<size_t>(strtoull(it->second.c_str(), nullptr, 10));
  }
  // The chain check re-reads the ledger from disk — it verifies what a
  // compliance audit would actually receive, not this process's memory.
  AuditChainReport chain;
  const StatusOr<AuditChainReport> verified = VerifyAuditChain(ledger->dir());
  if (verified.ok()) {
    chain = verified.value();
  } else {
    chain.ok = false;
    chain.detail = verified.status().ToString();
  }
  const std::vector<AuditRecord> tail = ledger->Tail(n);
  if (WantsJson(params)) {
    std::string out = "{\"dir\":";
    obs::AppendJsonString(&out, ledger->dir());
    AppendFmt(&out,
              ",\"chain\":{\"ok\":%s,\"records\":%llu,\"base_seq\":%llu,"
              "\"next_seq\":%llu,\"head_crc\":%lu,\"detail\":",
              chain.ok ? "true" : "false",
              static_cast<unsigned long long>(chain.records),
              static_cast<unsigned long long>(chain.base_seq),
              static_cast<unsigned long long>(chain.next_seq),
              static_cast<unsigned long>(chain.chain_crc));
    obs::AppendJsonString(&out, chain.detail);
    out += "},\"tail\":[";
    for (size_t i = 0; i < tail.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendAuditRecordJson(&out, tail[i]);
    }
    out += "]}";
    return JsonResponse(std::move(out));
  }
  std::string out = "amnesia audit ledger: " + ledger->dir() + "\n";
  if (chain.ok) {
    AppendFmt(&out,
              "chain: OK (%llu records, seq [%llu, %llu), head crc32 "
              "0x%08lx)\n",
              static_cast<unsigned long long>(chain.records),
              static_cast<unsigned long long>(chain.base_seq),
              static_cast<unsigned long long>(chain.next_seq),
              static_cast<unsigned long>(chain.chain_crc));
  } else {
    out += "chain: BROKEN — " + chain.detail + "\n";
  }
  AppendFmt(&out, "tail (%zu newest):\n", tail.size());
  for (const AuditRecord& r : tail) {
    AppendFmt(&out,
              "  #%llu %s policy=%s backend=%u shard=%lu rows=%llu "
              "scrubbed=%llu parts=%llu ticks=[%llu,%llu] batch=%llu "
              "lsn=%llu wall_ms=%llu lifetime=%llu\n",
              static_cast<unsigned long long>(r.seq),
              std::string(AuditOpToString(r.op)).c_str(), r.policy.c_str(),
              r.backend, static_cast<unsigned long>(r.shard),
              static_cast<unsigned long long>(r.rows_marked),
              static_cast<unsigned long long>(r.rows_scrubbed),
              static_cast<unsigned long long>(r.partitions_dropped),
              static_cast<unsigned long long>(r.tick_lo),
              static_cast<unsigned long long>(r.tick_hi),
              static_cast<unsigned long long>(r.batch),
              static_cast<unsigned long long>(r.lsn),
              static_cast<unsigned long long>(r.wall_ms),
              static_cast<unsigned long long>(r.lifetime_forgotten));
  }
  return TextResponse(200, std::move(out));
}

HttpResponse HandleSlaz(obs::SlaTracker* sla,
                        const std::map<std::string, std::string>& params) {
  if (sla == nullptr) {
    return TextResponse(404, "no deletion-SLA tracker attached\n");
  }
  const std::vector<obs::SlaPolicySnapshot> policies = sla->Snapshot();
  if (WantsJson(params)) {
    std::string out = "{\"policies\":[";
    for (size_t i = 0; i < policies.size(); ++i) {
      const obs::SlaPolicySnapshot& p = policies[i];
      if (i > 0) out.push_back(',');
      out += "{\"policy\":";
      obs::AppendJsonString(&out, p.policy);
      AppendFmt(&out,
                ",\"sweeps\":%llu,\"last_batch\":%llu,"
                "\"forget_lag_batches\":%llu,\"max_lag_batches\":%llu,"
                "\"deletion_latency\":{\"count\":%llu,\"mean\":%.3f,"
                "\"p50\":%.1f,\"p99\":%.1f},",
                static_cast<unsigned long long>(p.sweeps),
                static_cast<unsigned long long>(p.last_batch),
                static_cast<unsigned long long>(p.forget_lag_batches),
                static_cast<unsigned long long>(p.max_lag_batches),
                static_cast<unsigned long long>(p.deletion_latency.count),
                p.deletion_latency.Mean(), p.deletion_latency.Quantile(0.5),
                p.deletion_latency.Quantile(0.99));
      const obs::SlaAttestation& a = p.attestation;
      AppendFmt(&out,
                "\"attestation\":{\"checked\":%s,\"passed\":%s,"
                "\"batch\":%llu,\"max_age_batches\":%llu,"
                "\"live_rows\":%llu,\"overdue_rows\":%llu}}",
                a.checked ? "true" : "false", a.passed ? "true" : "false",
                static_cast<unsigned long long>(a.batch),
                static_cast<unsigned long long>(a.max_age_batches),
                static_cast<unsigned long long>(a.live_rows),
                static_cast<unsigned long long>(a.overdue_rows));
    }
    out += "]}";
    return JsonResponse(std::move(out));
  }
  if (policies.empty()) {
    return TextResponse(200, "deletion SLA: no policies sampled yet\n");
  }
  std::string out = "deletion SLA\n";
  for (const obs::SlaPolicySnapshot& p : policies) {
    AppendFmt(&out, "policy %s:\n", p.policy.c_str());
    AppendFmt(&out, "  sweeps %llu, last batch %llu\n",
              static_cast<unsigned long long>(p.sweeps),
              static_cast<unsigned long long>(p.last_batch));
    AppendFmt(&out, "  forget lag: %llu batches (max ever %llu)\n",
              static_cast<unsigned long long>(p.forget_lag_batches),
              static_cast<unsigned long long>(p.max_lag_batches));
    AppendFmt(&out,
              "  deletion latency (batches past deadline): count %llu, "
              "mean %.2f, p50 %.1f, p99 %.1f\n",
              static_cast<unsigned long long>(p.deletion_latency.count),
              p.deletion_latency.Mean(), p.deletion_latency.Quantile(0.5),
              p.deletion_latency.Quantile(0.99));
    const obs::SlaAttestation& a = p.attestation;
    if (!a.checked) {
      out += "  attestation: not yet cross-checked\n";
    } else if (a.passed) {
      // Only rendered as an assertion because a real CountRange scan over
      // the live rows verified it — never inferred from counters.
      AppendFmt(&out,
                "  attestation: PASSED at batch %llu — no live row older "
                "than %llu batches (CountRange cross-check: %llu live rows, "
                "0 overdue)\n",
                static_cast<unsigned long long>(a.batch),
                static_cast<unsigned long long>(a.max_age_batches),
                static_cast<unsigned long long>(a.live_rows));
    } else {
      AppendFmt(&out,
                "  attestation: FAILED at batch %llu — %llu live rows older "
                "than %llu batches\n",
                static_cast<unsigned long long>(a.batch),
                static_cast<unsigned long long>(a.overdue_rows),
                static_cast<unsigned long long>(a.max_age_batches));
    }
  }
  return TextResponse(200, std::move(out));
}

}  // namespace

IntrospectionServer::~IntrospectionServer() { Stop(); }

HttpResponse IntrospectionServer::Handle(
    const std::string& path, const std::map<std::string, std::string>& params) {
  if (path == "/" || path == "/index") {
    return TextResponse(200, kIndexBody);
  }
  if (path == "/metrics") {
    const auto it = params.find("format");
    if (it != params.end() && it->second == "json") {
      return JsonResponse(obs::MetricsRegistry::Global().DumpJson());
    }
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = RenderPrometheus(obs::MetricsRegistry::Global().SnapshotAll());
    return resp;
  }
  if (path == "/healthz") {
    return TextResponse(200, "ok\n");
  }
  if (path == "/readyz") {
    std::string body;
    bool ready = true;
    for (const HealthProbe& probe : options_.readiness_probes) {
      const Status st = probe.check ? probe.check() : Status::OK();
      if (st.ok()) {
        body += probe.name + ": ok\n";
      } else {
        ready = false;
        body += probe.name + ": " + st.ToString() + "\n";
      }
    }
    if (body.empty()) body = "ok (no probes registered)\n";
    return TextResponse(ready ? 200 : 503, std::move(body));
  }
  if (path == "/tracez") {
    return JsonResponse(RenderTraceJson(obs::TraceLog::Global().Snapshot()));
  }
  if (path == "/profilez") {
    return HandleProfilez(params);
  }
  if (path == "/auditz") {
    return HandleAuditz(options_.audit_ledger, params);
  }
  if (path == "/slaz") {
    return HandleSlaz(options_.sla, params);
  }
  if (path == "/quitz") {
    quit_requested_.store(true, std::memory_order_release);
    return TextResponse(200, "bye\n");
  }
  return TextResponse(404, "no such endpoint: " + path + "\n" + kIndexBody);
}

HttpResponse IntrospectionServer::HandleTarget(const std::string& target) {
  std::string path = target;
  std::map<std::string, std::string> params;
  if (const size_t q = target.find('?'); q != std::string::npos) {
    path = target.substr(0, q);
    std::string rest = target.substr(q + 1);
    size_t pos = 0;
    while (pos < rest.size()) {
      size_t amp = rest.find('&', pos);
      if (amp == std::string::npos) amp = rest.size();
      const std::string pair = rest.substr(pos, amp - pos);
      const size_t eq = pair.find('=');
      if (eq != std::string::npos) {
        params[pair.substr(0, eq)] = pair.substr(eq + 1);
      } else if (!pair.empty()) {
        params[pair] = "";
      }
      pos = amp + 1;
    }
  }
  return Handle(path, params);
}

Status IntrospectionServer::Start(IntrospectionOptions options) {
  if (running()) {
    return Status::FailedPrecondition("introspection server already running");
  }
  options_ = std::move(options);
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    const std::string err = strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind 127.0.0.1:" +
                            std::to_string(options_.port) + ": " + err);
  }
  if (listen(listen_fd_, 16) != 0) {
    const std::string err = strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    const std::string err = strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("getsockname: " + err);
  }
  port_ = ntohs(bound.sin_port);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&IntrospectionServer::AcceptLoop, this);
  return Status::OK();
}

void IntrospectionServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // shutdown() (not just close) wakes the blocked accept() so the loop
  // observes running_ == false and exits.
  shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void IntrospectionServer::AcceptLoop() {
  while (running()) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running() || errno == EINVAL || errno == EBADF) break;
      continue;  // EINTR / transient
    }
    // A stalled client must not wedge the serve loop.
    timeval timeout{};
    timeout.tv_sec = 2;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    ServeConnection(fd);
    close(fd);
  }
}

void IntrospectionServer::ServeConnection(int fd) {
  // Read until the end of the request head (the server ignores bodies).
  std::string request;
  char buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < 8192) {
    // A signal mid-recv (SIGCHLD from a demo's child, a profiler timer)
    // must not kill the scrape: retry on EINTR, give up on real errors.
    ssize_t n;
    do {
      n = recv(fd, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return;
    request.append(buf, static_cast<size_t>(n));
  }
  const size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;
  const std::string line = request.substr(0, line_end);
  HttpResponse resp;
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    resp = TextResponse(400, "malformed request line\n");
  } else if (line.substr(0, sp1) != "GET") {
    resp = TextResponse(405, "only GET is served here\n");
  } else {
    resp = HandleTarget(line.substr(sp1 + 1, sp2 - sp1 - 1));
  }
  const char* reason = resp.status == 200   ? "OK"
                       : resp.status == 400 ? "Bad Request"
                       : resp.status == 404 ? "Not Found"
                       : resp.status == 405 ? "Method Not Allowed"
                       : resp.status == 503 ? "Service Unavailable"
                                            : "Error";
  std::string out;
  out.reserve(resp.body.size() + 160);
  AppendFmt(&out, "HTTP/1.1 %d %s\r\n", resp.status, reason);
  AppendFmt(&out, "Content-Type: %s\r\n", resp.content_type.c_str());
  AppendFmt(&out, "Content-Length: %zu\r\n", resp.body.size());
  out += "Connection: close\r\n\r\n";
  out += resp.body;
  size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n;
    do {
      n = send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

StatusOr<HttpResponse> FetchLocal(uint16_t port, const std::string& target) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + strerror(errno));
  }
  timeval timeout{};
  timeout.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = strerror(errno);
    close(fd);
    return Status::Internal("connect 127.0.0.1:" + std::to_string(port) +
                            ": " + err);
  }
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n;
    do {
      n = send(fd, request.data() + sent, request.size() - sent,
               MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) {
      close(fd);
      return Status::Internal("send failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    ssize_t n;
    do {
      n = recv(fd, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      close(fd);
      return Status::Internal(std::string("recv: ") + strerror(errno));
    }
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::Internal("truncated HTTP response");
  }
  HttpResponse resp;
  resp.body = raw.substr(head_end + 4);
  const size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 1 >= raw.size()) {
    return Status::Internal("malformed HTTP status line");
  }
  resp.status = atoi(raw.c_str() + sp + 1);
  const std::string head = raw.substr(0, head_end);
  if (const size_t ct = head.find("Content-Type: "); ct != std::string::npos) {
    const size_t eol = head.find("\r\n", ct);
    const size_t start = ct + strlen("Content-Type: ");
    resp.content_type = head.substr(
        start, (eol == std::string::npos ? head.size() : eol) - start);
  }
  return resp;
}

}  // namespace server
}  // namespace amnesia
