// dqep_server — serve the paper's experiment database to many clients.
//
//   dqep_server --socket=/tmp/dqep.sock [flags]
//
// Flags:
//   --socket=PATH           unix-domain socket to listen on (required)
//   --tcp-port=N            also listen on 127.0.0.1:N (default off)
//   --sessions=N            worker sessions == max concurrent queries
//                           (default 4)
//   --pool-pages=N          global memory-grant pool in pages; queries
//                           queue when the pool is exhausted and are
//                           rejected politely after --admission-timeout
//                           (default 0 = unlimited)
//   --memory-pages=N        default per-session memory grant in pages
//                           (default 64; clients override with \mem)
//   --admission-timeout=MS  queue wait budget in milliseconds before a
//                           polite "@err admission: ..." (default 5000)
//   --throttle-rate=R       cost throttle: admit R seconds of estimated
//                           work per wall second, fed by measured query
//                           seconds (default 0 = off)
//   --throttle-burst=S      throttle bucket capacity in seconds of work
//                           (default 1)
//   --throttle-adaptive     adapt the throttle rate to measured server
//                           throughput (sliding-window EWMA), with
//                           --throttle-rate as the ceiling
//   --reopt=on|off          default per-session mid-query
//                           re-optimization; sessions override with
//                           \reopt (default off)
//   --reopt-slack=X         cardinality slack before a runtime
//                           checkpoint triggers re-optimization
//                           (default 2: actual outside [lo/2, 2*hi])
//   --plan-cache=N|off      shared plan-cache capacity in entries
//                           (default 128); templates compiled by any
//                           session are hits for all
//   --query-log=FILE        append one JSON line per executed query; also
//                           seeds the admission cost EWMAs from previous
//                           runs ($DQEP_QUERY_LOG sets the default)
//   --trace-out=FILE        write Chrome-trace JSON at shutdown, one
//                           track per session
//   --cost-profile=FILE     load fitted cost-model multipliers
//                           (calibration.json, from dqep_cli
//                           --calibrate) before the first query compiles
//   --metrics-port=N        Prometheus exposition endpoint on
//                           127.0.0.1:N (0 = ephemeral, printed at
//                           startup; default off).  GET /metrics,
//                           /metrics.json, /slow
//   --slow-query-ms=MS      flight-recorder slow threshold; queries past
//                           it (or past their template's rolling p99)
//                           spool a trace+analyze bundle (default 0 =
//                           p99 rule only)
//   --slow-spool=DIR        bundle spool directory (default off)
//   --slow-spool-max=N      keep at most N bundles in the spool dir,
//                           rotating the oldest out (default 0 =
//                           unbounded)
//   --slo-ms=MS             latency SLO in ms; enables multi-window
//                           burn-rate alerting per server and template
//                           (\alerts, dqep_slo_burn_rate families)
//   --slo-target=F          fraction of queries that must meet the SLO
//                           (default 0.99)
//   --flight-recorder=N     flight-recorder ring capacity (default 64,
//                           0 = off; \slow and \stats read it)
//
// The flags dqep_cli's embedded shell shares (--memory-pages,
// --plan-cache, --reopt, --reopt-slack, --query-log, --trace-out,
// --cost-profile) are parsed by server::ParseSharedFlag.
//
// Clients: `dqep_cli --connect=PATH` (interactive), or any line-protocol
// speaker — send one SQL line, read "*"-prefixed rows until an "@ok"/
// "@err" status line (see src/server/protocol.h); the commands are
// listed in src/server/session.h.
//
// SIGINT/SIGTERM drain gracefully: in-flight queries are cancelled,
// queued admissions are refused, the query log is flushed, and the
// process exits 0.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/server.h"

int main(int argc, char** argv) {
  dqep::server::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string error;
    const dqep::server::FlagParse shared =
        dqep::server::ParseSharedFlag(arg, &options, &error);
    if (shared == dqep::server::FlagParse::kError) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (shared == dqep::server::FlagParse::kParsed) {
      continue;
    }
    if (std::strncmp(arg, "--socket=", 9) == 0) {
      options.socket_path = arg + 9;
    } else if (std::strncmp(arg, "--tcp-port=", 11) == 0) {
      options.tcp_port = std::atoi(arg + 11);
      if (options.tcp_port <= 0 || options.tcp_port > 65535) {
        std::fprintf(stderr, "--tcp-port must be in [1, 65535]\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--sessions=", 11) == 0) {
      options.sessions = std::atoi(arg + 11);
      if (options.sessions < 1 || options.sessions > 256) {
        std::fprintf(stderr, "--sessions must be in [1, 256]\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--pool-pages=", 13) == 0) {
      options.pool_pages = std::atoll(arg + 13);
      if (options.pool_pages < 0) {
        std::fprintf(stderr, "--pool-pages must be >= 0\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--admission-timeout=", 20) == 0) {
      options.admission_timeout_ms = std::atoll(arg + 20);
      if (options.admission_timeout_ms < 0) {
        std::fprintf(stderr, "--admission-timeout must be >= 0\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--throttle-rate=", 16) == 0) {
      options.throttle_rate = std::atof(arg + 16);
    } else if (std::strncmp(arg, "--throttle-burst=", 17) == 0) {
      options.throttle_burst = std::atof(arg + 17);
    } else if (std::strcmp(arg, "--throttle-adaptive") == 0) {
      options.adaptive_throttle = true;
    } else if (std::strncmp(arg, "--metrics-port=", 15) == 0) {
      options.metrics_port = std::atoi(arg + 15);
      if (options.metrics_port < 0 || options.metrics_port > 65535) {
        std::fprintf(stderr, "--metrics-port must be in [0, 65535]\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--slow-query-ms=", 16) == 0) {
      options.slow_query_ms = std::atof(arg + 16);
      if (options.slow_query_ms < 0) {
        std::fprintf(stderr, "--slow-query-ms must be >= 0\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--slow-spool=", 13) == 0) {
      options.slow_spool_dir = arg + 13;
    } else if (std::strncmp(arg, "--slow-spool-max=", 17) == 0) {
      long max_bundles = std::atol(arg + 17);
      if (max_bundles < 0) {
        std::fprintf(stderr, "--slow-spool-max must be >= 0\n");
        return 1;
      }
      options.slow_spool_max = static_cast<size_t>(max_bundles);
    } else if (std::strncmp(arg, "--slo-ms=", 9) == 0) {
      options.slo_ms = std::atof(arg + 9);
      if (options.slo_ms < 0) {
        std::fprintf(stderr, "--slo-ms must be >= 0\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--slo-target=", 13) == 0) {
      options.slo_target = std::atof(arg + 13);
      if (options.slo_target <= 0.0 || options.slo_target >= 1.0) {
        std::fprintf(stderr, "--slo-target must be in (0, 1)\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--flight-recorder=", 18) == 0) {
      long capacity = std::atol(arg + 18);
      if (capacity < 0 || capacity > 65536) {
        std::fprintf(stderr, "--flight-recorder must be in [0, 65536]\n");
        return 1;
      }
      options.flight_recorder_capacity = static_cast<size_t>(capacity);
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "usage: dqep_server --socket=PATH [flags]\n"
          "  --tcp-port=N            also listen on 127.0.0.1:N\n"
          "  --sessions=N            worker sessions (default 4)\n"
          "  --pool-pages=N          global memory-grant pool in pages "
          "(0 = unlimited)\n"
          "  --admission-timeout=MS  queue wait before rejection "
          "(default 5000)\n"
          "  --throttle-rate=R       seconds-of-work admitted per wall "
          "second (0 = off)\n"
          "  --throttle-burst=S      throttle bucket capacity (default 1)\n"
          "  --throttle-adaptive     track measured throughput (EWMA) "
          "instead of the static rate\n"
          "  --metrics-port=N        Prometheus endpoint on 127.0.0.1:N "
          "(0 = ephemeral; default off)\n"
          "  --slow-query-ms=MS      flight-recorder slow threshold "
          "(default 0 = template-p99 rule only)\n"
          "  --slow-spool=DIR        slow-query bundle directory "
          "(default off)\n"
          "  --slow-spool-max=N      keep at most N slow bundles, rotate "
          "the oldest (default 0 = unbounded)\n"
          "  --slo-ms=MS             latency SLO; enables burn-rate "
          "alerting (default off)\n"
          "  --slo-target=F          fraction of queries that must meet "
          "the SLO (default 0.99)\n"
          "  --flight-recorder=N     flight-recorder ring capacity "
          "(default 64, 0 = off)\n");
      std::fputs(dqep::server::kSharedFlagsHelp, stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", arg);
      return 1;
    }
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "dqep_server: --socket=PATH is required\n");
    return 1;
  }
  dqep::server::ApplyQueryLogDefault(&options);

  dqep::server::DqepServer server(std::move(options));
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "dqep_server: %s\n", error.c_str());
    return 1;
  }
  dqep::server::DqepServer::InstallSignalHandlers(&server);
  std::printf("dqep_server: listening on %s (%d session%s%s%s)\n",
              server.options().socket_path.c_str(), server.options().sessions,
              server.options().sessions == 1 ? "" : "s",
              server.options().pool_pages > 0 ? ", memory pool on" : "",
              server.options().throttle_rate > 0 ? ", cost throttle on" : "");
  if (server.metrics_port() > 0) {
    // Scrapers parse this line to find an ephemeral --metrics-port=0.
    std::printf("dqep_server: metrics on http://127.0.0.1:%d/metrics\n",
                server.metrics_port());
  }
  std::fflush(stdout);
  const int code = server.Serve();
  std::printf("dqep_server: drained, exiting\n");
  return code;
}
