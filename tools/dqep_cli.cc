// dqep_cli — an interactive shell over the paper's experiment database.
//
// The shell is a line-protocol client (server/protocol.h).  By default
// it embeds the engine as an in-process dqep_server with one session,
// connected over a socketpair; with --connect it talks to a running
// dqep_server instead.  Both modes run the same client loop against the
// same command interpreter (server/session.h lists the commands), so the
// plans inspected in the shell are the plans the server serves, and the
// two modes print identical output.
//
// Flags shared with dqep_server (parsed by server::ParseSharedFlag):
//   --memory-pages=N           the session's memory grant in pages: the
//                              optimizer prices choose-plan decisions
//                              against it and execution enforces it, so
//                              joins and sorts spill rather than exceed
//                              it (default 64, as in the server)
//   --plan-cache=N|off         plan-cache capacity in entries (default
//                              128); repeated query templates (same
//                              shape, different literals) reuse one
//                              compiled dynamic plan and pay only
//                              start-up resolution
//   --reopt=on|off             mid-query re-optimization (default off)
//   --reopt-slack=X            trigger slack (default 2: actual outside
//                              [lo/2, 2*hi] fires a re-optimization)
//   --query-log=FILE           append one JSON line per executed query
//                              ($DQEP_QUERY_LOG sets the default)
//   --trace-out=FILE           record the session as Chrome-trace JSON,
//                              written at exit
//   --cost-profile=FILE        load fitted cost-model multipliers
//                              (calibration.json) before optimizing
//
// Flags of the shell alone, sent as leading session commands:
//   --threads=N                \threads N (intra-query worker threads)
//   --profile                  \profile on (per-operator counters and
//                              the memory/spill line before the rows)
//   --stats=text|json          send each SQL line as \analyze [json] SQL
//                              (EXPLAIN ANALYZE after each query)
//
// Other modes:
//   --calibrate=LOG            fit a profile from a query log, write it
//                              (--calibration-out, default
//                              calibration.json), and exit
//   --connect=SOCK|PORT        talk to a running dqep_server (unix
//                              socket path, or a bare port for TCP to
//                              localhost); every other flag is ignored,
//                              session state lives serverside
//
// Reads one command per line from stdin and prints each reply's data
// lines, then "(N rows, S s, cache C)" or "error: ...".  Example:
//   \set v 300
//   \explain SELECT * FROM R1 WHERE R1.s < :v
//   SELECT R1.s FROM R1 WHERE R1.s < :v ORDER BY R1.s

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "obs/calibrate.h"
#include "obs/querylog.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

/// The client loop of both modes: sends `leading` (the shell's flags as
/// session commands, replies unprinted unless they fail), then forwards
/// each stdin line — SQL prefixed with `sql_prefix` — and prints the
/// reply.  Prompts and `banner` appear only on a terminal.
int RunClient(int fd, const std::string& banner,
              const std::vector<std::string>& leading,
              const std::string& sql_prefix) {
  server::LineChannel channel(fd);
  auto round_trip = [&channel](const std::string& line,
                               server::QueryResponse* response) {
    if (!channel.WriteAll(line + "\n") || !channel.ReadResponse(response)) {
      std::fprintf(stderr, "dqep_cli: connection lost\n");
      return false;
    }
    return true;
  };
  for (const std::string& command : leading) {
    server::QueryResponse response;
    if (!round_trip(command, &response)) {
      return 1;
    }
    if (!response.ok) {
      std::fprintf(stderr, "dqep_cli: %s: %s\n", command.c_str(),
                   response.error.c_str());
      return 1;
    }
  }
  const bool interactive = isatty(fileno(stdin)) != 0;
  if (interactive) {
    std::printf("%s\n", banner.c_str());
  }
  std::string line;
  while (interactive && (std::printf("dqep> "), std::fflush(stdout), true),
         std::getline(std::cin, line)) {
    if (line.empty()) {
      continue;
    }
    server::QueryResponse response;
    if (!round_trip(line[0] == '\\' ? line : sql_prefix + line, &response)) {
      return 1;
    }
    for (const std::string& row : response.rows) {
      std::printf("%s\n", row.c_str());
    }
    if (response.ok) {
      std::printf("(%lld rows, %.4f s, cache %s)\n",
                  static_cast<long long>(response.row_count),
                  response.seconds,
                  response.cache.empty() ? "off" : response.cache.c_str());
    } else {
      std::printf("error: %s\n", response.error.c_str());
    }
    if (line == "\\quit" || line == "\\q") {
      break;
    }
  }
  return 0;
}

/// --calibrate: fits a profile from the log under the config the shell
/// estimates with (workload constants plus any --cost-profile), so
/// iterating calibration against a recalibrated log is well defined.
int Calibrate(const std::string& log_path,
              const std::string& cost_profile_path,
              const std::string& out_path) {
  int64_t skipped = 0;
  Result<std::vector<obs::QueryRecord>> records =
      obs::LoadQueryLog(log_path, &skipped);
  if (!records.ok()) {
    std::fprintf(stderr, "%s\n", records.status().ToString().c_str());
    return 1;
  }
  if (skipped > 0) {
    std::fprintf(stderr, "query log: skipped %lld malformed line(s)\n",
                 static_cast<long long>(skipped));
  }
  auto config_source = PaperWorkload::Create(/*seed=*/42, /*populate=*/false);
  if (!config_source.ok()) {
    std::fprintf(stderr, "failed to build catalog: %s\n",
                 config_source.status().ToString().c_str());
    return 1;
  }
  SystemConfig base_config = (*config_source)->config();
  if (!cost_profile_path.empty()) {
    Result<CostProfile> profile = obs::LoadCostProfile(cost_profile_path);
    if (!profile.ok()) {
      std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
      return 1;
    }
    profile->ApplyTo(&base_config);
  }
  Result<obs::CalibrationReport> report = obs::Calibrate(*records, base_config);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::fputs(obs::RenderCalibrationReport(*report).c_str(), stdout);
  const std::string json = obs::RenderCostProfileJson(*report);
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr ||
      std::fwrite(json.data(), 1, json.size(), out) != json.size() ||
      std::fclose(out) != 0) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("profile written to %s (load with --cost-profile=%s)\n",
              out_path.c_str(), out_path.c_str());
  return 0;
}

/// --connect: dials `target`, a unix-socket path or a bare TCP port.
int RunConnected(const std::string& target) {
  std::string error;
  const bool is_port =
      target.find_first_not_of("0123456789") == std::string::npos;
  const int fd = is_port ? server::ConnectTcp(std::atoi(target.c_str()), &error)
                         : server::ConnectUnix(target, &error);
  if (fd < 0) {
    std::fprintf(stderr, "dqep_cli: %s\n", error.c_str());
    return 1;
  }
  return RunClient(fd,
                   "connected to " + target +
                       " — type SQL, \\explain SELECT ..., \\top, \\slow, "
                       "\\metrics [json], or \\quit",
                   {}, "");
}

/// The embedded shell: an in-process server with one session over a
/// socketpair.  The server drains (query log flushed, trace written)
/// when it goes out of scope.
int RunEmbedded(server::ServerOptions options,
                const std::vector<std::string>& leading,
                const std::string& sql_prefix) {
  options.sessions = 1;
  server::DqepServer server(std::move(options));
  std::string error;
  int fds[2];
  if (!server.Start(&error)) {
    std::fprintf(stderr, "dqep_cli: %s\n", error.c_str());
    return 1;
  }
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    std::perror("dqep_cli: socketpair");
    return 1;
  }
  server.Attach(fds[0]);
  return RunClient(fds[1],
                   "dqep shell — paper experiment database loaded "
                   "(R1..R10), one in-process server session.\n"
                   "Type SELECT ..., \\explain SELECT ..., \\analyze "
                   "SELECT ..., \\set <var> <int>, \\threads <N>, "
                   "\\profile <on|off>, \\metrics, \\tables, \\quit.",
                   leading, sql_prefix);
}

constexpr char kUsage[] =
    "usage: dqep_cli [flags]\n"
    "  --threads=N             intra-query worker threads (\\threads)\n"
    "  --profile               per-operator counters and memory line per "
    "query (\\profile on)\n"
    "  --stats=text|json       EXPLAIN ANALYZE after each query "
    "(\\analyze [json])\n"
    "  --calibrate=LOG         fit a cost profile from a query log and "
    "exit (no shell)\n"
    "  --calibration-out=FILE  where --calibrate writes the profile "
    "(default calibration.json)\n"
    "  --connect=SOCK|PORT     talk to a running dqep_server (unix socket "
    "path or localhost TCP port)\n"
    "  --help                  this message\n"
    "shared with dqep_server:\n";

}  // namespace
}  // namespace dqep

int main(int argc, char** argv) {
  dqep::server::ServerOptions options;
  std::vector<std::string> leading;
  std::string sql_prefix;
  std::string calibrate_log;
  std::string calibration_out = "calibration.json";
  std::string connect_target;
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
    if (std::strncmp(arg, "--connect=", 10) == 0) {
      connect_target = arg + 10;
      if (connect_target.empty()) {
        std::fprintf(stderr,
                     "--connect needs a unix socket path or TCP port\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      const int threads = std::atoi(arg + 10);
      if (threads < 1 || threads > 256) {
        std::fprintf(stderr, "--threads must be in [1, 256]\n");
        return 1;
      }
      leading.push_back("\\threads " + std::to_string(threads));
    } else if (std::strcmp(arg, "--profile") == 0) {
      leading.push_back("\\profile on");
    } else if (std::strncmp(arg, "--stats=", 8) == 0) {
      if (std::strcmp(arg + 8, "text") == 0) {
        sql_prefix = "\\analyze ";
      } else if (std::strcmp(arg + 8, "json") == 0) {
        sql_prefix = "\\analyze json ";
      } else {
        std::fprintf(stderr, "--stats must be text or json\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--calibrate=", 12) == 0) {
      calibrate_log = arg + 12;
      if (calibrate_log.empty()) {
        std::fprintf(stderr, "--calibrate needs a query-log path\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--calibration-out=", 18) == 0) {
      calibration_out = arg + 18;
      if (calibration_out.empty()) {
        std::fprintf(stderr, "--calibration-out needs a file path\n");
        return 1;
      }
    } else if (std::strcmp(arg, "--help") == 0) {
      std::fputs(dqep::kUsage, stdout);
      std::fputs(dqep::server::kSharedFlagsHelp, stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", arg);
      return 1;
    }
  }
  if (!connect_target.empty()) {
    return dqep::RunConnected(connect_target);
  }
  if (!calibrate_log.empty()) {
    return dqep::Calibrate(calibrate_log, options.cost_profile_path,
                           calibration_out);
  }
  dqep::server::ApplyQueryLogDefault(&options);
  return dqep::RunEmbedded(std::move(options), leading, sql_prefix);
}
