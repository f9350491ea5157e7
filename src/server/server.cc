#include "server/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/calibrate.h"

namespace dqep {
namespace server {

namespace {

/// Write end of the installed server's wake pipe; written (one byte)
/// from the signal handler, so it must be a plain static int.
std::atomic<int> g_signal_wake_fd{-1};

void HandleTermSignal(int /*signo*/) {
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    // The only async-signal-safe thing to do: poke the accept loop.
    [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
  }
}

int ListenUnix(const std::string& path, std::string* error) {
  struct sockaddr_un addr;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    *error = "unix socket path empty or too long: " + path;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + strerror(errno);
    return -1;
  }
  // Replace a stale socket file from a crashed predecessor.
  ::unlink(path.c_str());
  memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  memcpy(addr.sun_path, path.c_str(), path.size());
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 128) != 0) {
    *error = "bind/listen " + path + ": " + strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int ListenTcp(int port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  // Loopback only: the protocol has no authentication.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 128) != 0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "bind/listen 127.0.0.1:%d: ", port);
    *error = buf + std::string(strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

FlagParse ParseSharedFlag(const char* arg, ServerOptions* options,
                          std::string* error) {
  // `value` is the text after `name` when `arg` is "name...", else null.
  auto value_of = [arg](const char* name) -> const char* {
    const size_t length = std::strlen(name);
    return std::strncmp(arg, name, length) == 0 ? arg + length : nullptr;
  };
  auto fail = [error](std::string message) {
    *error = std::move(message);
    return FlagParse::kError;
  };
  // The three path flags reject an empty path alike.
  const std::pair<const char*, std::string*> paths[] = {
      {"--query-log=", &options->query_log_path},
      {"--trace-out=", &options->trace_path},
      {"--cost-profile=", &options->cost_profile_path}};
  for (const auto& [name, field] : paths) {
    if (const char* value = value_of(name)) {
      if (*value == '\0') {
        return fail(std::string(name, std::strlen(name) - 1) +
                    " needs a file path");
      }
      *field = value;
      return FlagParse::kParsed;
    }
  }
  if (const char* value = value_of("--memory-pages=")) {
    options->session_memory_pages = std::atof(value);
    return options->session_memory_pages >= 2
               ? FlagParse::kParsed
               : fail("--memory-pages must be >= 2");
  }
  if (const char* value = value_of("--plan-cache=")) {
    if (std::strcmp(value, "off") == 0) {
      options->plan_cache_capacity = 0;
      return FlagParse::kParsed;
    }
    char* end = nullptr;
    const long capacity = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || capacity < 0) {
      return fail(
          "--plan-cache must be a non-negative entry count or \"off\"");
    }
    options->plan_cache_capacity = static_cast<size_t>(capacity);
    return FlagParse::kParsed;
  }
  if (const char* value = value_of("--reopt=")) {
    if (std::strcmp(value, "on") != 0 && std::strcmp(value, "off") != 0) {
      return fail("--reopt must be on or off");
    }
    options->reopt = std::strcmp(value, "on") == 0;
    return FlagParse::kParsed;
  }
  if (const char* value = value_of("--reopt-slack=")) {
    options->reopt_slack = std::atof(value);
    return options->reopt_slack >= 1.0 ? FlagParse::kParsed
                                       : fail("--reopt-slack must be >= 1");
  }
  return FlagParse::kNotShared;
}

void ApplyQueryLogDefault(ServerOptions* options) {
  // Set DQEP_QUERY_LOG once and every process feeds the same log.
  const char* env = std::getenv("DQEP_QUERY_LOG");
  if (options->query_log_path.empty() && env != nullptr && env[0] != '\0') {
    options->query_log_path = env;
  }
}

const char kSharedFlagsHelp[] =
    "  --memory-pages=N        per-session memory grant in pages, priced "
    "by the\n"
    "                          optimizer and enforced by execution "
    "(default 64; \\mem)\n"
    "  --plan-cache=N|off      plan-cache entries (default 128)\n"
    "  --reopt=on|off          mid-query re-optimization (default off; "
    "\\reopt)\n"
    "  --reopt-slack=X         cardinality slack before a checkpoint "
    "triggers (default 2)\n"
    "  --query-log=FILE        JSONL query log; seeds the cost throttle "
    "(default\n"
    "                          $DQEP_QUERY_LOG)\n"
    "  --trace-out=FILE        Chrome-trace JSON at exit\n"
    "  --cost-profile=FILE     load calibration multipliers "
    "(calibration.json)\n";

DqepServer::DqepServer(ServerOptions options)
    : options_(std::move(options)),
      plan_cache_(options_.plan_cache_capacity) {}

DqepServer::~DqepServer() {
  if (started_.load()) {
    Shutdown();
    Teardown();
  }
  for (int fd : {listen_unix_fd_, listen_tcp_fd_, wake_pipe_[0],
                 wake_pipe_[1]}) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
}

bool DqepServer::Start(std::string* error) {
  auto workload =
      PaperWorkload::Create(options_.workload_seed, /*populate=*/true);
  if (!workload.ok()) {
    *error = "failed to build database: " + workload.status().ToString();
    return false;
  }
  workload_ = std::move(*workload);
  config_ = workload_->config();
  if (!options_.cost_profile_path.empty()) {
    Result<CostProfile> profile =
        obs::LoadCostProfile(options_.cost_profile_path);
    if (!profile.ok()) {
      *error = profile.status().ToString();
      return false;
    }
    profile->ApplyTo(&config_);
  }
  model_ = std::make_unique<CostModel>(&workload_->catalog(), config_);

  AdmissionConfig admission_config;
  admission_config.pool_pages = options_.pool_pages;
  admission_config.timeout_ms = options_.admission_timeout_ms;
  admission_config.throttle_rate = options_.throttle_rate;
  admission_config.throttle_burst = options_.throttle_burst;
  admission_config.adaptive_throttle = options_.adaptive_throttle;
  admission_ = std::make_unique<AdmissionController>(admission_config);

  if (!options_.query_log_path.empty()) {
    // Seed the template cost EWMAs before opening for append: templates
    // this server (or a predecessor) already measured throttle correctly
    // from the first request.
    admission_->SeedFromLog(options_.query_log_path);
    std::string log_error;
    if (!query_log_.Open(options_.query_log_path, &log_error)) {
      *error = "query log: " + log_error;
      return false;
    }
  }
  if (!options_.trace_path.empty()) {
    trace_ = std::make_unique<obs::TraceSession>();
  }
  if (options_.flight_recorder_capacity > 0) {
    obs::FlightRecorderOptions flight_options;
    flight_options.capacity = options_.flight_recorder_capacity;
    flight_options.slow_query_ms = options_.slow_query_ms;
    flight_options.spool_dir = options_.slow_spool_dir;
    flight_options.max_spool_bundles = options_.slow_spool_max;
    flight_ = std::make_unique<obs::FlightRecorder>(flight_options,
                                                    &admission_->templates());
  }
  drift_ = std::make_unique<obs::CalibrationDriftMonitor>(
      &admission_->templates());
  if (options_.slo_ms > 0.0) {
    if (options_.slo_target <= 0.0 || options_.slo_target >= 1.0) {
      *error = "--slo-target must be in (0, 1)";
      return false;
    }
    obs::SloBurnOptions slo_options;
    slo_options.slo_seconds = options_.slo_ms / 1e3;
    slo_options.slo_target = options_.slo_target;
    // Fire/resolve transitions land in the flight recorder's alert
    // journal so `\alerts` shows recent history, not just live state.
    obs::FlightRecorder* flight = flight_.get();
    slo_ = std::make_unique<obs::SloBurnTracker>(
        slo_options, &admission_->templates(),
        [flight](const obs::SloAlertEvent& event) {
          if (flight == nullptr) {
            return;
          }
          char line[160];
          std::snprintf(line, sizeof(line),
                        "%s %s (fast burn %.3f, slow burn %.3f)",
                        event.firing ? "FIRING" : "resolved",
                        event.scope.c_str(), event.fast_burn,
                        event.slow_burn);
          flight->NoteAlert(line);
        });
  }

  engine_.workload = workload_.get();
  engine_.config = &config_;
  engine_.model.store(model_.get());
  engine_.plan_cache =
      options_.plan_cache_capacity > 0 ? &plan_cache_ : nullptr;
  engine_.admission = admission_.get();
  engine_.query_log = query_log_.is_open() ? &query_log_ : nullptr;
  engine_.trace = trace_.get();
  engine_.flight = flight_.get();
  engine_.drift = drift_.get();
  engine_.slo = slo_.get();
  engine_.reopt_default = options_.reopt;
  engine_.reopt_slack_default = options_.reopt_slack;

  if (options_.metrics_port >= 0) {
    obs::MetricsExporterOptions exporter_options;
    exporter_options.port = options_.metrics_port;
    exporter_options.extra_families = [this] {
      std::string out;
      if (flight_ != nullptr) {
        out += flight_->RenderPrometheusTemplates();
      }
      out += drift_->RenderPrometheus();
      if (slo_ != nullptr) {
        out += slo_->RenderPrometheus();
      }
      return out;
    };
    if (flight_ != nullptr) {
      exporter_options.slow_json = [this] {
        return flight_->RenderRecentJson(32);
      };
    }
    if (!exporter_.Start(exporter_options, error)) {
      return false;
    }
  }

  if (!options_.socket_path.empty()) {
    listen_unix_fd_ = ListenUnix(options_.socket_path, error);
    if (listen_unix_fd_ < 0) {
      return false;
    }
  }
  if (options_.tcp_port > 0) {
    listen_tcp_fd_ = ListenTcp(options_.tcp_port, error);
    if (listen_tcp_fd_ < 0) {
      return false;
    }
  }
  if (::pipe(wake_pipe_) != 0) {
    *error = std::string("pipe: ") + strerror(errno);
    return false;
  }

  const int sessions = options_.sessions > 0 ? options_.sessions : 1;
  workers_.reserve(static_cast<size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  started_.store(true);
  return true;
}

void DqepServer::AcceptOne(int listen_fd) {
  int fd;
  do {
    fd = ::accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd >= 0) {
    Attach(fd);
  }
}

void DqepServer::Attach(int fd) {
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    pending_fds_.push_back(fd);
  }
  dispatch_cv_.notify_one();
}

void DqepServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(dispatch_mutex_);
      dispatch_cv_.wait(lock, [this] {
        return !pending_fds_.empty() || shutdown_.load();
      });
      if (pending_fds_.empty()) {
        return;  // shutdown with nothing left to serve
      }
      fd = pending_fds_.front();
      pending_fds_.pop_front();
    }
    LineChannel channel(fd);
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      if (shutdown_.load()) {
        // The drain already swept connections_; don't serve a newcomer.
        continue;
      }
      connections_.insert(&channel);
    }
    ServerSession session(&engine_, next_session_id_.fetch_add(1) + 1,
                          options_.session_memory_pages);
    session.Serve(&channel);
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      connections_.erase(&channel);
    }
  }
}

int DqepServer::Serve() {
  while (!shutdown_.load()) {
    // Slot 0 is the wake pipe; a listener that is off polls as -1,
    // which poll() skips.
    struct pollfd fds[3] = {{wake_pipe_[0], POLLIN, 0},
                            {listen_unix_fd_, POLLIN, 0},
                            {listen_tcp_fd_, POLLIN, 0}};
    const nfds_t nfds = 3;
    int ready = ::poll(fds, nfds, -1);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;  // the signal handler poked the wake pipe; loop re-checks
      }
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      break;  // Shutdown() or a termination signal
    }
    if ((fds[1].revents & POLLIN) != 0) {
      AcceptOne(listen_unix_fd_);
    }
    if ((fds[2].revents & POLLIN) != 0) {
      AcceptOne(listen_tcp_fd_);
    }
  }
  shutdown_.store(true);
  Teardown();
  return 0;
}

void DqepServer::Shutdown() {
  shutdown_.store(true);
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void DqepServer::Teardown() {
  if (!started_.exchange(false)) {
    return;
  }
  // 1. Refuse new work everywhere: sessions (draining flag), admission
  //    waiters (woken with kShutdown), the telemetry endpoint, and the
  //    listeners.
  engine_.draining.store(true);
  exporter_.Stop();
  if (admission_ != nullptr) {
    admission_->Shutdown();
  }
  if (listen_unix_fd_ >= 0) {
    ::close(listen_unix_fd_);
    listen_unix_fd_ = -1;
  }
  if (listen_tcp_fd_ >= 0) {
    ::close(listen_tcp_fd_);
    listen_tcp_fd_ = -1;
  }
  // 2. Cut in-flight queries short (cooperative cancellation) and break
  //    any reader blocked on a client that will never speak again.
  engine_.CancelAll();
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (LineChannel* channel : connections_) {
      channel->ShutdownBoth();
    }
  }
  // 3. Drain the workers.
  dispatch_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  // 4. Connections accepted but never served.
  for (int fd : pending_fds_) {
    ::close(fd);
  }
  pending_fds_.clear();
  // 5. Flush durable state.
  query_log_.Close();
  if (trace_ != nullptr &&
      !trace_->WriteChromeJson(options_.trace_path)) {
    std::fprintf(stderr, "trace: cannot write %s\n",
                 options_.trace_path.c_str());
  }
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
}

void DqepServer::InstallSignalHandlers(DqepServer* server) {
  g_signal_wake_fd.store(server->wake_pipe_[1], std::memory_order_relaxed);
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_handler = HandleTermSignal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  // A client that disconnects mid-response must not kill the server.
  ::signal(SIGPIPE, SIG_IGN);
}

}  // namespace server
}  // namespace dqep
