#include "client.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/hash.h"
#include "exec/executor.h"
#include "runtime/plan_cache.h"
#include "runtime/startup.h"
#include "server/server.h"

extern char** environ;

namespace perfbench {

using dqep::server::LineChannel;
using dqep::server::QueryResponse;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Sends one line and reads its reply.
bool Roundtrip(LineChannel* channel, const std::string& line,
               QueryResponse* response) {
  return channel->WriteAll(line + "\n") && channel->ReadResponse(response);
}

int64_t ParseField(const std::string& line, const char* key) {
  const size_t at = line.find(key);
  return at == std::string::npos
             ? 0
             : std::strtoll(line.c_str() + at + std::strlen(key), nullptr, 10);
}

}  // namespace

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

bool ServerProcess::Start(const std::string& binary, const std::string& socket,
                          const std::string& log_path, std::string* error) {
  // Everything the child needs is built before fork: between fork and
  // exec only async-signal-safe calls are allowed.  The environment drops
  // DQEP_QUERY_LOG so the server runs with its default options.
  const std::string socket_flag = "--socket=" + socket;
  std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                             const_cast<char*>(socket_flag.c_str()), nullptr};
  std::vector<char*> envp;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "DQEP_QUERY_LOG=", 15) != 0) {
      envp.push_back(*env);
    }
  }
  envp.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path;
    return false;
  }

  const Clock::time_point start = Clock::now();
  pid_ = ::fork();
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(log_fd);
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }

  // Ready = the first reply.  Poll the socket until the server listens.
  for (;;) {
    std::string dial_error;
    const int fd = dqep::server::ConnectUnix(socket, &dial_error);
    if (fd >= 0) {
      LineChannel channel(fd);
      QueryResponse response;
      if (!Roundtrip(&channel, "\\ping", &response) || !response.ok) {
        *error = "server did not answer \\ping";
        return false;
      }
      setup_seconds_ = SecondsSince(start);
      // Free the session worker this connection holds.
      Roundtrip(&channel, "\\quit", &response);
      return true;
    }
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "server exited during start-up; see " + log_path;
      return false;
    }
    if (SecondsSince(start) > 60.0) {
      *error = "server did not listen within 60 s: " + dial_error;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

double ServerProcess::Stop() {
  if (pid_ <= 0) {
    return 0.0;
  }
  ::kill(pid_, SIGTERM);
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  const Clock::time_point start = Clock::now();
  while (::wait4(pid_, nullptr, WNOHANG, &usage) == 0) {
    if (SecondsSince(start) > 10.0) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, nullptr, 0, &usage);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

bool Connect(const std::string& socket, int n,
             std::vector<std::unique_ptr<LineChannel>>* out,
             std::string* error) {
  for (int i = 0; i < n; ++i) {
    const int fd = dqep::server::ConnectUnix(socket, error);
    if (fd < 0) {
      return false;
    }
    out->push_back(std::make_unique<LineChannel>(fd));
  }
  return true;
}

LoadResult RunClosedLoop(const std::vector<std::unique_ptr<LineChannel>>& channels,
                         QueryStream* stream, int64_t max_queries,
                         double seconds) {
  LoadResult result;
  std::mutex mutex;
  std::atomic<int64_t> issued{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (const auto& channel : channels) {
    threads.emplace_back([&, ch = channel.get()] {
      std::vector<Sample> samples;
      bool broken = false;
      QueryResponse response;
      for (;;) {
        if (max_queries > 0 && issued.fetch_add(1) >= max_queries) {
          break;
        }
        if (seconds > 0 && Clock::now() >= deadline) {
          break;
        }
        auto [id, sql] = stream->Next();
        Sample sample;
        sample.id = id;
        const Clock::time_point sent = Clock::now();
        if (!Roundtrip(ch, sql, &response)) {
          broken = true;
          samples.push_back(sample);
          break;
        }
        sample.latency_s = SecondsSince(sent);
        sample.done_s = SecondsSince(start);
        sample.ok = response.ok;
        sample.server_s = response.seconds;
        sample.reported_rows = response.row_count;
        sample.rows = static_cast<int64_t>(response.rows.size());
        for (const std::string& row : response.rows) {
          sample.checksum += RowChecksum(row);
        }
        samples.push_back(sample);
      }
      std::lock_guard<std::mutex> lock(mutex);
      result.samples.insert(result.samples.end(), samples.begin(),
                            samples.end());
      result.broken_connections += broken ? 1 : 0;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  result.wall_seconds = SecondsSince(start);
  return result;
}

bool FetchCounters(LineChannel* channel, Counters* out) {
  QueryResponse response;
  if (!Roundtrip(channel, "\\metrics json", &response) || !response.ok) {
    return false;
  }
  // RenderJson puts each metric on a line of its own:
  //   "name": {"kind": "counter", "value": 7},
  //   "name": {"kind": "histogram", "count": 3, "sum": 12, ...},
  for (const std::string& line : response.rows) {
    const size_t open = line.find('"');
    const size_t close = open == std::string::npos
                             ? std::string::npos
                             : line.find('"', open + 1);
    if (close == std::string::npos) {
      continue;
    }
    Counter& counter = (*out)[line.substr(open + 1, close - open - 1)];
    counter.value = ParseField(line, "\"value\": ");
    counter.count = ParseField(line, "\"count\": ");
    counter.sum = ParseField(line, "\"sum\": ");
  }
  return true;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::max(0.0, std::ceil(q * static_cast<double>(values.size())) - 1));
  return values[std::min(rank, values.size() - 1)];
}

uint64_t RowChecksum(std::string_view row) {
  // FNV-1a alone sums badly (nearby rows differ in few bits); one
  // splitmix64 finalizer spreads each row over all 64 bits.
  uint64_t z = dqep::Fnv1a64(row);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

struct Expected {
  bool ok = false;
  std::string error;
  int64_t rows = 0;
  uint64_t checksum = 0;
};

/// The independent evaluation: no plan cache, so a plain parse (literals
/// stay literals), a fresh dynamic optimization, start-up resolution and
/// the batch executor — the server takes the cached template path and,
/// by default, the tuple executor.
Expected Evaluate(dqep::PaperWorkload* workload, const std::string& sql) {
  Expected expected;
  dqep::CachedPlanRequest request;
  request.catalog = &workload->catalog();
  request.model = &workload->model();
  request.memory_pages = dqep::server::ServerOptions{}.session_memory_pages;
  auto planned = dqep::PlanQueryWithCache(sql, request);
  if (!planned.ok()) {
    expected.error = planned.status().ToString();
    return expected;
  }
  auto startup = dqep::ResolveDynamicPlan(planned->root, workload->model(),
                                          planned->bound);
  if (!startup.ok()) {
    expected.error = startup.status().ToString();
    return expected;
  }
  std::unique_ptr<dqep::ExecContext> ctx =
      dqep::MakeExecContext(planned->bound, workload->config());
  auto iter = dqep::BuildBatchExecutor(startup->resolved, workload->db(),
                                       planned->bound, ctx.get());
  if (!iter.ok()) {
    expected.error = iter.status().ToString();
    return expected;
  }
  (*iter)->Open();
  dqep::TupleBatch batch;
  while ((*iter)->Next(&batch)) {
    for (int32_t i = 0; i < batch.num_rows(); ++i) {
      expected.checksum += RowChecksum(batch.row(i).ToString());
      ++expected.rows;
    }
  }
  (*iter)->Close();
  expected.ok = true;
  return expected;
}

}  // namespace

int64_t CheckOutputs(const std::vector<Sample>& samples,
                     const QueryStream& stream, dqep::PaperWorkload* workload,
                     int threads, std::string* first_error) {
  std::unordered_map<int64_t, Expected> expected;
  for (const Sample& sample : samples) {
    expected.emplace(sample.id, Expected{});
  }
  std::vector<std::pair<const int64_t, Expected>*> todo;
  for (auto& entry : expected) {
    todo.push_back(&entry);
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < todo.size();
           i = next.fetch_add(1)) {
        todo[i]->second = Evaluate(workload, stream.Text(todo[i]->first));
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  int64_t mismatches = 0;
  for (const Sample& sample : samples) {
    const Expected& want = expected.at(sample.id);
    const bool match = sample.ok && want.ok && sample.rows == want.rows &&
                       sample.reported_rows == want.rows &&
                       sample.checksum == want.checksum;
    if (!match && mismatches++ == 0) {
      *first_error =
          "query " + std::to_string(sample.id) + " [" +
          stream.Text(sample.id) + "]: " +
          (!want.ok ? "reference failed: " + want.error
           : !sample.ok
               ? std::string("no @ok reply")
               : "got " + std::to_string(sample.rows) + " rows (rows=" +
                     std::to_string(sample.reported_rows) + "), expected " +
                     std::to_string(want.rows) +
                     (sample.checksum == want.checksum ? ""
                                                       : ", checksum differs"));
    }
  }
  return mismatches;
}

}  // namespace perfbench
