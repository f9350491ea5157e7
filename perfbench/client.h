// The client side of the served-query benchmark: the server process it
// drives, the closed-loop load over the line protocol, the server's
// registry counters read over the wire, and the output check against an
// independent evaluation of every distinct query.

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"
#include "streams.h"
#include "workload/paper_workload.h"

namespace perfbench {

/// One dqep_server process on a unix socket, with default options.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary --socket=<socket>` (server output appended to
  /// `log_path`) and waits until it answers `\ping`.  The time from the
  /// start to that reply is setup_seconds().
  bool Start(const std::string& binary, const std::string& socket,
             const std::string& log_path, std::string* error);

  /// Drains the server with SIGTERM and waits for it to exit.  Returns
  /// its peak resident memory in MB.
  double Stop();

  double setup_seconds() const { return setup_seconds_; }

 private:
  pid_t pid_ = -1;
  double setup_seconds_ = 0.0;
};

/// One query as the client saw it.
struct Sample {
  int64_t id = 0;          ///< distinct-text id in the stream
  double latency_s = 0.0;  ///< write of the SQL line to the status line
  double done_s = 0.0;     ///< status line, from the start of the loop
  double server_s = 0.0;   ///< the reply's own `@ok seconds=`
  int64_t rows = 0;        ///< data lines received
  int64_t reported_rows = 0;  ///< the reply's `rows=`
  uint64_t checksum = 0;   ///< RowChecksum over the data lines
  bool ok = false;         ///< an `@ok` reply arrived
};

struct LoadResult {
  std::vector<Sample> samples;
  double wall_seconds = 0.0;
  /// Connections that broke before the loop ended.
  int64_t broken_connections = 0;
};

/// Connects `n` line-protocol sessions to `socket`.
bool Connect(const std::string& socket, int n,
             std::vector<std::unique_ptr<dqep::server::LineChannel>>* out,
             std::string* error);

/// Closed loop without think time: every connection sends the next
/// query of `stream` as soon as its previous reply has arrived.  Stops
/// after `max_queries` queries in total (> 0) or once `seconds` have
/// passed (> 0), whichever comes first.
LoadResult RunClosedLoop(
    const std::vector<std::unique_ptr<dqep::server::LineChannel>>& channels,
    QueryStream* stream, int64_t max_queries, double seconds);

/// One registry metric as `\metrics json` reports it.
struct Counter {
  int64_t value = 0;  ///< counters and gauges
  int64_t count = 0;  ///< histograms
  int64_t sum = 0;    ///< histograms
};
using Counters = std::map<std::string, Counter>;

/// Reads the server's registry over `channel` with `\metrics json`.
bool FetchCounters(dqep::server::LineChannel* channel, Counters* out);

/// Nearest-rank q-quantile of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);

/// Order-independent contribution of one rendered result row.
uint64_t RowChecksum(std::string_view row);

/// Compares every sample with an evaluation of its text on a path the
/// server does not take (plain parse, no plan cache, start-up
/// resolution, batch executor) against `workload`, each distinct text
/// once, on `threads` threads.  Returns the number of mismatched
/// samples; `first_error` describes the first.
int64_t CheckOutputs(const std::vector<Sample>& samples,
                     const QueryStream& stream, dqep::PaperWorkload* workload,
                     int threads, std::string* first_error);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
