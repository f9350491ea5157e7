// A DqepServer on a background thread, serving a temp-dir unix socket,
// for the socket-level tests (labels server and reopt).

#ifndef DQEP_TESTS_SERVER_FIXTURE_H_
#define DQEP_TESTS_SERVER_FIXTURE_H_

#include <stdlib.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "server/protocol.h"
#include "server/server.h"

namespace dqep {
namespace server {

/// Runs one DqepServer on a background thread against a temp-dir socket.
class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options) {
    char tmpl[] = "/tmp/dqepsrvXXXXXX";
    dir_ = ::mkdtemp(tmpl);
    options.socket_path = dir_ + "/s";
    server_ = std::make_unique<DqepServer>(std::move(options));
    std::string error;
    started_ = server_->Start(&error);
    EXPECT_TRUE(started_) << error;
    if (started_) {
      serve_thread_ = std::thread([this] { exit_code_ = server_->Serve(); });
    }
  }

  ~ServerFixture() {
    StopAndJoin();
    ::rmdir(dir_.c_str());
  }

  void StopAndJoin() {
    if (serve_thread_.joinable()) {
      server_->Shutdown();
      serve_thread_.join();
    }
  }

  std::unique_ptr<LineChannel> Connect() {
    std::string error;
    const int fd = ConnectUnix(server_->options().socket_path, &error);
    EXPECT_GE(fd, 0) << error;
    return fd < 0 ? nullptr : std::make_unique<LineChannel>(fd);
  }

  DqepServer& server() { return *server_; }
  int exit_code() const { return exit_code_; }
  bool started() const { return started_; }

 private:
  std::string dir_;
  std::unique_ptr<DqepServer> server_;
  std::thread serve_thread_;
  bool started_ = false;
  int exit_code_ = -1;
};

/// One request/response round; asserts the connection stayed healthy.
inline QueryResponse RoundTrip(LineChannel* channel,
                               const std::string& line) {
  QueryResponse response;
  EXPECT_TRUE(channel->WriteAll(line + "\n"));
  EXPECT_TRUE(channel->ReadResponse(&response));
  return response;
}

}  // namespace server
}  // namespace dqep

#endif  // DQEP_TESTS_SERVER_FIXTURE_H_
