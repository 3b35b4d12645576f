// A blocking unix-socket client for the ksym_serve wire protocol: one
// request line out, one response line back, as ksym_client does.

#ifndef KSYMBENCH_BENCH_CLIENT_H_
#define KSYMBENCH_BENCH_CLIENT_H_

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/status.h"
#include "serve/wire.h"

namespace ksymbench {

class DaemonClient {
 public:
  DaemonClient() = default;
  ~DaemonClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  ksym::Status Connect(const std::string& socket_path) {
    sockaddr_un addr{};
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      return ksym::Status::InvalidArgument("socket path too long");
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return ksym::Status::IoError(std::strerror(errno));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      return ksym::Status::IoError("connect " + socket_path + ": " +
                                   std::strerror(errno));
    }
    return ksym::Status::Ok();
  }

  /// Sends one request and returns the decoded response object.
  ksym::Result<ksym::serve::WireObject> Call(
      const ksym::serve::WireObject& request) {
    const std::string framed = ksym::serve::SerializeWireLine(request) + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return ksym::Status::IoError(std::strerror(errno));
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      const size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        const std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return ksym::serve::ParseWireLine(line);
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        return ksym::Status::IoError("connection closed before response");
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace ksymbench

#endif  // KSYMBENCH_BENCH_CLIENT_H_
