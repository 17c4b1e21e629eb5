#include "resilience/socket_link.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

namespace dcart::resilience {

namespace {

Status Errno(const std::string& what) {
  return Status::Error("socket link: " + what + ": " +
                       std::string(std::strerror(errno)));
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void CloseIfOpen(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

sockaddr_in Loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

class SocketPipe final : public BytePipe {
 public:
  SocketPipe() = default;
  SocketPipe(const SocketPipe&) = delete;
  SocketPipe& operator=(const SocketPipe&) = delete;
  ~SocketPipe() override {
    Close();
    CloseIfOpen(listen_fd_);
  }

  Status Connect() override;

  void Close() override {
    // One TCP connection carries both ways: closing its two ends kills
    // everything in flight, kernel-buffered bytes included.
    CloseIfOpen(client_fd_);
    CloseIfOpen(server_fd_);
  }

  bool Write(Direction way, std::vector<std::uint8_t>& bytes) override {
    const int fd = way == Direction::kToReplica ? client_fd_ : server_fd_;
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + written,
                               bytes.size() - written, MSG_NOSIGNAL);
      if (n > 0) {
        written += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      // Kernel buffer full: the remainder waits, in order, for the next
      // flush.  Anything else means the stream is gone.
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    bytes.erase(bytes.begin(),
                bytes.begin() + static_cast<std::ptrdiff_t>(written));
    return true;
  }

  bool Read(Direction way, std::vector<std::uint8_t>& rx,
            std::size_t max) override {
    const int fd = way == Direction::kToReplica ? server_fd_ : client_fd_;
    std::uint8_t buffer[4096];
    while (max > 0) {
      const ssize_t n = ::recv(fd, buffer, std::min(max, sizeof buffer), 0);
      if (n > 0) {
        rx.insert(rx.end(), buffer, buffer + n);
        max -= static_cast<std::size_t>(n);
        continue;
      }
      if (n == 0) return false;  // orderly close from the peer
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    return true;
  }

 private:
  /// Bind the listener to an ephemeral port (the kernel picks a free one).
  Status Listen();

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int client_fd_ = -1;  // the primary's end
  int server_fd_ = -1;  // the replica's end
};

Status SocketPipe::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket()");
  sockaddr_in addr = Loopback(0);
  Status status;
  socklen_t addr_len = sizeof addr;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    status = Errno("bind(127.0.0.1:0)");
  } else if (::listen(listen_fd_, 1) != 0) {
    status = Errno("listen()");
  } else if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                           &addr_len) != 0) {
    status = Errno("getsockname()");
  }
  if (!status.ok()) {
    CloseIfOpen(listen_fd_);
    return status;
  }
  port_ = ntohs(addr.sin_port);
  return Status::Ok();
}

Status SocketPipe::Connect() {
  Close();
  if (listen_fd_ < 0) {
    const Status listening = Listen();
    if (!listening.ok()) return listening;
  }
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  if (client < 0) return Errno("socket()");
  const sockaddr_in addr = Loopback(port_);
  // Blocking connect to our own listener: the loopback handshake completes
  // in the kernel, so accept() immediately finds the pending connection.
  if (::connect(client, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(client);
    return Errno("connect(127.0.0.1)");
  }
  const int server = ::accept(listen_fd_, nullptr, nullptr);
  if (server < 0) {
    ::close(client);
    return Errno("accept()");
  }
  if (!SetNonBlocking(client) || !SetNonBlocking(server)) {
    ::close(client);
    ::close(server);
    return Errno("fcntl(O_NONBLOCK)");
  }
  // Latency is virtual ticks, not Nagle's timer — never batch tiny frames.
  int one = 1;
  (void)::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  (void)::setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  client_fd_ = client;
  server_fd_ = server;
  return Status::Ok();
}

}  // namespace

std::unique_ptr<BytePipe> MakeSocketPipe() {
  return std::make_unique<SocketPipe>();
}

}  // namespace dcart::resilience
