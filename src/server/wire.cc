#include "server/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/failpoint.h"
#include "common/parse.h"
#include "common/telemetry.h"

namespace tnmine::server {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Monotonic budget for one frame (or one connect attempt). A zero
/// timeout constructs an unlimited deadline: remaining_ms() is poll's
/// "wait forever" and expired() is never true.
class Deadline {
 public:
  explicit Deadline(std::uint64_t timeout_ms)
      : unlimited_(timeout_ms == 0),
        at_(SteadyClock::now() + std::chrono::milliseconds(timeout_ms)) {}

  bool expired() const { return !unlimited_ && SteadyClock::now() >= at_; }

  /// Remaining budget as a poll() timeout: -1 = infinite, >= 0
  /// otherwise (clamped so a just-expired deadline polls with 0 and
  /// fails fast instead of blocking).
  int remaining_poll_ms() const {
    if (unlimited_) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        at_ - SteadyClock::now());
    if (left.count() <= 0) return 0;
    if (left.count() > 3600000) return 3600000;
    return static_cast<int>(left.count());
  }

 private:
  bool unlimited_;
  SteadyClock::time_point at_;
};

enum class IoStatus : std::uint8_t { kOk, kEof, kTimeout, kError };

/// Reads exactly `n` bytes with poll-before-read under `deadline`.
/// Handles blocking and O_NONBLOCK fds: poll gates every read, and
/// EAGAIN simply loops back into poll.
IoStatus ReadExactDeadline(int fd, char* buf, std::size_t n,
                           const Deadline& deadline) {
  std::size_t done = 0;
  while (done < n) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, deadline.remaining_poll_ms());
    if (ready < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    if (ready == 0) return IoStatus::kTimeout;
    const ssize_t got = ::recv(fd, buf + done, n - done, 0);
    if (got == 0) return IoStatus::kEof;
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        if (deadline.expired()) return IoStatus::kTimeout;
        continue;
      }
      return IoStatus::kError;
    }
    done += static_cast<std::size_t>(got);
  }
  return IoStatus::kOk;
}

IoStatus WriteExactDeadline(int fd, const char* buf, std::size_t n,
                            const Deadline& deadline) {
  std::size_t done = 0;
  while (done < n) {
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, deadline.remaining_poll_ms());
    if (ready < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    if (ready == 0) return IoStatus::kTimeout;
    const ssize_t put =
        ::send(fd, buf + done, n - done, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        if (deadline.expired()) return IoStatus::kTimeout;
        continue;
      }
      return IoStatus::kError;
    }
    done += static_cast<std::size_t>(put);
  }
  return IoStatus::kOk;
}

int ConnectTo(const ListenAddress& addr, std::string* error) {
  if (TNMINE_FAILPOINT("wire/connect_fail")) {
    // Injected transient connect failure — the site the client-retry
    // tests and the smoke script arm to prove --retry recovers.
    if (error != nullptr) {
      *error = "connect " + addr.ToString() +
               ": injected failure (failpoint wire/connect_fail)";
    }
    return -1;
  }
  if (addr.is_unix) {
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    if (addr.unix_path.size() >= sizeof(sun.sun_path)) {
      if (error != nullptr) *error = "unix socket path too long";
      return -1;
    }
    std::memcpy(sun.sun_path, addr.unix_path.c_str(),
                addr.unix_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) != 0) {
      if (error != nullptr) {
        *error = "connect " + addr.ToString() + ": " + std::strerror(errno);
      }
      if (fd >= 0) ::close(fd);
      return -1;
    }
    return fd;
  }
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_port = htons(addr.port);
  if (::inet_pton(AF_INET, addr.host.c_str(), &sin.sin_addr) != 1) {
    if (error != nullptr) *error = "bad host " + addr.host;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) != 0) {
    if (error != nullptr) {
      *error = "connect " + addr.ToString() + ": " + std::strerror(errno);
    }
    if (fd >= 0) ::close(fd);
    return -1;
  }
  // Frames are written as header + payload sends; without NODELAY the
  // payload waits on the server's delayed ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Backoff for the k-th retry (k = 1 for the first): exponential from
/// initial_backoff_ms capped at max_backoff_ms, plus deterministic
/// jitter in [0, base/2] drawn from (jitter_seed, k). Deterministic so
/// retry schedules replay exactly under test.
std::uint64_t BackoffMs(const RetryPolicy& policy, int k) {
  std::uint64_t base = policy.initial_backoff_ms;
  for (int i = 1; i < k && base < policy.max_backoff_ms; ++i) base *= 2;
  if (base > policy.max_backoff_ms) base = policy.max_backoff_ms;
  if (base == 0) return 0;
  const std::uint64_t jitter =
      SplitMix64(policy.jitter_seed ^ static_cast<std::uint64_t>(k)) %
      (base / 2 + 1);
  return base + jitter;
}

}  // namespace

bool ListenAddress::Parse(const std::string& spec, ListenAddress* out,
                          std::string* error) {
  *out = ListenAddress{};
  if (spec.rfind("unix:", 0) == 0) {
    out->is_unix = true;
    out->unix_path = spec.substr(5);
    if (out->unix_path.empty()) {
      if (error != nullptr) *error = "empty unix socket path";
      return false;
    }
    return true;
  }
  std::string rest = spec;
  if (rest.rfind("tcp:", 0) == 0) rest = rest.substr(4);
  std::string port_text = rest;
  const std::size_t colon = rest.rfind(':');
  if (colon != std::string::npos) {
    out->host = rest.substr(0, colon);
    port_text = rest.substr(colon + 1);
  }
  std::uint64_t port = 0;
  if (!tnmine::ParseUint64(port_text, &port) || port > 65535) {
    if (error != nullptr) *error = "bad port in '" + spec + "'";
    return false;
  }
  out->port = static_cast<std::uint16_t>(port);
  return true;
}

std::string ListenAddress::ToString() const {
  if (is_unix) return "unix:" + unix_path;
  return "tcp:" + host + ":" + std::to_string(port);
}

FrameReadStatus ReadFrameDeadline(int fd, std::string* payload,
                                  std::uint64_t idle_timeout_ms,
                                  std::uint64_t io_timeout_ms) {
  char header[4];
  // First header byte under the idle allotment: a connection parked
  // between requests is not "slow", it is idle — budgeted separately.
  {
    const Deadline idle(idle_timeout_ms);
    switch (ReadExactDeadline(fd, header, 1, idle)) {
      case IoStatus::kOk:
        break;
      case IoStatus::kEof:
        return FrameReadStatus::kEof;
      case IoStatus::kTimeout:
        return FrameReadStatus::kIdleTimeout;
      case IoStatus::kError:
        return FrameReadStatus::kTornFrame;
    }
  }
  // A frame has started: everything else shares one monotonic I/O
  // budget, so trickling bytes cannot stretch it.
  const Deadline io(io_timeout_ms);
  switch (ReadExactDeadline(fd, header + 1, sizeof(header) - 1, io)) {
    case IoStatus::kOk:
      break;
    case IoStatus::kTimeout:
      return FrameReadStatus::kIoTimeout;
    case IoStatus::kEof:
    case IoStatus::kError:
      return FrameReadStatus::kTornFrame;
  }
  std::uint32_t len =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[0]))
       << 24) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[1]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[2]))
       << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(header[3]));
  if (TNMINE_FAILPOINT("wire/frame_garbage")) {
    // Injected garbage length prefix: behave exactly as if the peer
    // sent 0xFFFFFFFF.
    len = 0xFFFFFFFFu;
  }
  if (len > kMaxFrameBytes) return FrameReadStatus::kOversized;
  payload->resize(len);
  if (len > 0) {
    switch (ReadExactDeadline(fd, payload->data(), len, io)) {
      case IoStatus::kOk:
        break;
      case IoStatus::kTimeout:
        return FrameReadStatus::kIoTimeout;
      case IoStatus::kEof:
      case IoStatus::kError:
        return FrameReadStatus::kTornFrame;
    }
  }
  if (TNMINE_FAILPOINT("wire/read_torn")) {
    // Injected torn read: the bytes arrived but the site reports the
    // peer died mid-frame, driving the server's torn-frame path.
    return FrameReadStatus::kTornFrame;
  }
  return FrameReadStatus::kFrame;
}

bool WriteFrameDeadline(int fd, std::string_view payload,
                        std::uint64_t io_timeout_ms, bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  if (payload.size() > kMaxFrameBytes) return false;
  if (TNMINE_FAILPOINT("wire/write_short")) {
    // Injected short write: the frame is reported failed without
    // touching the socket, as if the peer's window closed forever.
    return false;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const char header[4] = {
      static_cast<char>((len >> 24) & 0xFF),
      static_cast<char>((len >> 16) & 0xFF),
      static_cast<char>((len >> 8) & 0xFF),
      static_cast<char>(len & 0xFF),
  };
  const Deadline io(io_timeout_ms);
  IoStatus status = WriteExactDeadline(fd, header, sizeof(header), io);
  if (status == IoStatus::kOk) {
    status = WriteExactDeadline(fd, payload.data(), payload.size(), io);
  }
  if (status == IoStatus::kTimeout && timed_out != nullptr) {
    *timed_out = true;
  }
  return status == IoStatus::kOk;
}

bool ReadFrame(int fd, std::string* payload) {
  return ReadFrameDeadline(fd, payload, 0, 0) == FrameReadStatus::kFrame;
}

bool WriteFrame(int fd, std::string_view payload) {
  return WriteFrameDeadline(fd, payload, 0, nullptr);
}

bool BlockingClient::Connect(const std::string& spec, std::string* error) {
  Close();
  spec_ = spec;
  ListenAddress addr;
  if (!ListenAddress::Parse(spec, &addr, error)) return false;
  fd_ = ConnectTo(addr, error);
  return fd_ >= 0;
}

bool BlockingClient::Connect(const std::string& spec,
                             const RetryPolicy& policy,
                             std::string* error) {
  const Deadline wall(policy.request_deadline_ms);
  std::string last_error;
  for (int attempt = 1; attempt <= std::max(1, policy.max_attempts);
       ++attempt) {
    if (attempt > 1) {
      TNMINE_COUNTER_ADD("client/retry_connect", 1);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(BackoffMs(policy, attempt - 1)));
    }
    if (wall.expired()) {
      TNMINE_COUNTER_ADD("client/request_deadline_expired", 1);
      if (error != nullptr) {
        *error = "connect " + spec + ": request deadline expired after " +
                 std::to_string(policy.request_deadline_ms) +
                 " ms (last error: " +
                 (last_error.empty() ? "none" : last_error) + ")";
      }
      return false;
    }
    if (Connect(spec, &last_error)) return true;
  }
  TNMINE_COUNTER_ADD("client/retry_giveup", 1);
  if (error != nullptr) {
    *error = last_error + " (after " +
             std::to_string(std::max(1, policy.max_attempts)) +
             " attempts)";
  }
  return false;
}

void BlockingClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool BlockingClient::Send(const JsonValue& request, std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = "send to " + spec_ + ": not connected";
    return false;
  }
  bool timed_out = false;
  if (!WriteFrameDeadline(fd_, request.Serialize(), io_timeout_ms_,
                          &timed_out)) {
    if (error != nullptr) {
      *error = "send to " + spec_ + ": " +
               (timed_out ? "I/O timeout after " +
                                std::to_string(io_timeout_ms_) + " ms"
                          : std::string(std::strerror(errno)));
    }
    return false;
  }
  return true;
}

bool BlockingClient::Receive(JsonValue* response, std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = "recv from " + spec_ + ": not connected";
    return false;
  }
  std::string payload;
  switch (ReadFrameDeadline(fd_, &payload, io_timeout_ms_,
                            io_timeout_ms_)) {
    case FrameReadStatus::kFrame:
      break;
    case FrameReadStatus::kEof:
      if (error != nullptr) {
        *error = "recv from " + spec_ + ": connection closed by peer";
      }
      return false;
    case FrameReadStatus::kIdleTimeout:
    case FrameReadStatus::kIoTimeout:
      if (error != nullptr) {
        *error = "recv from " + spec_ + ": I/O timeout after " +
                 std::to_string(io_timeout_ms_) + " ms";
      }
      return false;
    case FrameReadStatus::kTornFrame:
      if (error != nullptr) {
        *error = "recv from " + spec_ + ": torn frame (" +
                 std::strerror(errno) + ")";
      }
      return false;
    case FrameReadStatus::kOversized:
      if (error != nullptr) {
        *error = "recv from " + spec_ + ": oversized frame";
      }
      return false;
  }
  return JsonValue::Parse(payload, response, error);
}

bool BlockingClient::Call(const JsonValue& request, JsonValue* response,
                          std::string* error) {
  return Send(request, error) && Receive(response, error);
}

bool BlockingClient::CallWithRetry(const JsonValue& request,
                                   const RetryPolicy& policy,
                                   bool idempotent, JsonValue* response,
                                   std::string* error) {
  const Deadline wall(policy.request_deadline_ms);
  std::string last_error;
  const int attempts =
      idempotent ? std::max(1, policy.max_attempts) : 1;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      TNMINE_COUNTER_ADD("client/retry_request", 1);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(BackoffMs(policy, attempt - 1)));
      // The old connection is in an unknown framing state after a
      // transport failure — always reconnect before re-sending.
      if (!Connect(spec_, &last_error)) continue;
    }
    if (wall.expired()) {
      TNMINE_COUNTER_ADD("client/request_deadline_expired", 1);
      if (error != nullptr) {
        *error = "call " + spec_ + ": request deadline expired after " +
                 std::to_string(policy.request_deadline_ms) +
                 " ms (last error: " +
                 (last_error.empty() ? "none" : last_error) + ")";
      }
      return false;
    }
    if (Call(request, response, &last_error)) return true;
  }
  if (attempts > 1) TNMINE_COUNTER_ADD("client/retry_giveup", 1);
  if (error != nullptr) {
    *error = last_error +
             (attempts > 1
                  ? " (after " + std::to_string(attempts) + " attempts)"
                  : "");
  }
  return false;
}

}  // namespace tnmine::server
