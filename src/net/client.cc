#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "compress/varint.h"

namespace dslog {
namespace net {

namespace {

void SetTimeout(int fd, int which, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

}  // namespace

Result<std::unique_ptr<DslogClient>> DslogClient::Connect(
    const std::string& host, int port, const ClientOptions& options) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    return Status::InvalidArgument("host must be a numeric IPv4 address: " +
                                   host);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket() failed");
  // Bounded connect: non-blocking connect + poll, then back to blocking
  // with per-syscall timeouts.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return Status::IOError("connect(" + host + ":" + std::to_string(port) +
                             ") failed: " + std::strerror(errno));
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, options.connect_timeout_ms);
    int err = 0;
    socklen_t len = sizeof(err);
    if (rc <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return Status::IOError("connect(" + host + ":" + std::to_string(port) +
                             ") " + (rc == 0 ? "timed out" : "failed"));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  SetTimeout(fd, SO_RCVTIMEO, options.io_timeout_ms);
  SetTimeout(fd, SO_SNDTIMEO, options.io_timeout_ms);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::unique_ptr<DslogClient> client(new DslogClient(fd, options));
  HelloRequest hello;
  hello.client_name = options.client_name;
  DSLOG_ASSIGN_OR_RETURN(
      std::string resp,
      client->Roundtrip(Opcode::kHello, hello.Encode(), Opcode::kHelloOk));
  if (!HelloResponse::Decode(resp, &client->hello_))
    return Status::Internal("malformed HelloOk from server");
  return client;
}

DslogClient::DslogClient(int fd, ClientOptions options)
    : fd_(fd),
      options_(std::move(options)),
      decoder_(options_.max_frame_bytes) {}

DslogClient::~DslogClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status DslogClient::SendFrame(Opcode opcode, uint32_t request_id,
                              std::string_view payload) {
  // The server's decoder drops the whole session on an oversized frame;
  // failing here is a typed, recoverable error instead. hello_ holds the
  // protocol default until the handshake overwrites it with the server's
  // advertised cap; a nonsensical advertisement falls back to our own.
  const int64_t limit = hello_.max_frame_bytes > 0 ? hello_.max_frame_bytes
                                                   : options_.max_frame_bytes;
  if (static_cast<int64_t>(payload.size()) > limit)
    return Status::InvalidArgument(
        "request payload of " + std::to_string(payload.size()) +
        " bytes exceeds the server's " + std::to_string(limit) +
        "-byte frame limit");
  std::string frame;
  frame.reserve(payload.size() + 9);
  AppendFrame(&frame, opcode, request_id, payload);
  std::lock_guard<std::mutex> lk(write_mu_);
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError(std::string("send failed: ") +
                           ((errno == EAGAIN || errno == EWOULDBLOCK)
                                ? "timed out"
                                : std::strerror(errno)));
  }
  return Status::OK();
}

Result<Frame> DslogClient::ReadFrame() {
  Frame f;
  for (;;) {
    DSLOG_ASSIGN_OR_RETURN(bool complete, decoder_.Next(&f));
    if (complete) return f;
    char buf[16384];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.Append(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) return Status::IOError("server closed the connection");
    if (errno == EINTR) continue;
    return Status::IOError(std::string("recv failed: ") +
                           ((errno == EAGAIN || errno == EWOULDBLOCK)
                                ? "timed out"
                                : std::strerror(errno)));
  }
}

Result<std::string> DslogClient::Roundtrip(Opcode opcode,
                                           std::string_view payload,
                                           Opcode ok_opcode) {
  const uint32_t id = next_request_id_++;
  DSLOG_RETURN_IF_ERROR(SendFrame(opcode, id, payload));
  DSLOG_ASSIGN_OR_RETURN(Frame resp, ReadFrame());
  // Typed errors first: the accept-overload shed answers with request id 0
  // (no request was ever parsed), so the id check must not mask them.
  if (resp.opcode == static_cast<uint8_t>(Opcode::kError) ||
      resp.opcode == static_cast<uint8_t>(Opcode::kOverloaded))
    return DecodeStatusPayload(resp.payload);
  if (resp.request_id != id)
    return Status::Internal("response id " + std::to_string(resp.request_id) +
                            " does not match request " + std::to_string(id));
  if (resp.opcode != static_cast<uint8_t>(ok_opcode))
    return Status::Internal("unexpected response opcode " +
                            std::to_string(resp.opcode));
  return std::move(resp.payload);
}

Status DslogClient::OpenStore(const std::string& store, bool create) {
  OpenStoreRequest req;
  req.store = store;
  req.create = create;
  return Roundtrip(Opcode::kOpenStore, req.Encode(), Opcode::kOpenStoreOk)
      .status();
}

Status DslogClient::DefineArray(const std::string& name,
                                std::vector<int64_t> shape) {
  DefineArrayRequest req;
  req.name = name;
  req.shape = std::move(shape);
  return Roundtrip(Opcode::kDefineArray, req.Encode(), Opcode::kDefineArrayOk)
      .status();
}

Result<int64_t> DslogClient::ShipIngestBlock(uint64_t num_ops,
                                             std::string_view block) {
  std::string payload;
  payload.reserve(block.size() + 4);
  PutVarint64(&payload, num_ops);
  payload.append(block);
  DSLOG_ASSIGN_OR_RETURN(
      std::string resp_bytes,
      Roundtrip(Opcode::kIngestBatch, payload, Opcode::kIngestBatchOk));
  IngestBatchResponse resp;
  if (!IngestBatchResponse::Decode(resp_bytes, &resp))
    return Status::Internal("malformed IngestBatchOk");
  return resp.staged;
}

Result<std::vector<ReuseOutcome>> DslogClient::Drain() {
  DSLOG_ASSIGN_OR_RETURN(std::string payload,
                         Roundtrip(Opcode::kDrain, "", Opcode::kDrainOk));
  DrainResponse resp;
  if (!DrainResponse::Decode(payload, &resp))
    return Status::Internal("malformed DrainOk");
  return std::move(resp.outcomes);
}

Result<BoxTable> DslogClient::Query(const std::vector<std::string>& path,
                                    const BoxTable& query,
                                    const QueryOptions& options,
                                    std::string* profile_json) {
  QueryRequest req;
  req.path = path;
  req.query = query;
  req.options = options;
  DSLOG_ASSIGN_OR_RETURN(
      std::string payload,
      Roundtrip(Opcode::kQuery, req.Encode(), Opcode::kQueryOk));
  QueryResponse resp;
  if (!QueryResponse::Decode(payload, &resp))
    return Status::Internal("malformed QueryOk");
  if (profile_json != nullptr) *profile_json = std::move(resp.profile_json);
  return std::move(resp.result);
}

Status DslogClient::Cancel() {
  // Request id 0: cancels are unacknowledged and correlate with nothing.
  return SendFrame(Opcode::kCancel, 0, "");
}

Result<std::string> DslogClient::ServerStats() {
  DSLOG_ASSIGN_OR_RETURN(std::string payload,
                         Roundtrip(Opcode::kStats, "", Opcode::kStatsOk));
  StatsResponse resp;
  if (!StatsResponse::Decode(payload, &resp))
    return Status::Internal("malformed StatsOk");
  return std::move(resp.json);
}

Status DslogClient::Bye() {
  return Roundtrip(Opcode::kBye, "", Opcode::kByeOk).status();
}

Result<uint64_t> IngestHandle::Add(const OperationRegistration& reg) {
  AppendWireOperation(&block_, reg);
  ++ops_in_block_;
  ++ops_added_;
  const uint64_t index = ops_since_drain_++;
  if (ops_in_block_ >= max_block_ops_ ||
      static_cast<int64_t>(block_.size()) >= data_block_bytes_) {
    DSLOG_RETURN_IF_ERROR(Flush());
  }
  return index;
}

Status IngestHandle::Flush() {
  if (ops_in_block_ == 0) return Status::OK();
  // The block is only surrendered on success: a failed ship leaves
  // block_/ops_in_block_ intact, so a retried Flush/Drain resends the same
  // ops instead of an empty block claiming them.
  DSLOG_ASSIGN_OR_RETURN(int64_t staged,
                         client_->ShipIngestBlock(ops_in_block_, block_));
  (void)staged;
  block_.clear();
  ops_in_block_ = 0;
  ++blocks_shipped_;
  return Status::OK();
}

Result<std::vector<ReuseOutcome>> IngestHandle::Drain() {
  DSLOG_RETURN_IF_ERROR(Flush());
  DSLOG_ASSIGN_OR_RETURN(std::vector<ReuseOutcome> outcomes,
                         client_->Drain());
  ops_since_drain_ = 0;
  return outcomes;
}

}  // namespace net
}  // namespace dslog
