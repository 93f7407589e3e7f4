// Client side of the lineage service: a blocking single-requester
// connection (DslogClient) plus the batching handle (IngestHandle) that
// accretes operations into data blocks, so steady-state ingest pays one
// round trip per *block*, not per operation.
//
// Threading: one thread drives requests on a client at a time (requests
// are strict request/response round trips). Cancel() is the one
// cross-thread-safe call — it enqueues an out-of-band kCancel frame that
// the server's reactor applies to the in-flight request immediately, so a
// second thread can abort a long query the first thread is blocked on.

#ifndef DSLOG_NET_CLIENT_H_
#define DSLOG_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/protocol.h"
#include "net/wire.h"
#include "query/box.h"
#include "query/query_engine.h"
#include "storage/dslog.h"
#include "storage/signatures.h"

namespace dslog {
namespace net {

struct ClientOptions {
  int connect_timeout_ms = 5'000;
  /// Per-syscall send/recv timeout (SO_SNDTIMEO / SO_RCVTIMEO); a stuck
  /// server surfaces as Status::IOError instead of a hang.
  int io_timeout_ms = 30'000;
  std::string client_name = "dslog_client";
  int64_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// One connected, Hello-completed session against a DslogServer.
class DslogClient {
 public:
  /// Connects and runs the Hello handshake. `host` is a numeric IPv4
  /// address.
  static Result<std::unique_ptr<DslogClient>> Connect(
      const std::string& host, int port, const ClientOptions& options = {});

  ~DslogClient();
  DslogClient(const DslogClient&) = delete;
  DslogClient& operator=(const DslogClient&) = delete;

  /// The server's Hello response (name, negotiated frame cap).
  const HelloResponse& server_hello() const { return hello_; }

  Status OpenStore(const std::string& store, bool create = true);
  Status DefineArray(const std::string& name, std::vector<int64_t> shape);

  /// Ships one pre-encoded ingest data block (`num_ops` operations encoded
  /// with AppendWireOperation). Returns the server's total staged count.
  /// Takes a view: on failure the caller still owns the block and may
  /// retry.
  Result<int64_t> ShipIngestBlock(uint64_t num_ops, std::string_view block);

  /// Commits everything this session staged; one outcome per staged op.
  Result<std::vector<ReuseOutcome>> Drain();

  /// A prov_query over the open store. With options.profile set and
  /// `profile_json` non-null, receives the server-side QueryProfile JSON.
  Result<BoxTable> Query(const std::vector<std::string>& path,
                         const BoxTable& query,
                         const QueryOptions& options = {},
                         std::string* profile_json = nullptr);

  /// Fire-and-forget, thread-safe: asks the server to cancel this
  /// session's in-flight request (no response frame).
  Status Cancel();

  /// Server + metrics snapshot as JSON.
  Result<std::string> ServerStats();

  /// Graceful goodbye (waits for ByeOk). The destructor just closes.
  Status Bye();

 private:
  DslogClient(int fd, ClientOptions options);

  /// One request/response round trip. Returns the response payload on
  /// `ok_opcode`; a decoded Status on kError/kOverloaded.
  Result<std::string> Roundtrip(Opcode opcode, std::string_view payload,
                                Opcode ok_opcode);
  Status SendFrame(Opcode opcode, uint32_t request_id,
                   std::string_view payload);
  Result<Frame> ReadFrame();

  int fd_;
  ClientOptions options_;
  HelloResponse hello_;
  FrameDecoder decoder_;
  uint32_t next_request_id_ = 1;
  /// Serializes writers (the requester thread vs. Cancel callers).
  std::mutex write_mu_;
};

/// Batched staged ingest over a client: Add() accretes each registration's
/// encoded form into a data block, shipped when either the op budget
/// (`max_block_ops`) or the byte budget (`data_block_bytes`) fills. Nothing
/// commits server-side until Drain().
class IngestHandle {
 public:
  explicit IngestHandle(DslogClient* client, uint64_t max_block_ops = 32,
                        int64_t data_block_bytes = 64 << 10)
      : client_(client),
        max_block_ops_(max_block_ops == 0 ? 1 : max_block_ops),
        data_block_bytes_(data_block_bytes) {}

  /// Stages one registration. Returns its index in the outcome vector of
  /// the next successful Drain() (ops added through this handle since its
  /// last successful Drain, counted from 0).
  Result<uint64_t> Add(const OperationRegistration& reg);

  /// Ships the partially filled data block, if any.
  Status Flush();

  /// Flush + server-side Drain: commits every staged op, one outcome each.
  Result<std::vector<ReuseOutcome>> Drain();

  /// Ops added locally since construction (shipped or not).
  int64_t ops_added() const { return ops_added_; }
  /// Data blocks shipped so far (round-trip count for tests).
  int64_t blocks_shipped() const { return blocks_shipped_; }

 private:
  DslogClient* client_;
  uint64_t max_block_ops_;
  int64_t data_block_bytes_;

  uint64_t ops_since_drain_ = 0;
  std::string block_;
  uint64_t ops_in_block_ = 0;
  int64_t ops_added_ = 0;
  int64_t blocks_shipped_ = 0;
};

}  // namespace net
}  // namespace dslog

#endif  // DSLOG_NET_CLIENT_H_
