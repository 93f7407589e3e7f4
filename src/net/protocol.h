// Message structs of the lineage-service protocol: the typed payloads that
// travel inside wire.h frames. Every request struct pairs with a response
// struct (or an empty-payload Ok); kError / kOverloaded frames carry an
// encoded Status instead.
//
// Decode() is strict: it must consume the payload exactly — trailing bytes
// fail, so a frame whose opcode and payload disagree is a typed protocol
// error rather than silently half-parsed.

#ifndef DSLOG_NET_PROTOCOL_H_
#define DSLOG_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"
#include "query/box.h"
#include "query/query_engine.h"
#include "storage/dslog.h"
#include "storage/signatures.h"

namespace dslog {
namespace net {

/// kHello — must be the first frame of a session.
struct HelloRequest {
  uint32_t magic = kMagic;
  uint32_t version = kProtocolVersion;
  std::string client_name;

  std::string Encode() const;
  static bool Decode(std::string_view payload, HelloRequest* out);
};

/// kHelloOk.
struct HelloResponse {
  uint32_t version = kProtocolVersion;
  std::string server_name;
  int64_t max_frame_bytes = kDefaultMaxFrameBytes;

  std::string Encode() const;
  static bool Decode(std::string_view payload, HelloResponse* out);
};

/// kOpenStore — binds the session to one tenant store namespace. Response
/// is an empty kOpenStoreOk. Rejected while the session holds staged
/// (undrained) ingest.
struct OpenStoreRequest {
  std::string store;
  /// Create the namespace if absent (subject to the server's
  /// allow_create_store policy).
  bool create = true;

  std::string Encode() const;
  static bool Decode(std::string_view payload, OpenStoreRequest* out);
};

/// kDefineArray — response is an empty kDefineArrayOk.
struct DefineArrayRequest {
  std::string name;
  std::vector<int64_t> shape;

  std::string Encode() const;
  static bool Decode(std::string_view payload, DefineArrayRequest* out);
};

/// Appends the encoding of one operation of an ingest data block (the full
/// registration: captured lineage travels on the wire) to `dst` — exposed
/// separately so the client's IngestHandle can accrete a data block
/// op-by-op without re-encoding the batch at ship time.
void AppendWireOperation(std::string* dst, const OperationRegistration& reg);
bool GetWireOperation(std::string_view src, size_t* pos,
                      OperationRegistration* out);

/// kIngestBatch — ships one data block of operations, staged server-side
/// in order (session-owned StagedIngest; nothing commits until kDrain).
/// On a mid-batch staging error the earlier operations of the block remain
/// staged; the error response tells the client which op failed.
struct IngestBatchRequest {
  std::vector<OperationRegistration> ops;

  std::string Encode() const;
  static bool Decode(std::string_view payload, IngestBatchRequest* out);
};

/// kIngestBatchOk.
struct IngestBatchResponse {
  /// Total operations staged on the session (across all batches) and not
  /// yet drained.
  int64_t staged = 0;

  std::string Encode() const;
  static bool Decode(std::string_view payload, IngestBatchResponse* out);
};

/// kDrainOk — one outcome per staged operation, in Add() order.
struct DrainResponse {
  std::vector<ReuseOutcome> outcomes;

  std::string Encode() const;
  static bool Decode(std::string_view payload, DrainResponse* out);
};

/// kQuery — a prov_query over the session's open store.
struct QueryRequest {
  std::vector<std::string> path;
  BoxTable query;
  QueryOptions options;

  std::string Encode() const;
  static bool Decode(std::string_view payload, QueryRequest* out);
};

/// kQueryOk.
struct QueryResponse {
  BoxTable result;
  /// QueryProfile::ToJson() when the request set options.profile; empty
  /// otherwise.
  std::string profile_json;

  std::string Encode() const;
  static bool Decode(std::string_view payload, QueryResponse* out);
};

/// kStatsOk — server + metrics-registry snapshot as one JSON object.
struct StatsResponse {
  std::string json;

  std::string Encode() const;
  static bool Decode(std::string_view payload, StatsResponse* out);
};

/// Builds the payload of a kError / kOverloaded frame.
std::string EncodeStatusPayload(const Status& status);
/// Decodes one; a malformed payload yields an Internal status (the caller
/// still learns the request failed).
Status DecodeStatusPayload(std::string_view payload);

}  // namespace net
}  // namespace dslog

#endif  // DSLOG_NET_PROTOCOL_H_
