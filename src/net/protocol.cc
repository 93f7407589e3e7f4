#include "net/protocol.h"

#include "compress/varint.h"

namespace dslog {
namespace net {

namespace {

// An operation touches a handful of arrays; a forged input count cannot be
// legitimate past this.
constexpr uint64_t kMaxWireInputs = 64;

bool AtEnd(std::string_view payload, size_t pos) {
  return pos == payload.size();
}

}  // namespace

std::string HelloRequest::Encode() const {
  std::string p;
  PutFixed32(&p, magic);
  PutFixed32(&p, version);
  PutString(&p, client_name);
  return p;
}

bool HelloRequest::Decode(std::string_view payload, HelloRequest* out) {
  size_t pos = 0;
  return GetFixed32(payload, &pos, &out->magic) &&
         GetFixed32(payload, &pos, &out->version) &&
         GetString(payload, &pos, &out->client_name) && AtEnd(payload, pos);
}

std::string HelloResponse::Encode() const {
  std::string p;
  PutFixed32(&p, version);
  PutString(&p, server_name);
  PutVarint64(&p, static_cast<uint64_t>(max_frame_bytes));
  return p;
}

bool HelloResponse::Decode(std::string_view payload, HelloResponse* out) {
  size_t pos = 0;
  uint64_t max_frame = 0;
  if (!GetFixed32(payload, &pos, &out->version) ||
      !GetString(payload, &pos, &out->server_name) ||
      !GetVarint64(payload, &pos, &max_frame) || !AtEnd(payload, pos)) {
    return false;
  }
  out->max_frame_bytes = static_cast<int64_t>(max_frame);
  return true;
}

std::string OpenStoreRequest::Encode() const {
  std::string p;
  PutString(&p, store);
  PutBool(&p, create);
  return p;
}

bool OpenStoreRequest::Decode(std::string_view payload, OpenStoreRequest* out) {
  size_t pos = 0;
  return GetString(payload, &pos, &out->store) &&
         GetBool(payload, &pos, &out->create) && AtEnd(payload, pos);
}

std::string DefineArrayRequest::Encode() const {
  std::string p;
  PutString(&p, name);
  PutInt64Vector(&p, shape);
  return p;
}

bool DefineArrayRequest::Decode(std::string_view payload,
                                DefineArrayRequest* out) {
  size_t pos = 0;
  return GetString(payload, &pos, &out->name) &&
         GetInt64Vector(payload, &pos, &out->shape) && AtEnd(payload, pos);
}

void AppendWireOperation(std::string* dst, const OperationRegistration& reg) {
  PutString(dst, reg.op_name);
  PutVarint64(dst, reg.in_arrs.size());
  for (const std::string& a : reg.in_arrs) PutString(dst, a);
  PutString(dst, reg.out_arr);
  PutVarint64(dst, reg.captured.size());
  for (const LineageRelation& rel : reg.captured) PutLineageRelation(dst, rel);
  reg.args.AppendTo(dst);
  PutFixed64(dst, reg.content_hash);
  PutBool(dst, reg.reuse);
}

bool GetWireOperation(std::string_view src, size_t* pos,
                      OperationRegistration* out) {
  OperationRegistration& reg = *out;
  reg = OperationRegistration();
  if (!GetString(src, pos, &reg.op_name)) return false;
  uint64_t n_in = 0;
  if (!GetVarint64(src, pos, &n_in)) return false;
  if (n_in > kMaxWireInputs) return false;
  reg.in_arrs.resize(n_in);
  for (uint64_t i = 0; i < n_in; ++i) {
    if (!GetString(src, pos, &reg.in_arrs[i])) return false;
  }
  if (!GetString(src, pos, &reg.out_arr)) return false;
  uint64_t n_cap = 0;
  if (!GetVarint64(src, pos, &n_cap)) return false;
  if (n_cap > kMaxWireInputs) return false;
  reg.captured.resize(n_cap);
  for (uint64_t i = 0; i < n_cap; ++i) {
    if (!GetLineageRelation(src, pos, &reg.captured[i])) return false;
  }
  if (!reg.args.ParseFrom(src, pos)) return false;
  if (!GetFixed64(src, pos, &reg.content_hash)) return false;
  return GetBool(src, pos, &reg.reuse);
}

std::string IngestBatchRequest::Encode() const {
  std::string p;
  PutVarint64(&p, ops.size());
  for (const OperationRegistration& op : ops) AppendWireOperation(&p, op);
  return p;
}

bool IngestBatchRequest::Decode(std::string_view payload,
                                IngestBatchRequest* out) {
  size_t pos = 0;
  uint64_t n = 0;
  if (!GetVarint64(payload, &pos, &n)) return false;
  if (n > payload.size() - pos) return false;
  // Decode incrementally: an operation is hundreds of bytes in memory
  // but can be forged in ~1 wire byte, so an up-front resize(n) would let
  // one frame balloon an allocation ~200x past the payload it carries.
  out->ops.clear();
  for (uint64_t i = 0; i < n; ++i) {
    out->ops.emplace_back();
    if (!GetWireOperation(payload, &pos, &out->ops.back())) return false;
  }
  return AtEnd(payload, pos);
}

std::string IngestBatchResponse::Encode() const {
  std::string p;
  PutVarint64(&p, static_cast<uint64_t>(staged));
  return p;
}

bool IngestBatchResponse::Decode(std::string_view payload,
                                 IngestBatchResponse* out) {
  size_t pos = 0;
  uint64_t staged = 0;
  if (!GetVarint64(payload, &pos, &staged) || !AtEnd(payload, pos))
    return false;
  out->staged = static_cast<int64_t>(staged);
  return true;
}

std::string DrainResponse::Encode() const {
  std::string p;
  PutVarint64(&p, outcomes.size());
  for (const ReuseOutcome& o : outcomes) {
    p.push_back(static_cast<char>((o.base_hit ? 1 : 0) | (o.dim_hit ? 2 : 0) |
                                  (o.gen_hit ? 4 : 0)));
  }
  return p;
}

bool DrainResponse::Decode(std::string_view payload, DrainResponse* out) {
  size_t pos = 0;
  uint64_t n = 0;
  if (!GetVarint64(payload, &pos, &n)) return false;
  if (n != payload.size() - pos) return false;
  out->outcomes.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint8_t bits = static_cast<uint8_t>(payload[pos++]);
    if (bits > 7) return false;
    out->outcomes[i].base_hit = (bits & 1) != 0;
    out->outcomes[i].dim_hit = (bits & 2) != 0;
    out->outcomes[i].gen_hit = (bits & 4) != 0;
  }
  return true;
}

std::string QueryRequest::Encode() const {
  std::string p;
  PutVarint64(&p, path.size());
  for (const std::string& a : path) PutString(&p, a);
  PutBoxTable(&p, query);
  PutQueryOptions(&p, options);
  return p;
}

bool QueryRequest::Decode(std::string_view payload, QueryRequest* out) {
  size_t pos = 0;
  uint64_t n = 0;
  if (!GetVarint64(payload, &pos, &n)) return false;
  if (n > payload.size() - pos) return false;
  // push_back, not resize(n): a forged count must not allocate 32x the
  // bytes actually present (sizeof(std::string) per 1-byte wire entry).
  out->path.clear();
  for (uint64_t i = 0; i < n; ++i) {
    std::string elem;
    if (!GetString(payload, &pos, &elem)) return false;
    out->path.push_back(std::move(elem));
  }
  return GetBoxTable(payload, &pos, &out->query) &&
         GetQueryOptions(payload, &pos, &out->options) && AtEnd(payload, pos);
}

std::string QueryResponse::Encode() const {
  std::string p;
  PutBoxTable(&p, result);
  PutString(&p, profile_json);
  return p;
}

bool QueryResponse::Decode(std::string_view payload, QueryResponse* out) {
  size_t pos = 0;
  return GetBoxTable(payload, &pos, &out->result) &&
         GetString(payload, &pos, &out->profile_json) && AtEnd(payload, pos);
}

std::string StatsResponse::Encode() const {
  std::string p;
  PutString(&p, json);
  return p;
}

bool StatsResponse::Decode(std::string_view payload, StatsResponse* out) {
  size_t pos = 0;
  return GetString(payload, &pos, &out->json) && AtEnd(payload, pos);
}

std::string EncodeStatusPayload(const Status& status) {
  std::string p;
  PutStatus(&p, status);
  return p;
}

Status DecodeStatusPayload(std::string_view payload) {
  size_t pos = 0;
  Status status;
  if (!GetStatus(payload, &pos, &status) || pos != payload.size())
    return Status::Internal("malformed error payload from peer");
  return status;
}

}  // namespace net
}  // namespace dslog
