// Wire protocol of the network server: a small length-prefixed binary
// framing with CRC-32 integrity (util/crc32.h), plus the encode/decode
// routines for every message the server speaks. Pure byte-shuffling -- no
// sockets here (net.h owns IO), so the frame fuzzer and the client library
// exercise exactly the code the server parses with.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//        0     4  magic      0x57514252 ("RBQW")
//        4     2  version    kProtocolVersion (2)
//        6     2  type       MsgType; responses set kResponseFlag (0x8000)
//        8     8  request_id echoed verbatim in the response
//       16     4  body_len   payload bytes that follow (<= kMaxFrameBody)
//       20   len  body
//   20+len     4  crc32      CRC-32 over bytes [0, 20+len)
//
// Every decode is bounds-checked and fails CLOSED: a bad magic, an
// unsupported version, an oversized body_len or a CRC mismatch is a framing
// error -- the server drops the connection without allocating for the
// payload, mirroring how the snapshot loaders reject corrupt headers before
// reconstruction. Payload decoding (WireReader) likewise never reads past
// the frame and rejects trailing garbage where noted.
//
// Response bodies all begin with a WireStatus (u16 StatusCode + message), so
// engine outcomes -- kResourceExhausted at admission, kDeadlineExceeded with
// partial results, per-shard degradation -- cross the wire as first-class
// protocol status codes rather than a collapsed "error" byte.

#ifndef RABITQ_SERVER_PROTOCOL_H_
#define RABITQ_SERVER_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/metric.h"
#include "index/search_types.h"
#include "util/status.h"

namespace rabitq {
namespace server {

inline constexpr std::uint32_t kFrameMagic = 0x57514252u;  // "RBQW"
/// Version 2 dropped the search options' estimator-choice byte.
inline constexpr std::uint16_t kProtocolVersion = 2;
inline constexpr std::size_t kFrameHeaderSize = 20;
/// Hard cap on one frame's payload. Large enough for a create_collection
/// carrying a training set (rows * dim floats); small enough that a
/// corrupted body_len cannot drive a giant allocation.
inline constexpr std::uint32_t kMaxFrameBody = 256u << 20;  // 256 MiB
/// Responses OR this into the request's type.
inline constexpr std::uint16_t kResponseFlag = 0x8000;

enum class MsgType : std::uint16_t {
  kPing = 1,
  kCreateCollection = 2,
  kDropCollection = 3,
  kAdd = 4,
  kDelete = 5,
  kUpdate = 6,
  kSearch = 7,
  kBatchSearch = 8,
  kSnapshot = 9,
  kRestore = 10,
  kStats = 11,
  kListCollections = 12,
  kDrain = 13,
};

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t type = 0;
  std::uint64_t request_id = 0;
  std::uint32_t body_len = 0;
};

// ---------------------------------------------------------------- framing --

/// Serializes header + body + CRC-32 footer into `*out` (replaced).
void EncodeFrame(std::uint16_t type, std::uint64_t request_id,
                 const std::string& body, std::string* out);

/// Parses and validates the fixed-size header prefix (magic, version,
/// body_len cap). `buf` must hold kFrameHeaderSize bytes.
Status DecodeFrameHeader(const std::uint8_t* buf, FrameHeader* header);

/// Validates the CRC-32 footer of a fully read frame: `frame` holds header +
/// body (kFrameHeaderSize + header.body_len bytes) and `crc` is the footer
/// word read after it.
Status CheckFrameCrc(const std::uint8_t* frame, std::size_t frame_len,
                     std::uint32_t crc);

// ------------------------------------------------------- wire primitives --

/// Append-only little-endian encoder over a std::string.
class WireWriter {
 public:
  explicit WireWriter(std::string* out) : out_(out) {}

  void U8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(std::uint16_t v) { AppendLE(&v, sizeof(v)); }
  void U32(std::uint32_t v) { AppendLE(&v, sizeof(v)); }
  void U64(std::uint64_t v) { AppendLE(&v, sizeof(v)); }
  void F32(float v) { AppendLE(&v, sizeof(v)); }
  /// u32 length prefix + raw bytes.
  void String(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    out_->append(s);
  }
  void Floats(const float* v, std::size_t n) { AppendLE(v, n * sizeof(float)); }
  void U64s(const std::uint64_t* v, std::size_t n) {
    AppendLE(v, n * sizeof(std::uint64_t));
  }

 private:
  // Little-endian host assumed (x86/aarch64 targets); memcpy keeps it UB-free.
  void AppendLE(const void* p, std::size_t n) {
    out_->append(static_cast<const char*>(p), n);
  }
  std::string* out_;
};

/// Bounds-checked little-endian decoder. Every Read* returns false (and
/// poisons the reader) on underrun; callers bail on the first failure.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}

  bool U8(std::uint8_t* v) { return Copy(v, sizeof(*v)); }
  bool U16(std::uint16_t* v) { return Copy(v, sizeof(*v)); }
  bool U32(std::uint32_t* v) { return Copy(v, sizeof(*v)); }
  bool U64(std::uint64_t* v) { return Copy(v, sizeof(*v)); }
  bool F32(float* v) { return Copy(v, sizeof(*v)); }
  bool String(std::string* s);
  /// Reads exactly `n` floats into `*v` (resized).
  bool Floats(std::vector<float>* v, std::size_t n);
  bool U64s(std::vector<std::uint64_t>* v, std::size_t n);

  std::size_t remaining() const { return ok_ ? len_ - pos_ : 0; }
  bool ok() const { return ok_; }
  /// True when the payload was consumed exactly -- decoders that demand no
  /// trailing garbage end with this.
  bool AtEnd() const { return ok_ && pos_ == len_; }

 private:
  bool Copy(void* dst, std::size_t n) {
    if (!ok_ || len_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ------------------------------------------------------------- payloads ---

/// Status as it crosses the wire. Codes map 1:1 onto util/status.h's
/// StatusCode (values are part of the protocol; see docs/PROTOCOL.md).
struct WireStatus {
  std::uint16_t code = 0;
  std::string message;

  static WireStatus FromStatus(const Status& s);
  Status ToStatus() const;
  bool ok() const { return code == 0; }
};

void EncodeStatus(const WireStatus& s, WireWriter* w);
bool DecodeStatus(WireReader* r, WireStatus* s);

/// Per-collection configuration, fixed at create time.
struct WireCollectionSpec {
  std::uint32_t dim = 0;
  Metric metric = Metric::kL2;
  std::uint8_t bits_per_dim = 1;
  std::uint32_t num_shards = 1;
  std::uint32_t num_lists = 64;
};

void EncodeCollectionSpec(const WireCollectionSpec& spec, WireWriter* w);
bool DecodeCollectionSpec(WireReader* r, WireCollectionSpec* spec);

/// SearchOptions as they cross the wire. Owns its filter bitmap (an IdFilter
/// is a non-owning view; the decoded copy must outlive the search).
/// Predicate filters cannot cross the wire -- only bitmap kinds encode.
struct WireSearchOptions {
  std::uint64_t k = 100;
  std::uint64_t nprobe = 16;
  std::uint8_t policy = 0;  // RerankPolicy; decode rejects values past kNone
  std::uint64_t rerank_candidates = 1000;
  float epsilon0_override = -1.0f;
  std::optional<std::uint64_t> seed;
  std::uint64_t timeout_us = 0;
  // Filter: 0 = none, 1 = allow bitmap, 2 = deny bitmap.
  std::uint8_t filter_kind = 0;
  std::uint64_t filter_num_ids = 0;
  std::vector<std::uint64_t> filter_words;

  /// Captures everything encodable from `options`. Fails (InvalidArgument)
  /// on a predicate filter -- a function pointer has no wire form.
  static Status FromOptions(const SearchOptions& options,
                            WireSearchOptions* out);
  /// Materializes engine-facing options. The returned options' filter VIEW
  /// points into this object's filter_words -- keep it alive for the search.
  SearchOptions ToOptions() const;
};

void EncodeSearchOptions(const WireSearchOptions& o, WireWriter* w);
bool DecodeSearchOptions(WireReader* r, WireSearchOptions* o);

/// One query outcome as it crosses the wire: the engine's SearchResponse
/// minus the non-portable bits (health sums ride the stats endpoint).
void EncodeSearchResponse(const SearchResponse& resp, WireWriter* w);
bool DecodeSearchResponse(WireReader* r, SearchResponse* resp);
/// Decodes everything AFTER the leading WireStatus (which the caller has
/// already consumed -- request-level rejections are a bare status, so the
/// client peeks the status before committing to the full shape).
bool DecodeSearchResponseTail(WireReader* r, SearchResponse* resp);

const char* MsgTypeName(MsgType t);

}  // namespace server
}  // namespace rabitq

#endif  // RABITQ_SERVER_PROTOCOL_H_
