// Frame fuzzer for the wire protocol: the server must fail CLOSED on
// anything that is not a well-formed frame -- truncated frames, single-bit
// corruption anywhere in the frame or its CRC footer, oversized body_len
// claims, response-flagged "requests" and raw garbage all drop the
// connection WITHOUT a response and WITHOUT taking the server down. The
// dual contract is also pinned: a frame that passes framing but carries a
// malformed body gets a first-class InvalidArgument response and the
// connection keeps serving.
//
// Everything here drives the real server over real sockets with hand-built
// byte buffers (net.h + protocol.h primitives) -- the same code paths a
// hostile peer would hit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/prng.h"

namespace rabitq {
namespace server {
namespace {

class ServerFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerConfig config;
    config.port = 0;
    // A short io timeout bounds how long the server waits for the rest of a
    // truncated frame -- the fuzz cases rely on it to observe the drop.
    config.io_timeout_ms = 100;
    server_ = std::make_unique<Server>(config);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_->Stop();
    server_->Wait();
  }

  std::uint16_t port() const { return server_->port(); }

  /// Sends raw bytes on a fresh connection and then reads. Returns true iff
  /// the server sent ANY byte back before closing. Write failures are fine
  /// (the server may legitimately drop us mid-send).
  bool SendRawAndGotResponse(const void* data, std::size_t len) {
    Socket socket;
    if (!ConnectTcp("127.0.0.1", port(), &socket).ok()) {
      ADD_FAILURE() << "server stopped accepting connections";
      return false;
    }
    (void)WriteFull(socket.fd(), data, len);
    std::uint8_t byte = 0;
    return ReadFull(socket.fd(), &byte, 1).ok();
  }

  /// Reads and validates one response frame off `fd`; returns false on any
  /// framing failure. On success `*body` holds the response payload.
  static bool ReadResponseFrame(int fd, FrameHeader* header,
                                std::vector<std::uint8_t>* body) {
    std::uint8_t head[kFrameHeaderSize];
    if (!ReadFull(fd, head, sizeof(head)).ok()) return false;
    if (!DecodeFrameHeader(head, header).ok()) return false;
    std::vector<std::uint8_t> frame(kFrameHeaderSize + header->body_len);
    std::memcpy(frame.data(), head, sizeof(head));
    if (header->body_len > 0 &&
        !ReadFull(fd, frame.data() + kFrameHeaderSize, header->body_len)
             .ok()) {
      return false;
    }
    std::uint8_t crc_bytes[4];
    if (!ReadFull(fd, crc_bytes, sizeof(crc_bytes)).ok()) return false;
    std::uint32_t crc = 0;
    std::memcpy(&crc, crc_bytes, sizeof(crc));
    if (!CheckFrameCrc(frame.data(), frame.size(), crc).ok()) return false;
    body->assign(frame.begin() + kFrameHeaderSize, frame.end());
    return true;
  }

  /// Sends one well-framed request and expects a first-class error status
  /// back on a connection that stays open.
  void ExpectErrorResponse(MsgType type, const std::string& body,
                           const char* what) {
    Socket socket;
    ASSERT_TRUE(ConnectTcp("127.0.0.1", port(), &socket).ok());
    std::string frame;
    EncodeFrame(static_cast<std::uint16_t>(type), 21, body, &frame);
    ASSERT_TRUE(WriteFull(socket.fd(), frame.data(), frame.size()).ok());
    FrameHeader header;
    std::vector<std::uint8_t> response;
    ASSERT_TRUE(ReadResponseFrame(socket.fd(), &header, &response))
        << what << " dropped the connection (or crashed the server)";
    WireReader r(response.data(), response.size());
    WireStatus status;
    ASSERT_TRUE(DecodeStatus(&r, &status)) << what;
    EXPECT_FALSE(status.ok()) << what;
  }

  /// The all-clear after a fuzzing pass: a real client still round-trips.
  void ExpectServerStillServes() {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok())
        << "server died under fuzzing";
    EXPECT_TRUE(client.Ping().ok());
    std::vector<std::string> names;
    EXPECT_TRUE(client.ListCollections(&names).ok());
  }

  std::unique_ptr<Server> server_;
};

/// A small, valid request frame with a non-empty body (stats for "x").
std::string ValidStatsFrame() {
  std::string body;
  WireWriter w(&body);
  w.String("x");
  w.U8(1);
  std::string frame;
  EncodeFrame(static_cast<std::uint16_t>(MsgType::kStats), 7, body, &frame);
  return frame;
}

TEST_F(ServerFuzzTest, TruncatedFramesGetNoResponse) {
  const std::string frame = ValidStatsFrame();
  // Cut inside the header, at the header boundary, inside the body and
  // inside the CRC footer.
  const std::size_t cuts[] = {1, 7, 19, 20, 23, frame.size() - 2};
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, frame.size());
    EXPECT_FALSE(SendRawAndGotResponse(frame.data(), cut))
        << "server answered a frame truncated at byte " << cut;
  }
  ExpectServerStillServes();
}

TEST_F(ServerFuzzTest, SingleBitCorruptionAnywhereGetsNoResponse) {
  const std::string frame = ValidStatsFrame();
  // One flip per byte covers every field: magic, version, type, request_id,
  // body_len, the body and the CRC footer itself. Every one must kill the
  // frame -- CRC-32 catches all single-bit errors, and the header fields it
  // protects are cross-checked before the body is even read.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::string corrupt = frame;
    corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << (i % 8)));
    EXPECT_FALSE(SendRawAndGotResponse(corrupt.data(), corrupt.size()))
        << "server answered a frame with bit " << (i % 8) << " of byte " << i
        << " flipped";
  }
  ExpectServerStillServes();
}

TEST_F(ServerFuzzTest, OversizedBodyLenIsRejectedBeforeAllocation) {
  // A header claiming a body far past kMaxFrameBody, followed by a little
  // garbage. The server must reject on the header alone -- never try to
  // read (or allocate) the claimed 2 GiB.
  std::string frame;
  {
    std::string valid;
    EncodeFrame(static_cast<std::uint16_t>(MsgType::kPing), 1, std::string(),
                &valid);
    frame.assign(valid, 0, kFrameHeaderSize);
  }
  const std::uint32_t huge = 0x7FFFFFFFu;
  std::memcpy(frame.data() + 16, &huge, sizeof(huge));
  frame.append(64, '\0');
  EXPECT_FALSE(SendRawAndGotResponse(frame.data(), frame.size()));
  ExpectServerStillServes();
}

TEST_F(ServerFuzzTest, ResponseFlaggedRequestIsDropped) {
  // A CRC-valid frame whose type claims to BE a response: nothing a client
  // should ever send, so the server drops it as a framing error.
  std::string frame;
  EncodeFrame(static_cast<std::uint16_t>(MsgType::kPing) | kResponseFlag, 1,
              std::string(), &frame);
  EXPECT_FALSE(SendRawAndGotResponse(frame.data(), frame.size()));
  ExpectServerStillServes();
}

TEST_F(ServerFuzzTest, RandomGarbageNeverElicitsAResponse) {
  Rng rng(123);
  for (int round = 0; round < 32; ++round) {
    std::vector<std::uint8_t> garbage(1 + rng.UniformInt(200));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.UniformInt(256));
    }
    EXPECT_FALSE(SendRawAndGotResponse(garbage.data(), garbage.size()))
        << "round " << round;
  }
  ExpectServerStillServes();
}

// The other half of the fail-closed contract: a frame that PASSES framing
// but carries a body the handler cannot parse is answered with a
// first-class InvalidArgument -- and the connection stays usable.
TEST_F(ServerFuzzTest, MalformedBodiesGetInvalidArgumentWithoutDropping) {
  const MsgType types[] = {MsgType::kCreateCollection, MsgType::kAdd,
                           MsgType::kDelete, MsgType::kUpdate,
                           MsgType::kSearch, MsgType::kBatchSearch,
                           MsgType::kSnapshot, MsgType::kStats};
  Socket socket;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", port(), &socket).ok());
  std::uint64_t request_id = 1;
  Rng rng(7);
  for (const MsgType type : types) {
    std::string body(1 + rng.UniformInt(32), '\0');
    for (auto& c : body) {
      c = static_cast<char>(rng.UniformInt(256));
    }
    std::string frame;
    EncodeFrame(static_cast<std::uint16_t>(type), request_id, body, &frame);
    ASSERT_TRUE(WriteFull(socket.fd(), frame.data(), frame.size()).ok());

    FrameHeader header;
    std::vector<std::uint8_t> response;
    ASSERT_TRUE(ReadResponseFrame(socket.fd(), &header, &response))
        << MsgTypeName(type) << " with a garbage body dropped the connection";
    EXPECT_EQ(header.type, static_cast<std::uint16_t>(type) | kResponseFlag);
    EXPECT_EQ(header.request_id, request_id);
    WireReader r(response.data(), response.size());
    WireStatus status;
    ASSERT_TRUE(DecodeStatus(&r, &status));
    // Usually InvalidArgument ("malformed ... body"); garbage that happens
    // to parse as a valid shape may earn NotFound instead. Either way it is
    // a first-class error RESPONSE, never a success and never a drop.
    EXPECT_FALSE(status.ok()) << MsgTypeName(type);
    ++request_id;
  }

  // A well-formed search whose only defect is its policy byte: past kNone
  // the body is malformed (InvalidArgument), never silently served under
  // another policy. kNone itself decodes and reaches the collection lookup.
  for (const std::uint8_t policy :
       {std::uint8_t{2}, std::uint8_t{3}, std::uint8_t{255}}) {
    std::string body;
    WireWriter w(&body);
    w.String("no_such_collection");
    WireSearchOptions options;
    options.policy = policy;
    EncodeSearchOptions(options, &w);
    const float query = 0.0f;
    w.U32(1);
    w.Floats(&query, 1);
    std::string frame;
    EncodeFrame(static_cast<std::uint16_t>(MsgType::kSearch), request_id,
                body, &frame);
    ASSERT_TRUE(WriteFull(socket.fd(), frame.data(), frame.size()).ok());
    FrameHeader header;
    std::vector<std::uint8_t> response;
    ASSERT_TRUE(ReadResponseFrame(socket.fd(), &header, &response))
        << "policy " << int{policy} << " dropped the connection";
    WireReader r(response.data(), response.size());
    WireStatus status;
    ASSERT_TRUE(DecodeStatus(&r, &status));
    EXPECT_EQ(status.ToStatus().code(), policy <= 2
                                            ? StatusCode::kNotFound
                                            : StatusCode::kInvalidArgument)
        << "policy " << int{policy};
    ++request_id;
  }

  // Unknown message types are likewise answered, not dropped.
  std::string frame;
  EncodeFrame(/*type=*/999, request_id, std::string(), &frame);
  ASSERT_TRUE(WriteFull(socket.fd(), frame.data(), frame.size()).ok());
  FrameHeader header;
  std::vector<std::uint8_t> response;
  ASSERT_TRUE(ReadResponseFrame(socket.fd(), &header, &response));
  WireReader r(response.data(), response.size());
  WireStatus status;
  ASSERT_TRUE(DecodeStatus(&r, &status));
  EXPECT_EQ(status.ToStatus().code(), StatusCode::kUnimplemented);

  // Same connection, still alive: a valid ping round-trips on it.
  std::string ping;
  EncodeFrame(static_cast<std::uint16_t>(MsgType::kPing), ++request_id,
              std::string(), &ping);
  ASSERT_TRUE(WriteFull(socket.fd(), ping.data(), ping.size()).ok());
  ASSERT_TRUE(ReadResponseFrame(socket.fd(), &header, &response));
  WireReader pr(response.data(), response.size());
  ASSERT_TRUE(DecodeStatus(&pr, &status));
  EXPECT_TRUE(status.ok());
}

// Integer-overflow probes: size arithmetic on attacker-controlled counts
// must be overflow-safe, not just bounds-checked. Each case below is a
// frame that previously multiplied or added its way past a check.

TEST_F(ServerFuzzTest, CreateWithOverflowingSizeClaimIsRejected) {
  // rows = dim = 2^31: rows * dim * sizeof(float) wraps uint64 to 0, which
  // an equality check against an empty remainder would wave through -- and
  // the handler would then attempt a ~2^62-float allocation.
  std::string body;
  WireWriter w(&body);
  w.String("c");
  WireCollectionSpec spec;
  spec.dim = 1u << 31;
  EncodeCollectionSpec(spec, &w);
  w.U32(1u << 31);  // rows
  ExpectErrorResponse(MsgType::kCreateCollection, body,
                      "create with wrapping rows*dim");
  ExpectServerStillServes();
}

TEST_F(ServerFuzzTest, BatchSearchWithOverflowingSizeClaimIsRejected) {
  std::string body;
  WireWriter w(&body);
  w.String("c");
  EncodeSearchOptions(WireSearchOptions{}, &w);
  w.U32(1u << 31);  // num
  w.U32(1u << 31);  // dim
  ExpectErrorResponse(MsgType::kBatchSearch, body,
                      "batch_search with wrapping num*dim");
  ExpectServerStillServes();
}

TEST_F(ServerFuzzTest, SearchWithOverflowingFilterRangeIsRejected) {
  // filter_num_ids near 2^64 makes (num_ids + 63) / 64 wrap to 0, so a
  // zero-word bitmap used to satisfy the coverage check and hand the engine
  // a null bitmap claiming to span every id.
  std::string body;
  WireWriter w(&body);
  w.String("c");
  WireSearchOptions options;
  options.filter_kind = 1;
  options.filter_num_ids = std::numeric_limits<std::uint64_t>::max();
  EncodeSearchOptions(options, &w);
  w.U32(0);  // dim (never reached; the options decode must fail first)
  ExpectErrorResponse(MsgType::kSearch, body,
                      "search with wrapping filter_num_ids");
  ExpectServerStillServes();
}

TEST(ServerFrameBudgetTest, ClaimsPastTheFrameMemoryBudgetAreDropped) {
  // A tiny budget: any frame claiming a body larger than it is refused
  // BEFORE the body is buffered (the connection drops, the server lives),
  // while small frames keep round-tripping.
  ServerConfig config;
  config.port = 0;
  config.io_timeout_ms = 100;
  config.frame_memory_budget = 1024;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());

  std::string frame;
  EncodeFrame(static_cast<std::uint16_t>(MsgType::kStats), 3,
              std::string(64 * 1024, 'x'), &frame);
  Socket socket;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", server.port(), &socket).ok());
  (void)WriteFull(socket.fd(), frame.data(), frame.size());
  std::uint8_t byte = 0;
  EXPECT_FALSE(ReadFull(socket.fd(), &byte, 1).ok())
      << "server buffered a body past its frame memory budget";

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
  server.Wait();
}

// WireReader itself must never read out of bounds on adversarial payload
// decodes -- the decoders reject short buffers instead of trusting length
// prefixes (ASan in the sanitize job backs this assertion).
TEST(ServerProtocolFuzzTest, DecodersRejectTruncatedPayloads) {
  // A valid search-options payload, truncated at every length.
  WireSearchOptions options;
  options.k = 5;
  options.seed = 42;
  options.filter_kind = 1;
  options.filter_num_ids = 64;
  options.filter_words = {0xDEADBEEFu};
  std::string payload;
  WireWriter w(&payload);
  EncodeSearchOptions(options, &w);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    WireReader r(reinterpret_cast<const std::uint8_t*>(payload.data()), len);
    WireSearchOptions decoded;
    EXPECT_FALSE(DecodeSearchOptions(&r, &decoded)) << "len " << len;
  }
  // The full payload decodes; a bitmap word-count lie does not.
  {
    WireReader r(reinterpret_cast<const std::uint8_t*>(payload.data()),
                 payload.size());
    WireSearchOptions decoded;
    EXPECT_TRUE(DecodeSearchOptions(&r, &decoded));
    EXPECT_EQ(decoded.filter_words, options.filter_words);
  }

  // Same drill for the response decoder.
  SearchResponse response;
  response.status = Status::Ok();
  response.neighbors = {{0.5f, 3}};
  std::string resp_payload;
  WireWriter rw(&resp_payload);
  EncodeSearchResponse(response, &rw);
  for (std::size_t len = 0; len < resp_payload.size(); ++len) {
    WireReader r(reinterpret_cast<const std::uint8_t*>(resp_payload.data()),
                 len);
    SearchResponse decoded;
    EXPECT_FALSE(DecodeSearchResponse(&r, &decoded)) << "len " << len;
  }
}

}  // namespace
}  // namespace server
}  // namespace rabitq
