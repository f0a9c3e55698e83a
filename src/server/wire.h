#ifndef PGLO_SERVER_WIRE_H_
#define PGLO_SERVER_WIRE_H_

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "lo/large_object.h"

namespace pglo {
namespace wire {

/// pglo-wire-v1 — the binary protocol between a pglo client and the socket
/// server (DESIGN.md §16).
///
/// Every message is one length-prefixed frame:
///
///   [u32 len][u8 type][payload: len-1 bytes]        (all little-endian)
///
/// `len` counts the type byte plus the payload, never the length word
/// itself, so the smallest legal frame (`len` = 1) is a bare type byte.
/// Within a payload:
///   - fixed-width integers are little-endian (u8/u32/u64/i64),
///   - strings and byte blobs are a u32 length followed by that many bytes.
///
/// The codec is strict in both directions: decode rejects unknown types,
/// over-long frames, payloads that run short, and payloads with trailing
/// bytes — each with a typed Status rather than a crash or an over-read —
/// and a frame truncated mid-header or mid-payload reports "need more
/// bytes" so a stream reader knows to keep reading rather than fail.
constexpr uint32_t kProtocolVersion = 1;

/// Hard ceiling on `len`. Bounds server-side allocation per frame before a
/// single payload byte is read: a LO_WRITE carrying 16 MiB of data fits,
/// a length word of garbage does not.
constexpr uint32_t kMaxFrameLen = (16u << 20) + 64;

/// Payload cap for one LO_READ/LO_WRITE data blob (16 MiB). Larger
/// transfers are client-side loops; bounding one frame bounds one buffer.
constexpr uint32_t kMaxDataBytes = 16u << 20;

enum class FrameType : uint8_t {
  // Client → server requests.
  kHello = 0x01,      ///< u32 version, string client_name
  kBye = 0x02,        ///< (empty) — polite disconnect; server replies kOk
  kBegin = 0x03,      ///< u64 as_of (0 = read-write transaction at now)
  kCommit = 0x04,     ///< (empty) → kU64Reply commit tick
  kAbort = 0x05,      ///< (empty) → kOk
  kLoCreate = 0x06,   ///< u8 kind, u8 smgr, u32 chunk, u32 max_seg, string codec
  kLoOpen = 0x07,     ///< u64 oid, u8 writable → kHandleReply
  kLoRead = 0x08,     ///< u32 handle, u32 n → kDataReply
  kLoWrite = 0x09,    ///< u32 handle, bytes data → kOk
  kLoSeek = 0x0A,     ///< u32 handle, i64 off, u8 whence → kU64Reply position
  kLoClose = 0x0B,    ///< u32 handle → kOk
  kInvCreate = 0x0C,  ///< string path, u8 kind, u8 smgr, u32 chunk, u32 max_seg, string codec → kU64Reply file id
  kInvOpen = 0x0D,    ///< string path, u8 writable → kHandleReply
  kInvMkdir = 0x0E,   ///< string path → kU64Reply file id
  kInvRemove = 0x0F,  ///< string path → kOk

  // Server → client replies.
  kHelloOk = 0x81,    ///< u32 version, u32 backend_id
  kReject = 0x82,     ///< u32 active, u32 max, string message (admission)
  kOk = 0x83,         ///< (empty)
  kU64Reply = 0x84,   ///< u64 value (oid / position / commit tick / file id)
  kHandleReply = 0x85,///< u32 handle
  kDataReply = 0x86,  ///< bytes data
  kError = 0x87,      ///< u8 StatusCode (never kOk), string message
};

/// True when `t` names a frame type the codec knows how to decode.
bool IsKnownFrameType(uint8_t t);
const char* FrameTypeName(FrameType t);

/// One decoded (or to-be-encoded) frame. A tagged bag of fields: which
/// fields are meaningful depends on `type` (see the enum comments). Unused
/// fields are value-initialized so frames compare equal field-by-field in
/// round-trip tests.
struct Frame {
  FrameType type = FrameType::kOk;

  uint32_t u32_a = 0;   ///< version / handle / active / n
  uint32_t u32_b = 0;   ///< backend_id / max / read size
  uint64_t u64 = 0;     ///< oid / as_of / value / file id
  int64_t i64 = 0;      ///< seek offset
  uint8_t u8_a = 0;     ///< kind / writable / whence / StatusCode
  uint8_t u8_b = 0;     ///< smgr
  uint32_t chunk_size = 0;
  uint32_t max_segment = 0;
  std::string text;     ///< client_name / codec / path / message
  Bytes data;           ///< LO_WRITE / DATA payload

  bool operator==(const Frame& o) const {
    return type == o.type && u32_a == o.u32_a && u32_b == o.u32_b &&
           u64 == o.u64 && i64 == o.i64 && u8_a == o.u8_a && u8_b == o.u8_b &&
           chunk_size == o.chunk_size && max_segment == o.max_segment &&
           text == o.text && data == o.data;
  }
  bool operator!=(const Frame& o) const { return !(*this == o); }
};

// --- convenience constructors -------------------------------------------

Frame MakeHello(const std::string& client_name);
Frame MakeHelloOk(uint32_t backend_id);
Frame MakeReject(uint32_t active, uint32_t max, const std::string& message);
Frame MakeBegin(uint64_t as_of = 0);
Frame MakeLoCreate(const LoSpec& spec);
Frame MakeLoOpen(uint64_t oid, bool writable);
Frame MakeLoRead(uint32_t handle, uint32_t n);
Frame MakeLoWrite(uint32_t handle, Slice data);
Frame MakeLoSeek(uint32_t handle, int64_t off, Whence whence);
Frame MakeHandleOp(FrameType type, uint32_t handle);  ///< kLoClose
Frame MakeInvCreate(const std::string& path, const LoSpec& spec);
Frame MakeInvOpen(const std::string& path, bool writable);
Frame MakePathOp(FrameType type, const std::string& path);  ///< mkdir/remove
Frame MakeU64Reply(uint64_t value);
Frame MakeDataReply(Bytes data);
Frame MakeError(const Status& error);

/// The LoSpec carried by a kLoCreate / kInvCreate frame.
LoSpec SpecOf(const Frame& f);
/// The Status carried by a kError frame.
Status ErrorOf(const Frame& f);

// --- codec ---------------------------------------------------------------

/// Serializes `f` as one complete frame (length word included).
Bytes EncodeFrame(const Frame& f);

/// Outcome of decoding a byte stream's prefix.
enum class DecodeOutcome {
  kFrame,     ///< one complete frame decoded; *consumed bytes were used
  kNeedMore,  ///< the buffer holds a truncated (but so far legal) frame
  kBadFrame,  ///< the bytes can never become a legal frame; see *error
};

/// Attempts to decode one frame from the front of `in`.
///
///   kFrame:    `*out` is the frame, `*consumed` the bytes it occupied.
///   kNeedMore: `*consumed` is 0; append more bytes and retry.
///   kBadFrame: `*error` is a typed decode error (kInvalidArgument for
///              structural violations, kNotSupported for unknown frame
///              types). The connection should be torn down: frame
///              boundaries are unrecoverable after a framing error.
///
/// Never reads beyond `in`, never throws, never crashes on adversarial
/// bytes — the wire fuzz test runs this under ASan against random input.
DecodeOutcome DecodeFrame(Slice in, Frame* out, size_t* consumed,
                          Status* error);

/// Strict payload decode used by DecodeFrame once framing is resolved:
/// `payload` is the frame body after the type byte. Exposed for tests.
Result<Frame> DecodePayload(FrameType type, Slice payload);

}  // namespace wire
}  // namespace pglo

#endif  // PGLO_SERVER_WIRE_H_
