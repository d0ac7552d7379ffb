// Message transport for the replicated bulletin board: length-prefixed
// framing over an abstract bidirectional channel.
//
// Wire frame (little-endian, docs/REPLICATION.md "Wire framing"):
//
//   u32 frame_len | u16 type | payload (frame_len - 2 bytes)
//
// frame_len counts everything after the length word, so a reader can pull a
// whole message with two exact reads. Frames are capped at kMaxFrameBytes —
// a peer announcing a larger frame is rejected before any allocation it
// names (the same attacker-length rule the ledger frame parser follows).
//
// Two backends implement Channel:
//  * LoopbackNetwork (src/net/loopback.h) — deterministic in-process pairs:
//    byte-reproducible queues, VirtualClock latency modeling, and the
//    faults::kNetSend / faults::kNetRecv fault points for drop/corrupt/delay
//    drills. Replication tests and the fig_replication bench run on this.
//  * SocketChannel/SocketListener (src/net/socket.h) — blocking POSIX
//    AF_UNIX stream sockets for real multi-process deployments.
//
// Error contract: transport failures are Status values with transport codes —
// kUnavailable (peer gone/channel closed), kTimeout (nothing arrived in
// time), kCorrupted (undecodable frame) — never exceptions, so replication
// retry logic can branch on the class (docs/ROBUSTNESS.md §Status codes).
#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/common/bytes.h"
#include "src/common/outcome.h"
#include "src/common/status.h"

namespace votegral {

// One framed message: a type tag (protocol-defined, see
// src/replica/messages.h) and an opaque payload.
struct WireMessage {
  uint16_t type = 0;
  Bytes payload;
};

// Hard upper bound on one frame's encoded size (length word excluded). Large
// enough for a full segment of ballot frames plus headroom; small enough
// that a malicious length cannot balloon a reader's allocation.
inline constexpr size_t kMaxFrameBytes = 8u << 20;  // 8 MiB

// Encodes `msg` as one wire frame (length word included). Require()s the
// payload fits kMaxFrameBytes.
Bytes EncodeFrame(const WireMessage& msg);

// Decodes one complete frame (exactly as produced by EncodeFrame). Fails
// with kCorrupted on truncation, trailing bytes, or an implausible length.
Outcome<WireMessage> DecodeFrame(std::span<const uint8_t> frame);

// A bidirectional, ordered, reliable-unless-faulted message channel. Send
// and Recv may be called from different threads; neither is reentrant.
class Channel {
 public:
  virtual ~Channel() = default;

  // Queues/writes one message. Fails kUnavailable once the channel is
  // closed (either side), kTimeout when an injected fault ate the message.
  virtual Status Send(const WireMessage& msg) = 0;

  // Blocks for the next message. Fails kUnavailable on close, kTimeout when
  // nothing arrived within the backend's receive deadline, kCorrupted when
  // the arriving frame does not decode.
  virtual Outcome<WireMessage> Recv() = 0;

  // Closes both directions; pending and future Recv()s fail kUnavailable.
  virtual void Close() = 0;

  // Human-readable endpoint description ("loopback:3", "unix:/tmp/...").
  virtual std::string Describe() const = 0;
};

}  // namespace votegral

#endif  // SRC_NET_TRANSPORT_H_
