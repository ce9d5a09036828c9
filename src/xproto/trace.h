// Deterministic session traces (docs/PROTOCOL.md, "Trace format").
//
// A trace is the complete external stimulus of a server session — client
// connections, request bytes exactly as the parser saw them (including any
// fault-mutated garbage), simulated input, and harness checkpoints — in a
// length-prefixed binary format.  Replaying a trace against a fresh
// server+WM re-drives the session; because the server and WM are themselves
// deterministic, two replays of the same trace produce identical state, which
// is what makes captured chaos-seed traces usable as a regression corpus and
// lets identical traffic be benchmarked against old and new builds.
//
// Trace files are untrusted input: the reader is bounds-checked the same way
// the wire decoder is, and a corrupt file yields a ParseError, not UB.
#ifndef SRC_XPROTO_TRACE_H_
#define SRC_XPROTO_TRACE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/xproto/types.h"
#include "src/xproto/wire.h"

namespace xproto {

inline constexpr uint8_t kTraceMagic[4] = {'S', 'W', 'M', 'T'};
// Version 2 added kReply records (the server's honest outbound reply bytes,
// captured before any transport fault touches them).  Version 3 traces
// carry client-chosen window ids: the CreateWindow frame names the new
// window and the QueryScreens reply carries the id base and mask.  Only the
// current version is read; an older trace is a version error.
inline constexpr uint32_t kTraceVersion = 3;
// Hard cap on one record's payload (a request buffer, a machine name...).
inline constexpr size_t kMaxTraceRecordBytes = 1 << 20;

enum class TraceRecordType : uint8_t {
  kConnect = 1,     // client id + machine string.
  kDisconnect = 2,  // client id.
  kRequest = 3,     // client id + raw request bytes (one DispatchBytes call).
  kMotion = 4,      // pointer motion to (x, y).
  kButton = 5,      // button press/release + modifiers.
  kKey = 6,         // keysym press/release + modifiers.
  kWarp = 7,        // pointer warp: screen + (x, y).
  kPump = 8,        // harness checkpoint: the WM drained its events here.
  kExpect = 9,      // footer: counters the recording session ended with.
  kReply = 10,      // client id + reply frame bytes the server emitted.
};

struct TraceRecord {
  TraceRecordType type = TraceRecordType::kPump;
  // kConnect / kDisconnect / kRequest.
  ClientId client = 0;
  std::string machine;         // kConnect.
  std::vector<uint8_t> bytes;  // kRequest / kReply: raw wire bytes.
  // kMotion / kWarp.
  int x = 0;
  int y = 0;
  int screen = 0;
  // kButton / kKey.
  int button = 0;
  KeySym keysym = 0;
  bool press = false;
  uint32_t modifiers = 0;
  // kExpect: the recording session's final counters, so a replay can verify
  // it reproduced the recorded session bit-for-bit.
  uint64_t expect_requests = 0;
  uint64_t expect_draw_ops = 0;
  uint64_t expect_pixels = 0;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

struct Trace {
  std::vector<TraceRecord> records;

  friend bool operator==(const Trace&, const Trace&) = default;
};

// ---- Serialization ----------------------------------------------------------

std::vector<uint8_t> SerializeTrace(const Trace& trace);
// Bounds-checked parse; on failure returns nullopt and fills `*error`.
std::optional<Trace> ParseTrace(std::span<const uint8_t> bytes, ParseError* error);

// File IO (binary).  Read goes through ParseTrace — a corrupt or truncated
// file is a ParseError, never a crash.
bool WriteTraceFile(const std::string& path, const Trace& trace);
std::optional<Trace> ReadTraceFile(const std::string& path, ParseError* error);

// ---- Recording --------------------------------------------------------------

// Accumulates records.  The Server calls the Record* hooks when a recorder
// is installed (Server::SetTraceRecorder); the test harness adds kPump
// checkpoints and the kExpect footer itself.
class TraceRecorder {
 public:
  void RecordConnect(ClientId client, const std::string& machine);
  void RecordDisconnect(ClientId client);
  void RecordRequestBytes(ClientId client, std::span<const uint8_t> bytes);
  void RecordReplyBytes(ClientId client, std::span<const uint8_t> bytes);
  void RecordMotion(int x, int y);
  void RecordButton(int button, bool press, uint32_t modifiers);
  void RecordKey(KeySym keysym, bool press, uint32_t modifiers);
  void RecordWarp(int screen, int x, int y);
  void RecordPump();
  void RecordExpect(uint64_t requests, uint64_t draw_ops, uint64_t pixels);

  const Trace& trace() const { return trace_; }
  Trace Take() { return std::move(trace_); }

 private:
  Trace trace_;
};

}  // namespace xproto

#endif  // SRC_XPROTO_TRACE_H_
