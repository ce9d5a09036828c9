// Id-renamed transcript of what clients receive: every event a client takes
// off its queue and every reply frame the server emits, with each window id
// replaced by its first-appearance ordinal.  Two sessions that behave the
// same but hand out different window ids hash equal, so the hash pins
// behaviour across a change to how ids are allocated.
#ifndef TESTS_TRANSCRIPT_H_
#define TESTS_TRANSCRIPT_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/xproto/events.h"
#include "src/xproto/trace.h"
#include "src/xproto/types.h"
#include "src/xproto/wire.h"
#include "src/xserver/server.h"

namespace swm_test {

class Transcript {
 public:
  // Folds every event `server`'s clients take into the hash from now on.
  // The transcript must outlive the tap (or the tap be removed first).
  void Tap(xserver::Server* server) {
    server->SetEventTapForTest(
        [this](xproto::ClientId client, const xproto::Event& event) {
          AddEvent(client, event);
        });
  }

  void AddEvent(xproto::ClientId client, xproto::Event event) {
    std::visit([this](auto& e) { RenameFields(e); }, event);
    Fold(client, xproto::EncodeEventBytes(event));
    ++events_;
  }

  // `frame` is one reply frame as the server emitted it.  The sequence
  // number is left out: the fields are what a client reads.
  void AddReply(xproto::ClientId client, std::span<const uint8_t> frame) {
    xproto::Reply reply;
    xproto::ParseError error;
    if (xproto::DecodeReply(frame, &reply, &error) == 0) {
      Fold(client, frame);  // Undecodable: hash the raw bytes.
    } else {
      std::visit([this](auto& r) { RenameFields(r); }, reply);
      Fold(client, xproto::EncodeReplyBytes(reply));
    }
    ++replies_;
  }

  // Every kReply record of a recorded trace, in order.
  void AddReplies(const xproto::Trace& trace) {
    for (const xproto::TraceRecord& rec : trace.records) {
      if (rec.type == xproto::TraceRecordType::kReply) {
        AddReply(rec.client, rec.bytes);
      }
    }
  }

  uint64_t hash() const { return hash_; }
  size_t events() const { return events_; }
  size_t replies() const { return replies_; }

 private:
  xproto::WindowId Rename(xproto::WindowId id) {
    if (id == xproto::kNone) {
      return xproto::kNone;
    }
    auto [it, inserted] =
        ordinals_.try_emplace(id, static_cast<xproto::WindowId>(ordinals_.size() + 1));
    return it->second;
  }

  // Renames whichever window-id fields a message has, in a fixed order.
  template <class M>
  void RenameFields(M& m) {
    if constexpr (requires { m.event_window; }) m.event_window = Rename(m.event_window);
    if constexpr (requires { m.window; }) m.window = Rename(m.window);
    if constexpr (requires { m.subwindow; }) m.subwindow = Rename(m.subwindow);
    if constexpr (requires { m.root; }) m.root = Rename(m.root);
    if constexpr (requires { m.parent; }) m.parent = Rename(m.parent);
    if constexpr (requires { m.sibling; }) m.sibling = Rename(m.sibling);
    if constexpr (requires { m.above_sibling; }) m.above_sibling = Rename(m.above_sibling);
    if constexpr (requires { m.children; }) {
      for (xproto::WindowId& child : m.children) child = Rename(child);
    }
    if constexpr (requires { m.screens; }) {
      for (auto& screen : m.screens) screen.root = Rename(screen.root);
    }
  }

  void Fold(xproto::ClientId client, std::span<const uint8_t> bytes) {
    for (int shift = 0; shift < 32; shift += 8) {
      Mix(static_cast<uint8_t>(client >> shift));
    }
    for (uint8_t b : bytes) {
      Mix(b);
    }
  }
  void Mix(uint8_t b) { hash_ = (hash_ ^ b) * 1099511628211ull; }

  std::unordered_map<xproto::WindowId, xproto::WindowId> ordinals_;
  uint64_t hash_ = 1469598103934665603ull;  // FNV-1a offset basis.
  size_t events_ = 0;
  size_t replies_ = 0;
};

}  // namespace swm_test

#endif  // TESTS_TRANSCRIPT_H_
