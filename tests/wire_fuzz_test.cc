// Seeded byte-level wire fuzzing (docs/PROTOCOL.md): a hostile client's
// request stream passes through the FaultPlan's wire mutations — bit flips,
// length-field lies, mid-message truncation, opcode scrambling — before the
// parser sees it, while swm manages the session above.  The codec's contract
// under every mutation is a typed ParseError (surfaced as an X error on the
// connection), never a crash, an overread, or UB; tools/check.sh runs this
// suite under ASan+UBSan to hold it to that.  Same seed, same bytes: a
// failing seed reproduces exactly.
#include <memory>
#include <string>
#include <vector>

#include "src/xproto/wire.h"
#include "src/xserver/faults.h"
#include "tests/swm_test_util.h"

namespace swm_test {
namespace {

using xproto::ParseError;
using xproto::Request;

// A stream of plausible requests for the mutator to chew on, drawn from the
// driver stream so every seed sends different traffic.  Requests name
// windows of `targets` (whoever owns them); creates name the next id from
// `*next_id`, the hostile client's own range.
std::vector<uint8_t> BuildRequestBuffer(xserver::FaultRng* driver,
                                        const std::vector<xproto::WindowId>& targets,
                                        xproto::WindowId* next_id, int frames) {
  auto target = [&] {
    return targets[static_cast<size_t>(driver->Range(1, 40) - 1) % targets.size()];
  };
  xproto::WireWriter w;
  for (int i = 0; i < frames; ++i) {
    switch (driver->Range(0, 7)) {
      case 0:
        xproto::EncodeRequest(
            xproto::CreateWindowRequest{
                .window = (*next_id)++,
                .parent = targets[0],
                .geometry = {driver->Range(-20, 150), driver->Range(-20, 80),
                             driver->Range(1, 60), driver->Range(1, 40)}},
            &w);
        break;
      case 1:
        xproto::EncodeRequest(xproto::MapWindowRequest{.window = target()}, &w);
        break;
      case 2:
        xproto::EncodeRequest(
            xproto::ConfigureWindowRequest{
                .window = target(),
                .value_mask = xproto::kConfigX | xproto::kConfigY,
                .geometry = {driver->Range(-50, 200), driver->Range(-50, 100), 0, 0}},
            &w);
        break;
      case 3: {
        std::vector<uint8_t> payload(static_cast<size_t>(driver->Range(0, 64)));
        for (uint8_t& b : payload) {
          b = static_cast<uint8_t>(driver->Next() % 256);
        }
        xproto::EncodeRequest(
            xproto::ChangePropertyRequest{
                .window = target(),
                .property = static_cast<xproto::AtomId>(driver->Range(1, 30)),
                .type = 1,
                .format = 8,
                .mode = static_cast<uint8_t>(driver->Range(0, 2)),
                .data = payload},
            &w);
        break;
      }
      case 4:
        xproto::EncodeRequest(
            xproto::DrawRequest{
                .window = target(),
                .kind = static_cast<uint8_t>(driver->Range(0, 3)),
                .rect = {0, 0, driver->Range(1, 30), driver->Range(1, 20)},
                .fill = '#',
                .text = std::string(static_cast<size_t>(driver->Range(0, 20)), 'x')},
            &w);
        break;
      case 5:
        xproto::EncodeRequest(
            xproto::SetCursorRequest{
                .window = target(),
                .name = "question_arrow"},
            &w);
        break;
      case 6:
        xproto::EncodeRequest(
            xproto::SelectInputRequest{
                .window = target(),
                .event_mask = static_cast<uint32_t>(driver->Next())},
            &w);
        break;
      case 7:
        xproto::EncodeRequest(xproto::DestroyWindowRequest{.window = target()}, &w);
        break;
    }
  }
  return w.Take();
}

class WireFuzzTest : public SwmTest, public ::testing::WithParamInterface<uint64_t> {
 protected:
  void SetUp() override { xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal); }
  void TearDown() override { xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning); }
};

TEST_P(WireFuzzTest, MutatedStreamsNeverCrashTheParserOrTheWm) {
  uint64_t seed = GetParam();
  StartWm();
  auto app = Spawn("victim", {"victim", "Victim"});

  xserver::FaultPlan plan;
  plan.seed = seed;
  plan.bitflip_request_permille = 300;
  plan.lie_length_permille = 150;
  plan.truncate_request_permille = 150;
  plan.scramble_opcode_permille = 150;
  server_->InstallFaultPlan(plan);

  xserver::FaultRng driver(seed * 0x9e3779b9u + 7);
  xproto::ClientId hostile = server_->Connect("hostile-host");
  xproto::WindowId next_id = server_->IdBase(hostile);

  size_t dispatched = 0;
  size_t parse_errors = 0;
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " round " + std::to_string(round));
    std::vector<uint8_t> buffer =
        BuildRequestBuffer(&driver, AllWindows(), &next_id, driver.Range(1, 6));
    xserver::Server::DispatchResult result = server_->DispatchBytes(hostile, buffer);
    dispatched += result.requests_dispatched;
    parse_errors += result.parse_errors;
    // Whatever the mutations did, the WM must keep managing its session:
    // every client it still tracks really exists (the hostile stream may
    // legitimately have destroyed some — including the victim's).
    wm_->ProcessEvents();
    for (swm::ManagedClient* mc : wm_->Clients()) {
      ASSERT_TRUE(server_->WindowExists(mc->window));
    }
    ASSERT_TRUE(server_->HasClient(hostile));
  }

  // The harness must actually have attacked something this seed...
  EXPECT_GT(server_->fault_counters().WireMutations(), 0u) << "seed " << seed;
  // ...and the parse-error counter must agree with what dispatch reported.
  EXPECT_EQ(server_->wire_parse_errors(), parse_errors);
  // The honest frames that survived mutation were really executed.
  EXPECT_GT(dispatched, 0u);

  // The server must still render and process a clean session end to end.
  server_->ClearFaultPlan();
  auto survivor = Spawn("survivor", {"survivor", "Survivor"});
  wm_->ProcessEvents();
  ASSERT_NE(Managed(*survivor), nullptr);
  server_->RenderScreen(0);
}

INSTANTIATE_TEST_SUITE_P(WireFuzzSeeds, WireFuzzTest, ::testing::Range<uint64_t>(1, 25));

// ---- Pure-codec adversarial sweeps (no server) ------------------------------

TEST(WireCodecFuzz, SeededGarbageBuffersNeverCrash) {
  // Uniform garbage at every small size; the decoder must fail (or decode a
  // frame that happens to be valid) without ever reading out of bounds.
  xserver::FaultRng rng(0xC0FFEE);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> buffer(static_cast<size_t>(rng.Range(0, 96)));
    for (uint8_t& b : buffer) {
      b = static_cast<uint8_t>(rng.Next() % 256);
    }
    Request decoded;
    ParseError error;
    xproto::DecodeRequest(buffer, &decoded, &error);
    xproto::Event event;
    xproto::DecodeEvent(buffer, &event, &error);
    xproto::XError xerror;
    xproto::DecodeError(buffer, &xerror, &error);
    xproto::ParseTrace(buffer, &error);
  }
}

TEST(WireCodecFuzz, EveryOpcodeTimesGarbagePayload) {
  // Structured attack: a valid header for every opcode value (0..255) over a
  // garbage payload of every 4-byte-aligned size up to 64.
  xserver::FaultRng rng(0xFACADE);
  for (int opcode = 0; opcode < 256; ++opcode) {
    for (size_t payload = 0; payload <= 64; payload += 4) {
      std::vector<uint8_t> frame(4 + payload);
      frame[0] = static_cast<uint8_t>(opcode);
      frame[1] = static_cast<uint8_t>(rng.Next() % 256);
      frame[2] = static_cast<uint8_t>(frame.size() / 4);
      frame[3] = 0;
      for (size_t i = 4; i < frame.size(); ++i) {
        frame[i] = static_cast<uint8_t>(rng.Next() % 256);
      }
      Request decoded;
      ParseError error;
      xproto::DecodeRequest(frame, &decoded, &error);
    }
  }
}

TEST(WireCodecFuzz, MalformedFramesRaiseXErrorsOnTheConnection) {
  // DispatchBytes surfaces parse errors through the PR-3 error channel: the
  // client's handler sees BadRequest/BadLength/BadValue, sequence numbers
  // advance, and the rest of the buffer is dropped.
  xserver::Server server;
  xlib::Display dpy(&server, "hostile");
  std::vector<xproto::XError> seen;
  dpy.SetErrorHandler([&](const xproto::XError& e) { seen.push_back(e); });

  std::vector<uint8_t> buffer = {99, 0, 1, 0};  // Unknown opcode.
  std::vector<uint8_t> tail =
      xproto::EncodeRequestBytes(xproto::MapWindowRequest{.window = 1});
  buffer.insert(buffer.end(), tail.begin(), tail.end());

  uint64_t seq_before = server.SequenceNumber(dpy.client_id());
  xserver::Server::DispatchResult result = server.DispatchBytes(dpy.client_id(), buffer);
  EXPECT_EQ(result.parse_errors, 1u);
  EXPECT_EQ(result.requests_dispatched, 0u) << "buffer poisoned after framing error";
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].code, xproto::ErrorCode::kBadRequest);
  EXPECT_EQ(server.SequenceNumber(dpy.client_id()), seq_before + 1);
  EXPECT_EQ(server.wire_parse_errors(), 1u);

  // A length lie maps to BadLength.
  std::vector<uint8_t> lie = xproto::EncodeRequestBytes(xproto::MapWindowRequest{.window = 1});
  lie[2] = 0xFF;
  lie[3] = 0xFF;
  server.DispatchBytes(dpy.client_id(), lie);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].code, xproto::ErrorCode::kBadLength);
}

}  // namespace
}  // namespace swm_test
