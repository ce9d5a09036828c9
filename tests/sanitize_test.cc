// ICCCM input hardening (docs/ROBUSTNESS.md "Input hardening and
// quarantine"): the sanitizing decoders must turn every hostile property
// shape — insane sizes, inverted min/max, zero increments, giant strings,
// truncated structs, transient_for self-references and cycles — into safe
// values, counting each repair in SanitizerStats.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/swm/session.h"
#include "src/xlib/icccm.h"
#include "src/xproto/sanitize.h"
#include "tests/swm_test_util.h"

namespace swm_test {
namespace {

using xproto::SanitizerStats;
using xproto::SizeHints;
using xproto::WmHints;

// ---- Pure sanitizer unit tests ---------------------------------------------

TEST(SanitizeSizeHintsTest, ClampsInsaneSizes) {
  SizeHints hints;
  hints.min_width = -5;
  hints.max_width = 1 << 20;
  hints.width = -3;
  hints.x = 1 << 24;
  SanitizerStats stats;
  EXPECT_TRUE(SanitizeSizeHints(&hints, &stats));
  EXPECT_EQ(hints.min_width, 1);
  EXPECT_EQ(hints.max_width, xproto::kMaxCoordinate);
  EXPECT_EQ(hints.width, 0);
  EXPECT_EQ(hints.x, xproto::kMaxCoordinate);
  EXPECT_EQ(stats.size_clamped, 1u);
  EXPECT_GT(stats.Total(), 0u);
}

TEST(SanitizeSizeHintsTest, SwapsInvertedMinMax) {
  SizeHints hints;
  hints.min_width = 500;
  hints.max_width = 100;
  hints.min_height = 40;
  hints.max_height = 60;  // Sane on this axis: stays put.
  SanitizerStats stats;
  EXPECT_TRUE(SanitizeSizeHints(&hints, &stats));
  EXPECT_EQ(hints.min_width, 100);
  EXPECT_EQ(hints.max_width, 500);
  EXPECT_EQ(hints.min_height, 40);
  EXPECT_EQ(hints.max_height, 60);
  EXPECT_EQ(stats.min_max_swapped, 1u);
}

TEST(SanitizeSizeHintsTest, RejectsZeroAndNegativeIncrements) {
  SizeHints hints;
  hints.width_inc = 0;
  hints.height_inc = -7;
  SanitizerStats stats;
  EXPECT_TRUE(SanitizeSizeHints(&hints, &stats));
  EXPECT_EQ(hints.width_inc, 1);
  EXPECT_EQ(hints.height_inc, 1);
  EXPECT_EQ(stats.increments_rejected, 1u);
}

TEST(SanitizeSizeHintsTest, SaneHintsUntouched) {
  SizeHints hints;
  hints.min_width = 10;
  hints.max_width = 100;
  hints.width_inc = 5;
  SizeHints original = hints;
  SanitizerStats stats;
  EXPECT_FALSE(SanitizeSizeHints(&hints, &stats));
  EXPECT_EQ(hints, original);
  EXPECT_EQ(stats.Total(), 0u);
}

TEST(SanitizeClientStringTest, TruncatesAndStripsControlCharacters) {
  std::string s(xproto::kMaxWmStringBytes + 500, 'a');
  s[0] = '\x01';
  s[1] = '\n';
  s[2] = '\t';  // Tab survives.
  SanitizerStats stats;
  EXPECT_TRUE(xproto::SanitizeClientString(&s, xproto::kMaxWmStringBytes, &stats));
  EXPECT_LE(s.size(), xproto::kMaxWmStringBytes);
  EXPECT_EQ(s[0], '\t');
  EXPECT_EQ(s.find('\x01'), std::string::npos);
  EXPECT_EQ(s.find('\n'), std::string::npos);
  EXPECT_EQ(stats.strings_truncated, 1u);
}

TEST(SanitizeWmHintsTest, RejectsInvalidInitialState) {
  WmHints hints;
  hints.initial_state = static_cast<xproto::WmState>(99);
  SanitizerStats stats;
  EXPECT_TRUE(SanitizeWmHints(&hints, &stats));
  EXPECT_EQ(hints.initial_state, xproto::WmState::kNormal);
  EXPECT_EQ(stats.states_rejected, 1u);
}

TEST(SanitizeWmHintsTest, ClampsIconGeometry) {
  WmHints hints;
  hints.icon_position = {1 << 20, -(1 << 20)};
  SanitizerStats stats;
  EXPECT_TRUE(SanitizeWmHints(&hints, &stats));
  EXPECT_EQ(hints.icon_position.x, xproto::kMaxCoordinate);
  EXPECT_EQ(hints.icon_position.y, -xproto::kMaxCoordinate);
  EXPECT_EQ(stats.icon_geometry_clamped, 1u);
}

TEST(SanitizeTransientForTest, BreaksSelfReference) {
  SanitizerStats stats;
  EXPECT_EQ(xproto::SanitizeTransientFor(42, 42, &stats), xproto::kNone);
  EXPECT_EQ(stats.transient_self_broken, 1u);
  EXPECT_EQ(xproto::SanitizeTransientFor(42, 7, &stats), 7u);
  EXPECT_EQ(stats.transient_self_broken, 1u);
}

TEST(DecodeWmClassTest, WellFormedPayloadDecodesUnrepaired) {
  SanitizerStats stats;
  xproto::WmClass out;
  EXPECT_FALSE(xproto::DecodeWmClass(std::string("xterm\0XTerm\0", 12), &out, &stats));
  EXPECT_EQ(out.instance, "xterm");
  EXPECT_EQ(out.clazz, "XTerm");
  EXPECT_EQ(stats.truncated_decodes, 0u);
}

TEST(DecodeWmClassTest, MissingTrailingNulIsRepairedNotOverread) {
  // The classic malformation: "instance\0class" with no trailing NUL.  The
  // unterminated tail must be taken as written — never read past the buffer —
  // and counted as a truncated decode.
  SanitizerStats stats;
  xproto::WmClass out;
  EXPECT_TRUE(xproto::DecodeWmClass(std::string("xterm\0XTerm", 11), &out, &stats));
  EXPECT_EQ(out.instance, "xterm");
  EXPECT_EQ(out.clazz, "XTerm");
  EXPECT_EQ(stats.truncated_decodes, 1u);
}

TEST(DecodeWmClassTest, MissingSeparatorYieldsInstanceOnly) {
  SanitizerStats stats;
  xproto::WmClass out;
  EXPECT_TRUE(xproto::DecodeWmClass("xterm", &out, &stats));
  EXPECT_EQ(out.instance, "xterm");
  EXPECT_EQ(out.clazz, "");
  EXPECT_EQ(stats.truncated_decodes, 1u);
}

TEST(DecodeWmClassTest, BytesAfterTerminatorAreDroppedAndCounted) {
  SanitizerStats stats;
  xproto::WmClass out;
  EXPECT_TRUE(
      xproto::DecodeWmClass(std::string("a\0B\0garbage", 11), &out, &stats));
  EXPECT_EQ(out.instance, "a");
  EXPECT_EQ(out.clazz, "B");
  EXPECT_EQ(stats.truncated_decodes, 1u);
}

// ---- Log throttle (base/logging) -------------------------------------------

TEST(LogThrottleTest, EveryNDedupesPerKey) {
  xbase::ResetLogThrottle();
  int fired = 0;
  for (int i = 0; i < 40; ++i) {
    if (xbase::ShouldLogEveryN("throttle-test-key", 16)) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, 3);  // Occurrences 0, 16, 32.
  EXPECT_EQ(xbase::LogThrottleCount("throttle-test-key"), 40);
  // Independent keys don't interfere.
  EXPECT_TRUE(xbase::ShouldLogEveryN("throttle-other-key", 16));
  xbase::ResetLogThrottle();
  EXPECT_EQ(xbase::LogThrottleCount("throttle-test-key"), 0);
}

// ---- Decoder integration through a Display ---------------------------------

class IcccmSanitizeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
    xbase::ResetLogThrottle();
    server_ = std::make_unique<xserver::Server>(
        std::vector<xserver::ScreenConfig>{{200, 100, false}});
    dpy_ = std::make_unique<xlib::Display>(server_.get());
    window_ = dpy_->CreateWindow(dpy_->RootWindow(), {0, 0, 30, 20});
  }
  void TearDown() override {
    xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
  }

  // Writes a raw WM_NORMAL_HINTS property of exactly `data` bytes.
  void WriteRawNormalHints(const std::vector<uint8_t>& data) {
    dpy_->ChangeProperty(window_, dpy_->InternAtom(xproto::kAtomWmNormalHints),
                         dpy_->InternAtom("WM_SIZE_HINTS"), 32,
                         xserver::PropMode::kReplace, data);
  }

  static void PutU32(std::vector<uint8_t>* out, uint32_t value) {
    out->push_back(static_cast<uint8_t>(value & 0xff));
    out->push_back(static_cast<uint8_t>((value >> 8) & 0xff));
    out->push_back(static_cast<uint8_t>((value >> 16) & 0xff));
    out->push_back(static_cast<uint8_t>((value >> 24) & 0xff));
  }

  std::unique_ptr<xserver::Server> server_;
  std::unique_ptr<xlib::Display> dpy_;
  xproto::WindowId window_ = xproto::kNone;
};

TEST_F(IcccmSanitizeTest, WmClassWithoutTrailingNulIsRepaired) {
  // A client that forgets the ICCCM trailing NUL still gets a usable class
  // through GetWmClass, with the repair ticked in the stats.
  std::string raw("myapp\0MyApp", 11);
  dpy_->ChangeProperty(window_, dpy_->InternAtom(xproto::kAtomWmClass),
                       dpy_->InternAtom("STRING"), 8, xserver::PropMode::kReplace,
                       std::vector<uint8_t>(raw.begin(), raw.end()));
  std::optional<xproto::WmClass> decoded = xlib::GetWmClass(dpy_.get(), window_);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->instance, "myapp");
  EXPECT_EQ(decoded->clazz, "MyApp");
  EXPECT_EQ(dpy_->sanitizer_stats().truncated_decodes, 1u);
}

TEST_F(IcccmSanitizeTest, GiantWmNameIsCapped) {
  xlib::SetWmName(dpy_.get(), window_, std::string(100000, 'x'));
  std::optional<std::string> name = xlib::GetWmName(dpy_.get(), window_);
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->size(), xproto::kMaxWmStringBytes);
  EXPECT_EQ(dpy_->sanitizer_stats().strings_truncated, 1u);
}

TEST_F(IcccmSanitizeTest, GiantWmCommandIsCapped) {
  xlib::SetWmCommand(dpy_.get(), window_,
                     {std::string(3000, 'a'), std::string(3000, 'b')});
  std::optional<std::vector<std::string>> argv =
      xlib::GetWmCommand(dpy_.get(), window_);
  ASSERT_TRUE(argv.has_value());
  size_t total = 0;
  for (const std::string& arg : *argv) {
    total += arg.size();
  }
  EXPECT_LE(total, xproto::kMaxWmCommandBytes);
  EXPECT_GT(dpy_->sanitizer_stats().strings_truncated, 0u);
}

TEST_F(IcccmSanitizeTest, NormalHintsTruncatedMidFieldKeepsDecodedPrefix) {
  // flags + x + y + width + height + min_width, then 2 bytes of min_height.
  std::vector<uint8_t> data;
  PutU32(&data, xproto::kPMinSize);
  PutU32(&data, 5);
  PutU32(&data, 6);
  PutU32(&data, 30);
  PutU32(&data, 20);
  PutU32(&data, 12);  // min_width made it across.
  data.push_back(0xff);
  data.push_back(0xff);  // min_height cut mid-field.
  WriteRawNormalHints(data);

  std::optional<SizeHints> hints = xlib::GetWmNormalHints(dpy_.get(), window_);
  ASSERT_TRUE(hints.has_value());
  EXPECT_EQ(hints->flags, xproto::kPMinSize);
  EXPECT_EQ(hints->x, 5);
  EXPECT_EQ(hints->min_width, 12);
  // The cut field and everything after it take defaults.
  SizeHints defaults;
  EXPECT_EQ(hints->min_height, defaults.min_height);
  EXPECT_EQ(hints->width_inc, defaults.width_inc);
  EXPECT_GT(dpy_->sanitizer_stats().truncated_decodes, 0u);
}

TEST_F(IcccmSanitizeTest, NormalHintsZeroIncrementsRepaired) {
  SizeHints hostile;
  hostile.flags = xproto::kPResizeInc;
  hostile.width_inc = 0;
  hostile.height_inc = 0;
  xlib::SetWmNormalHints(dpy_.get(), window_, hostile);
  std::optional<SizeHints> hints = xlib::GetWmNormalHints(dpy_.get(), window_);
  ASSERT_TRUE(hints.has_value());
  EXPECT_EQ(hints->width_inc, 1);
  EXPECT_EQ(hints->height_inc, 1);
  EXPECT_EQ(dpy_->sanitizer_stats().increments_rejected, 1u);
  // The repaired hints divide safely.
  xbase::Size constrained = hints->Constrain({33, 17});
  EXPECT_GT(constrained.width, 0);
}

TEST_F(IcccmSanitizeTest, NormalHintsInvertedMinMaxSwapped) {
  SizeHints hostile;
  hostile.flags = xproto::kPMinSize | xproto::kPMaxSize;
  hostile.min_width = 900;
  hostile.max_width = 30;
  hostile.min_height = 5;
  hostile.max_height = 50;
  xlib::SetWmNormalHints(dpy_.get(), window_, hostile);
  std::optional<SizeHints> hints = xlib::GetWmNormalHints(dpy_.get(), window_);
  ASSERT_TRUE(hints.has_value());
  EXPECT_EQ(hints->min_width, 30);
  EXPECT_EQ(hints->max_width, 900);
  EXPECT_EQ(dpy_->sanitizer_stats().min_max_swapped, 1u);
}

TEST_F(IcccmSanitizeTest, TransientForSelfReferenceBroken) {
  xlib::SetTransientForHint(dpy_.get(), window_, window_);
  std::optional<xproto::WindowId> owner =
      xlib::GetTransientForHint(dpy_.get(), window_);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(*owner, xproto::kNone);
  EXPECT_EQ(dpy_->sanitizer_stats().transient_self_broken, 1u);
}

// Zero-increment regression, end to end: a client advertising width_inc=0
// must neither crash the WM nor wedge resize (satellite of the classic
// divide-by-zero).
class ZeroIncrementWmTest : public SwmTest {};

TEST_F(ZeroIncrementWmTest, ResizeWithZeroIncrementsSurvives) {
  StartWm();
  auto app = Spawn("divzero", {"divzero", "DivZero"}, {0, 0, 40, 20});
  swm::ManagedClient* client = Managed(*app);
  ASSERT_NE(client, nullptr);

  SizeHints hostile;
  hostile.flags = xproto::kPResizeInc | xproto::kPMinSize;
  hostile.min_width = 10;
  hostile.min_height = 10;
  hostile.width_inc = 0;
  hostile.height_inc = -4;
  xlib::SetWmNormalHints(&app->display(), app->window(), hostile);
  wm_->ProcessEvents();

  // The stored hints were sanitized on the way in.
  EXPECT_GE(client->size_hints.width_inc, 1);
  EXPECT_GE(client->size_hints.height_inc, 1);

  app->RequestMoveResize({5, 5, 33, 17});
  wm_->ProcessEvents();
  std::optional<xbase::Rect> geometry = app->display().GetGeometry(app->window());
  ASSERT_TRUE(geometry.has_value());
  EXPECT_GE(geometry->width, 10);
  EXPECT_GE(geometry->height, 10);
}

// Manage-time adoption with WM_NORMAL_HINTS truncated mid-field: the WM must
// adopt the window using the decoded prefix (satellite d).
TEST_F(ZeroIncrementWmTest, ManageWithTruncatedHintsAdoptsWindow) {
  StartWm();
  xlib::ClientAppConfig config;
  config.name = "torn";
  config.wm_class = {"torn", "Torn"};
  config.command = {"torn"};
  config.geometry = {0, 0, 36, 18};
  xlib::ClientApp app(server_.get(), config);
  // Replace WM_NORMAL_HINTS with a 10-byte fragment before the WM ever sees
  // the window.
  app.display().ChangeProperty(
      app.window(), app.display().InternAtom(xproto::kAtomWmNormalHints),
      app.display().InternAtom("WM_SIZE_HINTS"), 32, xserver::PropMode::kReplace,
      std::vector<uint8_t>{1, 0, 0, 0, 7, 0, 0, 0, 9, 9});
  app.Map();
  wm_->ProcessEvents();

  swm::ManagedClient* client = Managed(app);
  ASSERT_NE(client, nullptr);
  ASSERT_NE(client->frame, nullptr);
  EXPECT_TRUE(server_->IsViewable(app.window()));
  EXPECT_GT(wm_->display().sanitizer_stats().truncated_decodes, 0u);
}

// Three-window transient_for cycle: A→B→C→A.  The WM breaks the cycle at
// manage time instead of looping (satellite d).
TEST_F(ZeroIncrementWmTest, TransientForCycleAcrossThreeWindowsBroken) {
  StartWm();
  auto a = Spawn("cyc-a", {"cyc-a", "Cyc"});
  auto b = Spawn("cyc-b", {"cyc-b", "Cyc"});

  // a → b, b → c(future), c → a.  a and b are re-read when c arrives?  No —
  // transient_for is read at manage time, so build the cycle in manage order:
  // b managed pointing at a, then c pointing at b, then rewrite a to point at
  // c and remanage a (unmap + map).
  xlib::SetTransientForHint(&b->display(), b->window(), a->window());
  b->Unmap();
  wm_->ProcessEvents();
  b->Map();
  wm_->ProcessEvents();
  ASSERT_NE(Managed(*b), nullptr);
  EXPECT_EQ(Managed(*b)->transient_for, a->window());

  auto c = Spawn("cyc-c", {"cyc-c", "Cyc"});
  xlib::SetTransientForHint(&c->display(), c->window(), b->window());
  c->Unmap();
  wm_->ProcessEvents();
  c->Map();
  wm_->ProcessEvents();
  ASSERT_NE(Managed(*c), nullptr);
  EXPECT_EQ(Managed(*c)->transient_for, b->window());

  // Closing the loop: a → c would make a→c→b→a.
  xlib::SetTransientForHint(&a->display(), a->window(), c->window());
  a->Unmap();
  wm_->ProcessEvents();
  a->Map();
  wm_->ProcessEvents();
  swm::ManagedClient* managed_a = Managed(*a);
  ASSERT_NE(managed_a, nullptr);
  EXPECT_EQ(managed_a->transient_for, xproto::kNone);
  EXPECT_GT(wm_->display().sanitizer_stats().transient_cycles_broken, 0u);
}

// The cycle warning's throttle key names the window; unmanaging the window
// frees it, so a long session does not keep one key per window ever seen.
TEST_F(ZeroIncrementWmTest, TransientCycleThrottleKeyFreedAtUnmanage) {
  StartWm();
  auto a = Spawn("cyc-a", {"cyc-a", "Cyc"});
  auto b = Spawn("cyc-b", {"cyc-b", "Cyc"});
  xlib::SetTransientForHint(&b->display(), b->window(), a->window());
  b->Unmap();
  wm_->ProcessEvents();
  b->Map();
  wm_->ProcessEvents();
  // a → b → a: remanaging a breaks the cycle and logs under a's key.
  xlib::SetTransientForHint(&a->display(), a->window(), b->window());
  a->Unmap();
  wm_->ProcessEvents();
  a->Map();
  wm_->ProcessEvents();
  const std::string key = "swm:transient-cycle:" + std::to_string(a->window());
  ASSERT_GT(xbase::LogThrottleCount(key), 0);

  a->display().DestroyWindow(a->window());
  wm_->ProcessEvents();
  EXPECT_EQ(wm_->FindClient(a->window()), nullptr);
  EXPECT_EQ(xbase::LogThrottleCount(key), 0);
}

// The ICCCM getters log a sanitized property once per (property, window);
// unmanaging the window frees those keys too.
TEST_F(ZeroIncrementWmTest, SanitizerThrottleKeysFreedAtUnmanage) {
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  StartWm();
  xlib::ClientAppConfig config;
  config.name = std::string(100000, 'x');
  config.wm_class = {"loud", "Loud"};
  config.command = {"loud"};
  config.geometry = {0, 0, 36, 18};
  xlib::ClientApp app(server_.get(), config);
  app.display().ChangeProperty(
      app.window(), app.display().InternAtom(xproto::kAtomWmNormalHints),
      app.display().InternAtom("WM_SIZE_HINTS"), 32, xserver::PropMode::kReplace,
      std::vector<uint8_t>{1, 0, 0, 0, 7, 0, 0, 0, 9, 9});
  app.Map();
  wm_->ProcessEvents();
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
  ASSERT_NE(Managed(app), nullptr);
  const std::string window = std::to_string(app.window());
  ASSERT_GT(xbase::LogThrottleCount("icccm:WM_NAME:" + window), 0);
  ASSERT_GT(xbase::LogThrottleCount("icccm:WM_NORMAL_HINTS:" + window), 0);

  app.display().DestroyWindow(app.window());
  wm_->ProcessEvents();
  EXPECT_EQ(wm_->FindClient(app.window()), nullptr);
  EXPECT_EQ(xbase::LogThrottleCount("icccm:WM_NAME:" + window), 0);
  EXPECT_EQ(xbase::LogThrottleCount("icccm:WM_NORMAL_HINTS:" + window), 0);
}

// Unknown swmhints flags share one throttle key: the flag text is chosen by
// the client, so keying on it would grow the table without bound.
TEST(SwmHintsThrottleTest, UnknownFlagsShareOneKey) {
  xbase::ResetLogThrottle();
  xbase::SetMinLogSeverity(xbase::LogSeverity::kFatal);
  for (const char* flag : {"-bogus1", "-bogus2", "-bogus3"}) {
    std::optional<swm::SwmHintsRecord> record = swm::SwmHintsRecord::Parse(
        std::string("swmhints -geometry 10x10+0+0 ") + flag + " -cmd \"xterm\"");
    EXPECT_TRUE(record.has_value()) << flag;
    EXPECT_EQ(xbase::LogThrottleCount(std::string("swmhints:unknown-flag:") + flag), 0);
  }
  xbase::SetMinLogSeverity(xbase::LogSeverity::kWarning);
  EXPECT_EQ(xbase::LogThrottleCount("swmhints:unknown-flag"), 3);
}

}  // namespace
}  // namespace swm_test
