// Shared fixture for swm tests: a small simulated server, a window manager
// and helpers to spawn simulated clients.
#ifndef TESTS_SWM_TEST_UTIL_H_
#define TESTS_SWM_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/swm/panner.h"
#include "src/swm/wm.h"
#include "src/xlib/client_app.h"
#include "src/xserver/server.h"

namespace swm_test {

class SwmTest : public ::testing::Test {
 protected:
  // 200x100 screen; tests that want a virtual desktop pass resources.
  void StartWm(const std::string& resources = "",
               const std::string& template_name = "openlook",
               std::vector<xserver::ScreenConfig> screens = {
                   xserver::ScreenConfig{200, 100, false}}) {
    swm::WindowManager::Options options;
    options.resources = resources;
    options.template_name = template_name;
    StartWm(options, std::move(screens));
  }

  // Full-options variant (robustness tests toggle Options::self_heal).
  void StartWm(swm::WindowManager::Options options,
               std::vector<xserver::ScreenConfig> screens = {
                   xserver::ScreenConfig{200, 100, false}}) {
    // An old WM must die before its server: its destructor persists session
    // state to the server it was built on (tests may call StartWm twice).
    wm_.reset();
    server_ = std::make_unique<xserver::Server>(std::move(screens));
    if (on_server_created_) {
      on_server_created_(server_.get());
    }
    wm_ = std::make_unique<swm::WindowManager>(server_.get(), options);
    if (on_wm_created_) {
      on_wm_created_(wm_.get());
    }
    ASSERT_TRUE(wm_->Start());
  }

  // Spawns a client app, maps it and lets the WM manage it.
  std::unique_ptr<xlib::ClientApp> Spawn(const std::string& name,
                                         const xproto::WmClass& wm_class,
                                         const xbase::Rect& geometry = {0, 0, 30, 10},
                                         uint32_t hint_flags = xproto::kPSize) {
    xlib::ClientAppConfig config;
    config.name = name;
    config.wm_class = wm_class;
    config.command = {name};
    config.geometry = geometry;
    config.size_hint_flags = hint_flags;
    auto app = std::make_unique<xlib::ClientApp>(server_.get(), config);
    app->Map();
    wm_->ProcessEvents();
    app->ProcessEvents();
    return app;
  }

  swm::ManagedClient* Managed(const xlib::ClientApp& app) {
    return wm_->FindClient(app.window());
  }

  // Presses and releases a button at a root position, letting the WM react.
  void Click(const xbase::Point& root_pos, int button = 1, uint32_t modifiers = 0) {
    server_->SimulateMotion(root_pos);
    wm_->ProcessEvents();
    server_->SimulateButton(button, true, modifiers);
    wm_->ProcessEvents();
    server_->SimulateButton(button, false, modifiers);
    wm_->ProcessEvents();
  }

  // Every window on every screen, roots first, then the window tree level
  // by level (bottom-most sibling first).
  std::vector<xproto::WindowId> AllWindows() const {
    std::vector<xproto::WindowId> all;
    for (int screen = 0; screen < server_->ScreenCount(); ++screen) {
      all.push_back(server_->RootWindow(screen));
    }
    for (size_t i = 0; i < all.size(); ++i) {
      std::vector<xproto::WindowId> children = server_->QueryTree(all[i])->children;
      all.insert(all.end(), children.begin(), children.end());
    }
    return all;
  }

  // Root position of an oi object's window.
  xbase::Point ObjectRootPos(const oi::Object* object) {
    return server_->RootPosition(object->window());
  }

  std::unique_ptr<xserver::Server> server_;
  std::unique_ptr<swm::WindowManager> wm_;
  // Runs on each new server before the WM connects (a test can tap it).
  std::function<void(xserver::Server*)> on_server_created_;
  // Runs on each new WM before Start (a test can switch its displays to
  // wire mode).
  std::function<void(swm::WindowManager*)> on_wm_created_;
};

}  // namespace swm_test

#endif  // TESTS_SWM_TEST_UTIL_H_
