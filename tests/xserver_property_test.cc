// Randomized operation sequences against the server, checking structural
// invariants after every step: tree consistency, stacking-order membership,
// coordinate arithmetic, save-set hygiene and pointer-window validity.  The
// cached pointer window is checked against a fresh hit test after every step:
// requests recompute it only when the changed window covers the pointer.  The
// server has two screens and reparents cross between them; after every step
// each window's screen is its root's screen.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "src/xserver/server.h"
#include "tests/server_test_peer.h"

namespace xserver {
namespace {

using xproto::ClientId;
using xproto::WindowId;

class ServerFuzzTest : public ::testing::TestWithParam<int> {
 protected:
  ServerFuzzTest() : server_({ScreenConfig{300, 200, false}, ScreenConfig{200, 150, false}}) {
    clients_.push_back(server_.Connect("c0"));
    clients_.push_back(server_.Connect("c1"));
    windows_.push_back(server_.RootWindow(0));
    windows_.push_back(server_.RootWindow(1));
  }

  WindowId RandomWindow(std::mt19937* rng) {
    std::uniform_int_distribution<size_t> pick(0, windows_.size() - 1);
    return windows_[pick(*rng)];
  }

  ClientId RandomClient(std::mt19937* rng) {
    std::uniform_int_distribution<size_t> pick(0, clients_.size() - 1);
    return clients_[pick(*rng)];
  }

  // Half the time the window under the pointer, so shape changes do move
  // the pointer in and out of windows.
  WindowId ShapeTarget(std::mt19937* rng) {
    if (std::bernoulli_distribution(0.5)(*rng)) {
      return server_.QueryPointer().window;
    }
    return RandomWindow(rng);
  }

  void PruneDeadWindows() {
    std::erase_if(windows_, [&](WindowId w) { return !server_.WindowExists(w); });
  }

  // Every window's screen, QueryTree root and ancestor walk agree.
  void CheckScreens(int step) {
    for (WindowId window : windows_) {
      WindowId root = window;
      while (server_.QueryTree(root)->parent != xproto::kNone) {
        root = server_.QueryTree(root)->parent;
      }
      int screen = server_.ScreenOfWindow(window);
      ASSERT_GE(screen, 0);
      EXPECT_EQ(server_.RootWindow(screen), root) << "window " << window << " at step " << step;
      EXPECT_EQ(server_.QueryTree(window)->root, root) << "window " << window;
    }
  }

  // The structural invariants that must hold at every point.
  void CheckInvariants() {
    for (WindowId window : windows_) {
      if (!server_.WindowExists(window)) {
        continue;
      }
      auto tree = server_.QueryTree(window);
      ASSERT_TRUE(tree.has_value());
      // Parent-child symmetry.
      if (tree->parent != xproto::kNone) {
        auto parent_tree = server_.QueryTree(tree->parent);
        ASSERT_TRUE(parent_tree.has_value());
        int occurrences = 0;
        for (WindowId sibling : parent_tree->children) {
          if (sibling == window) {
            ++occurrences;
          }
        }
        EXPECT_EQ(occurrences, 1) << "window " << window
                                  << " not exactly once in its parent's children";
      }
      // Children unique, existing, and pointing back.
      std::set<WindowId> seen;
      for (WindowId child : tree->children) {
        EXPECT_TRUE(seen.insert(child).second);
        ASSERT_TRUE(server_.WindowExists(child));
        EXPECT_EQ(server_.QueryTree(child)->parent, window);
      }
      // RootPosition is the sum of ancestor offsets == translate to root.
      auto translated = server_.TranslateCoordinates(window, tree->root, {0, 0});
      ASSERT_TRUE(translated.has_value());
      EXPECT_EQ(*translated, server_.RootPosition(window));
      // Viewability implies every ancestor is mapped.
      if (server_.IsViewable(window)) {
        WindowId cur = tree->parent;
        while (cur != xproto::kNone) {
          EXPECT_TRUE(server_.IsViewable(cur));
          cur = server_.QueryTree(cur)->parent;
        }
      }
    }
    // The pointer window always exists.
    EXPECT_TRUE(server_.WindowExists(server_.QueryPointer().window));
  }

  Server server_;
  std::vector<ClientId> clients_;
  std::vector<WindowId> windows_;
};

TEST_P(ServerFuzzTest, RandomOperationsPreserveInvariants) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> op_dist(0, 14);
  std::uniform_int_distribution<int> coord(-20, 280);
  std::uniform_int_distribution<int> extent(1, 120);

  for (int step = 0; step < 300; ++step) {
    int op = op_dist(rng);
    switch (op) {
      case 0:
      case 1: {  // Create (twice as likely).
        WindowId parent = RandomWindow(&rng);
        ClientId client = RandomClient(&rng);
        WindowId created = server_.CreateWindow(
            client, server_.IdRange(client).start_id, parent,
            {coord(rng), coord(rng), extent(rng), extent(rng)}, 0,
            xproto::WindowClass::kInputOutput, false);
        if (created != xproto::kNone) {
          windows_.push_back(created);
        }
        break;
      }
      case 2: {  // Destroy.
        WindowId target = RandomWindow(&rng);
        server_.DestroyWindow(RandomClient(&rng), target);
        PruneDeadWindows();
        break;
      }
      case 3:
        server_.MapWindow(RandomClient(&rng), RandomWindow(&rng));
        break;
      case 4:
        server_.UnmapWindow(RandomClient(&rng), RandomWindow(&rng));
        break;
      case 5: {  // Reparent (may be refused for cycles — fine).
        server_.ReparentWindow(RandomClient(&rng), RandomWindow(&rng),
                               RandomWindow(&rng), {coord(rng) / 4, coord(rng) / 4});
        break;
      }
      // Cases 6-9 draw geometry, then window, then client.
      case 6: {  // Move.
        ConfigureValues values;
        values.geometry.x = coord(rng);
        values.geometry.y = coord(rng);
        WindowId window = RandomWindow(&rng);
        server_.ConfigureWindow(RandomClient(&rng), window, xproto::kConfigX | xproto::kConfigY,
                                values);
        break;
      }
      case 7: {  // Resize.
        ConfigureValues values;
        values.geometry.width = extent(rng);
        values.geometry.height = extent(rng);
        WindowId window = RandomWindow(&rng);
        server_.ConfigureWindow(RandomClient(&rng), window,
                                xproto::kConfigWidth | xproto::kConfigHeight, values);
        break;
      }
      case 8:
      case 9: {  // Raise, lower.
        ConfigureValues values;
        values.stack_mode = op == 8 ? xproto::StackMode::kAbove : xproto::StackMode::kBelow;
        WindowId window = RandomWindow(&rng);
        server_.ConfigureWindow(RandomClient(&rng), window, xproto::kConfigStackMode, values);
        break;
      }
      case 10:
        server_.SimulateMotion({coord(rng), coord(rng)});
        break;
      case 11: {  // Properties.
        WindowId target = RandomWindow(&rng);
        xproto::AtomId prop = server_.InternAtom("P" + std::to_string(step % 7));
        server_.ChangeProperty(RandomClient(&rng), target, prop,
                               server_.InternAtom("STRING"), 8, PropMode::kReplace,
                               {'x'});
        break;
      }
      case 12: {  // Shape set: a rectangle in window coordinates.
        WindowId target = ShapeTarget(&rng);
        xbase::Rect rect{coord(rng) / 4, coord(rng) / 4, extent(rng), extent(rng)};
        server_.ShapeSetRegion(RandomClient(&rng), target, xbase::Region(rect));
        break;
      }
      case 13: {  // Shape clear.
        WindowId target = ShapeTarget(&rng);
        server_.ShapeClear(RandomClient(&rng), target);
        break;
      }
      case 14: {  // Reparent onto the other screen's root.
        WindowId window = RandomWindow(&rng);
        int other = 1 - std::max(0, server_.ScreenOfWindow(window));
        server_.ReparentWindow(RandomClient(&rng), window, server_.RootWindow(other),
                               {coord(rng) / 4, coord(rng) / 4});
        break;
      }
    }
    EXPECT_EQ(server_.QueryPointer().window, server_.HitTestPointerForTest())
        << "stale pointer window after op " << op << " at step " << step;
    // Drain queues so they do not grow unboundedly.
    for (ClientId client : clients_) {
      while (server_.NextEvent(client).has_value()) {
      }
    }
    CheckScreens(step);
    if (step % 10 == 0) {
      CheckInvariants();
    }
  }
  CheckInvariants();
  // Rendering after arbitrary chaos must not crash and has screen size.
  xbase::Canvas canvas = server_.RenderScreen(0);
  EXPECT_EQ(canvas.width(), 300);
  EXPECT_EQ(canvas.height(), 200);
  EXPECT_EQ(server_.RenderScreen(1).width(), 200);

  // Disconnecting a client destroys its windows but leaves a valid tree.
  server_.Disconnect(clients_[0]);
  clients_.erase(clients_.begin());
  PruneDeadWindows();
  CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServerFuzzTest, ::testing::Range(100, 112));

// ---- Per-client indexes --------------------------------------------------------
//
// IdRange and Disconnect read per-client indexes instead of walking
// every window.  Interleave the requests that change what a client owns or
// holds on a window across three clients, and after every step check the
// indexes against the window-side state.
class ClientIndexFuzzTest : public ::testing::TestWithParam<int> {
 protected:
  ClientIndexFuzzTest() : server_({ScreenConfig{300, 200, false}}) {
    for (int i = 0; i < 3; ++i) {
      clients_.push_back(server_.Connect("c" + std::to_string(i)));
    }
  }

  // Live windows, root first, then ascending id.
  std::vector<WindowId> LiveWindows() const {
    std::vector<WindowId> live{server_.RootWindow(0)};
    for (const auto& [window, owner] : created_) {
      if (server_.WindowExists(window)) {
        live.push_back(window);
      }
    }
    return live;
  }

  WindowId RandomWindow(std::mt19937* rng) const {
    std::vector<WindowId> live = LiveWindows();
    std::uniform_int_distribution<size_t> pick(0, live.size() - 1);
    return live[pick(*rng)];
  }

  ClientId RandomClient(std::mt19937* rng) const {
    std::uniform_int_distribution<size_t> pick(0, clients_.size() - 1);
    return clients_[pick(*rng)];
  }

  static bool Holds(const WindowRec& rec, ClientId client) {
    return rec.selections.count(client) != 0 || rec.shape_selections.count(client) != 0 ||
           std::any_of(rec.passive_grabs.begin(), rec.passive_grabs.end(),
                       [client](const PassiveGrab& g) { return g.client == client; }) ||
           std::count(rec.save_set_clients.begin(), rec.save_set_clients.end(), client) != 0;
  }

  void CheckIndexes() const {
    std::vector<WindowId> live = LiveWindows();
    for (ClientId client : clients_) {
      std::vector<WindowId> owned;
      for (const auto& [window, owner] : created_) {
        if (owner == client && server_.WindowExists(window)) {
          owned.push_back(window);
        }
      }
      std::optional<Server::ClientIndex> index = server_.ClientIndexForTest(client);
      ASSERT_TRUE(index.has_value());
      EXPECT_EQ(index->owned, owned) << "client " << client;

      std::vector<WindowId> held;
      std::multiset<WindowId> saved;
      for (WindowId window : live) {
        const WindowRec* rec = xserver::ServerTestPeer::FindWindow(server_, window);
        if (Holds(*rec, client)) {
          held.push_back(window);
        }
        if (std::count(rec->save_set_clients.begin(), rec->save_set_clients.end(), client)) {
          saved.insert(window);
        }
      }
      EXPECT_EQ(index->referenced, held) << "client " << client;
      EXPECT_EQ(std::multiset<WindowId>(index->save_set.begin(), index->save_set.end()), saved)
          << "client " << client;
    }
  }

  // Nothing of a departed client may remain anywhere.
  void CheckGone(ClientId departed) const {
    EXPECT_FALSE(server_.ClientIndexForTest(departed).has_value());
    for (WindowId window : LiveWindows()) {
      const WindowRec* rec = xserver::ServerTestPeer::FindWindow(server_, window);
      EXPECT_NE(rec->owner, departed);
      EXPECT_EQ(rec->selections.count(departed), 0u);
      EXPECT_FALSE(Holds(*rec, departed)) << "window " << window;
    }
  }

  Server server_;
  std::vector<ClientId> clients_;
  std::map<WindowId, ClientId> created_;  // Every window made, dead ones too.
};

TEST_P(ClientIndexFuzzTest, IndexesMatchWindowState) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> op_dist(0, 24);
  std::uniform_int_distribution<int> coord(-20, 280);
  std::uniform_int_distribution<int> extent(1, 120);
  std::uniform_int_distribution<int> button(1, 3);
  std::uniform_int_distribution<int> coin(0, 1);
  const uint32_t masks[] = {0, xproto::kStructureNotifyMask,
                            xproto::kButtonPressMask | xproto::kExposureMask,
                            xproto::kSubstructureNotifyMask};
  std::uniform_int_distribution<size_t> mask_pick(0, std::size(masks) - 1);
  int disconnects = 0;

  for (int step = 0; step < 400; ++step) {
    switch (op_dist(rng)) {
      case 0:
      case 1:
      case 2:
      case 3: {
        ClientId client = RandomClient(&rng);
        WindowId created = server_.CreateWindow(
            client, server_.IdRange(client).start_id, RandomWindow(&rng), {coord(rng), coord(rng), extent(rng), extent(rng)}, 0,
            xproto::WindowClass::kInputOutput, false);
        ASSERT_NE(created, xproto::kNone);
        created_[created] = client;
        break;
      }
      case 4:
      case 5:
        server_.DestroyWindow(RandomClient(&rng), RandomWindow(&rng));
        break;
      case 6:
      case 7:
        server_.ReparentWindow(RandomClient(&rng), RandomWindow(&rng), RandomWindow(&rng),
                               {coord(rng) / 4, coord(rng) / 4});
        break;
      case 8:
        server_.MapWindow(RandomClient(&rng), RandomWindow(&rng));
        break;
      case 9:
      case 10:
      case 11:
        server_.SelectInput(RandomClient(&rng), RandomWindow(&rng), masks[mask_pick(rng)]);
        break;
      case 12:
      case 13:
        server_.GrabButton(RandomClient(&rng), RandomWindow(&rng), button(rng), coin(rng),
                           xproto::kButtonPressMask);
        break;
      case 14:
        server_.UngrabButton(RandomClient(&rng), RandomWindow(&rng), button(rng), coin(rng));
        break;
      case 15:
      case 16:
        server_.ShapeSelect(RandomClient(&rng), RandomWindow(&rng), coin(rng) == 1);
        break;
      case 17:
      case 18:
      case 19:
        server_.ChangeSaveSet(RandomClient(&rng), RandomWindow(&rng), coin(rng) == 1);
        break;
      case 20:
      case 21:
      case 22:
      case 23:
        break;  // Quiet step: indexes must hold with nothing changing.
      case 24: {
        // A client leaves and a fresh one takes its place.
        std::uniform_int_distribution<size_t> pick(0, clients_.size() - 1);
        size_t slot = pick(rng);
        ClientId departed = clients_[slot];
        server_.Disconnect(departed);
        clients_[slot] = server_.Connect("late" + std::to_string(step));
        ++disconnects;
        CheckGone(departed);
        break;
      }
    }
    for (ClientId client : clients_) {
      while (server_.NextEvent(client).has_value()) {
      }
    }
    CheckIndexes();
    if (HasFailure()) {
      FAIL() << "seed " << GetParam() << " step " << step;
    }
  }
  EXPECT_GT(disconnects, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClientIndexFuzzTest, ::testing::Range(200, 208));

}  // namespace
}  // namespace xserver
