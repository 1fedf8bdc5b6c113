#include <gtest/gtest.h>

#include <string>

#include "src/state/state_view.h"
#include "src/state/world_state.h"

namespace pevm {
namespace {

const Address kAlice = Address::FromId(1);
const Address kBob = Address::FromId(2);
const Address kToken = Address::FromId(100);

TEST(StateKeyTest, EqualityAndHashing) {
  StateKey a = StateKey::Storage(kToken, U256(5));
  StateKey b = StateKey::Storage(kToken, U256(5));
  StateKey c = StateKey::Storage(kToken, U256(6));
  StateKey d = StateKey::Balance(kToken);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(StateKeyHash{}(a), StateKeyHash{}(b));
  EXPECT_NE(StateKey::Balance(kAlice), StateKey::Nonce(kAlice));
}

TEST(WorldStateTest, DefaultsAreZero) {
  WorldState ws;
  EXPECT_EQ(ws.GetBalance(kAlice), U256{});
  EXPECT_EQ(ws.GetNonce(kAlice), 0u);
  EXPECT_EQ(ws.GetStorage(kToken, U256(1)), U256{});
  EXPECT_EQ(ws.GetCode(kToken), nullptr);
}

TEST(WorldStateTest, SetAndGetRoundTrip) {
  WorldState ws;
  ws.SetBalance(kAlice, U256(1000));
  ws.SetNonce(kAlice, 7);
  ws.SetStorage(kToken, U256(1), U256(42));
  ws.SetCode(kToken, Bytes{0x60, 0x00});
  EXPECT_EQ(ws.GetBalance(kAlice), U256(1000));
  EXPECT_EQ(ws.GetNonce(kAlice), 7u);
  EXPECT_EQ(ws.GetStorage(kToken, U256(1)), U256(42));
  ASSERT_NE(ws.GetCode(kToken), nullptr);
  EXPECT_EQ(ws.GetCode(kToken)->size(), 2u);
}

TEST(WorldStateTest, ZeroStorageWriteClearsSlot) {
  WorldState ws;
  ws.SetStorage(kToken, U256(1), U256(42));
  Hash256 before = ws.StateRoot();
  ws.SetStorage(kToken, U256(1), U256{});
  EXPECT_EQ(ws.GetStorage(kToken, U256(1)), U256{});
  EXPECT_NE(HexEncode(before), HexEncode(ws.StateRoot()));
}

TEST(WorldStateTest, UniformKeyAccess) {
  WorldState ws;
  ws.Set(StateKey::Balance(kAlice), U256(5));
  ws.Set(StateKey::Nonce(kAlice), U256(3));
  ws.Set(StateKey::Storage(kToken, U256(9)), U256(11));
  EXPECT_EQ(ws.Get(StateKey::Balance(kAlice)), U256(5));
  EXPECT_EQ(ws.Get(StateKey::Nonce(kAlice)), U256(3));
  EXPECT_EQ(ws.Get(StateKey::Storage(kToken, U256(9))), U256(11));
}

TEST(WorldStateTest, ApplyWriteSet) {
  WorldState ws;
  WriteSet writes;
  writes[StateKey::Balance(kAlice)] = U256(100);
  writes[StateKey::Storage(kToken, U256(1))] = U256(2);
  ws.Apply(writes);
  EXPECT_EQ(ws.GetBalance(kAlice), U256(100));
  EXPECT_EQ(ws.GetStorage(kToken, U256(1)), U256(2));
}

TEST(WorldStateTest, StateRootIsContentAddressed) {
  WorldState a;
  a.SetBalance(kAlice, U256(10));
  a.SetStorage(kToken, U256(1), U256(2));
  WorldState b;
  b.SetStorage(kToken, U256(1), U256(2));
  b.SetBalance(kAlice, U256(10));
  EXPECT_EQ(HexEncode(a.StateRoot()), HexEncode(b.StateRoot()));
  EXPECT_EQ(a.Digest(), b.Digest());
  b.SetBalance(kBob, U256(1));
  EXPECT_NE(HexEncode(a.StateRoot()), HexEncode(b.StateRoot()));
  EXPECT_NE(a.Digest(), b.Digest());
}

// The account body written straight into one buffer, against hand-encoded
// RLP: short and long (> 55-byte) list prefixes, the empty-string zero,
// single-byte and multi-byte integers, and a full 32-byte balance.
TEST(WorldStateTest, AccountBodyMatchesHandEncodedRlp) {
  Hash256 root;
  root.fill(0x11);
  Hash256 code;
  code.fill(0x22);
  const std::string hashes = "a0" + std::string(64, '1') + "a0" + std::string(64, '2');
  EXPECT_EQ(HexEncode(RlpAccountBody(0, U256(0), root, code)), "f8448080" + hashes);
  EXPECT_EQ(HexEncode(RlpAccountBody(1, U256(1024), root, code)), "f84601820400" + hashes);
  EXPECT_EQ(HexEncode(RlpAccountBody(0x80, U256(0x7f), root, code)), "f84581807f" + hashes);
  const U256 top = U256::Shl(U256(255), U256(1));
  EXPECT_EQ(HexEncode(RlpAccountBody(0x7f, top, root, code)),
            "f8647fa080" + std::string(62, '0') + hashes);
}

TEST(StateViewTest, ReadsFallThroughAndRecord) {
  WorldState ws;
  ws.SetBalance(kAlice, U256(50));
  StateView view(ws);
  EXPECT_EQ(view.GetBalance(kAlice), U256(50));
  EXPECT_EQ(view.read_set().size(), 1u);
  EXPECT_EQ(view.read_set().at(StateKey::Balance(kAlice)), U256(50));
  // Second read does not duplicate.
  view.GetBalance(kAlice);
  EXPECT_EQ(view.read_set().size(), 1u);
}

TEST(StateViewTest, WritesAreBufferedNotApplied) {
  WorldState ws;
  ws.SetBalance(kAlice, U256(50));
  StateView view(ws);
  view.SetBalance(kAlice, U256(40));
  EXPECT_EQ(view.GetBalance(kAlice), U256(40));
  EXPECT_EQ(ws.GetBalance(kAlice), U256(50));
  ws.Apply(view.write_set());
  EXPECT_EQ(ws.GetBalance(kAlice), U256(40));
}

TEST(StateViewTest, ReadYourOwnWriteDoesNotTouchReadSet) {
  WorldState ws;
  StateView view(ws);
  view.SetStorage(kToken, U256(1), U256(9));
  EXPECT_EQ(view.GetStorage(kToken, U256(1)), U256(9));
  EXPECT_TRUE(view.read_set().empty());
  EXPECT_TRUE(view.HasWritten(StateKey::Storage(kToken, U256(1))));
}

TEST(StateViewTest, GetCommittedBypassesOverlay) {
  WorldState ws;
  ws.SetStorage(kToken, U256(1), U256(5));
  StateView view(ws);
  view.SetStorage(kToken, U256(1), U256(99));
  EXPECT_EQ(view.GetCommitted(StateKey::Storage(kToken, U256(1))), U256(5));
  EXPECT_EQ(view.Get(StateKey::Storage(kToken, U256(1))), U256(99));
}

TEST(StateViewTest, SnapshotRevertRestoresWrites) {
  WorldState ws;
  ws.SetStorage(kToken, U256(1), U256(5));
  StateView view(ws);
  view.SetStorage(kToken, U256(1), U256(10));
  size_t snap = view.Snapshot();
  view.SetStorage(kToken, U256(1), U256(20));
  view.SetStorage(kToken, U256(2), U256(30));
  view.RevertToSnapshot(snap);
  EXPECT_EQ(view.GetStorage(kToken, U256(1)), U256(10));
  EXPECT_EQ(view.GetStorage(kToken, U256(2)), U256{});
  EXPECT_FALSE(view.HasWritten(StateKey::Storage(kToken, U256(2))));
}

TEST(StateViewTest, NestedSnapshots) {
  WorldState ws;
  StateView view(ws);
  view.SetBalance(kAlice, U256(1));
  size_t s1 = view.Snapshot();
  view.SetBalance(kAlice, U256(2));
  size_t s2 = view.Snapshot();
  view.SetBalance(kAlice, U256(3));
  view.RevertToSnapshot(s2);
  EXPECT_EQ(view.GetBalance(kAlice), U256(2));
  view.RevertToSnapshot(s1);
  EXPECT_EQ(view.GetBalance(kAlice), U256(1));
}

TEST(StateViewTest, ReadSetSurvivesRevert) {
  // A reverted branch still observed committed data; validation must keep it
  // (conservative, mirrors geth access tracking).
  WorldState ws;
  ws.SetStorage(kToken, U256(7), U256(1));
  StateView view(ws);
  size_t snap = view.Snapshot();
  view.GetStorage(kToken, U256(7));
  view.RevertToSnapshot(snap);
  EXPECT_EQ(view.read_set().size(), 1u);
}

}  // namespace
}  // namespace pevm
