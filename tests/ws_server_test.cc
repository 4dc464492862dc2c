/// Tests for the workstation–server environment: check-out/check-in, long
/// locks, crash survival (§1, §3.1).

#include <gtest/gtest.h>

#include "sim/fixtures.h"
#include "ws/server.h"

namespace codlock::ws {
namespace {

using lock::LockMode;

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : f_(sim::BuildFigure7Instance()) {}

  sim::CellsFixture f_;
};

TEST_F(ServerTest, CheckOutAcquiresLongLocks) {
  Server server(f_.catalog.get(), f_.store.get());
  Result<CheckOutTicket> ticket =
      server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  EXPECT_EQ(server.ActiveLongTxns(), 1u);
  // The long locks are in stable storage.
  EXPECT_GT(server.stable_storage().size(), 0u);
  for (const lock::LongLockRecord& r : server.stable_storage().records()) {
    EXPECT_EQ(r.txn, ticket->txn);
  }
}

TEST_F(ServerTest, ConflictingCheckOutTimesOut) {
  ws::Server::Options opts;
  opts.protocol.timeout_ms = 100;
  Server server(f_.catalog.get(), f_.store.get(), opts);
  Result<CheckOutTicket> first = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(first.ok());
  // Another user wants the same robot for update: blocked by the long X
  // lock, times out.
  Result<CheckOutTicket> second = server.CheckOut(2, query::MakeQ2(f_.cells));
  EXPECT_TRUE(second.status().IsTimeout()) << second.status();
}

TEST_F(ServerTest, DisjointCheckOutsCoexist) {
  Server server(f_.catalog.get(), f_.store.get());
  // Q2 (robot r1) and a Q1-style read of the c_objects run concurrently.
  Result<CheckOutTicket> a = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(a.ok());
  Result<CheckOutTicket> b = server.CheckOut(2, query::MakeQ1(f_.cells));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(server.ActiveLongTxns(), 2u);
}

TEST_F(ServerTest, CheckInReleasesAndPersists) {
  Server server(f_.catalog.get(), f_.store.get());
  Result<CheckOutTicket> ticket = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(server.CheckIn(*ticket).ok());
  EXPECT_EQ(server.ActiveLongTxns(), 0u);
  EXPECT_EQ(server.stable_storage().size(), 0u);
  EXPECT_EQ(server.lock_manager().NumEntries(), 0u);
  // Checked-in data can be checked out again.
  EXPECT_TRUE(server.CheckOut(2, query::MakeQ2(f_.cells)).ok());
}

TEST_F(ServerTest, CancelCheckOutReleasesWithoutApplying) {
  Server server(f_.catalog.get(), f_.store.get());
  Result<CheckOutTicket> ticket = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(server.CancelCheckOut(*ticket).ok());
  EXPECT_EQ(server.ActiveLongTxns(), 0u);
  EXPECT_TRUE(server.CheckOut(2, query::MakeQ2(f_.cells)).ok());
}

TEST_F(ServerTest, LongLocksSurviveCrash) {
  ws::Server::Options opts;
  opts.protocol.timeout_ms = 100;
  Server server(f_.catalog.get(), f_.store.get(), opts);
  Result<CheckOutTicket> ticket = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(ticket.ok());

  server.CrashAndRestart();

  // The long transaction is still registered and its locks still block a
  // conflicting check-out.
  EXPECT_EQ(server.ActiveLongTxns(), 1u);
  Result<CheckOutTicket> second = server.CheckOut(2, query::MakeQ2(f_.cells));
  EXPECT_TRUE(second.status().IsTimeout());

  // After the crash the original user can still check in.
  ASSERT_TRUE(server.CheckIn(*ticket).ok());
  EXPECT_TRUE(server.CheckOut(2, query::MakeQ2(f_.cells)).ok());
}

TEST_F(ServerTest, ShortLocksDieInCrash) {
  Server server(f_.catalog.get(), f_.store.get());
  // Short transactions release at EOT anyway; verify the lock table is
  // empty post-crash even if a short txn never finished.
  txn::Transaction* t = server.txn_manager().Begin(5, txn::TxnKind::kShort);
  ASSERT_TRUE(server.lock_manager()
                  .Acquire(t->id(), {1, 1}, LockMode::kX)
                  .ok());
  server.CrashAndRestart();
  EXPECT_EQ(server.lock_manager().NumEntries(), 0u);
}

TEST_F(ServerTest, ShortTxnsAreForgottenAfterFinish) {
  // A finished short transaction leaves no bookkeeping behind: every id
  // handed out between two bracketing transactions is gone again.
  Server server(f_.catalog.get(), f_.store.get());
  txn::TxnManager& txns = server.txn_manager();
  const lock::TxnId a = txns.Begin(5, txn::TxnKind::kShort)->id();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server.RunShortTxn(1, query::MakeQ1(f_.cells)).ok());
  }
  const lock::TxnId b = txns.Begin(5, txn::TxnKind::kShort)->id();
  ASSERT_GT(b, a + 1);
  for (lock::TxnId id = a + 1; id < b; ++id) {
    EXPECT_TRUE(txns.Get(id).status().IsNotFound()) << "txn " << id;
  }
}

TEST_F(ServerTest, CheckInAppliesWorkstationChanges) {
  // A check-out FOR UPDATE of a synthetic object; check-in bumps payloads.
  sim::SyntheticParams p;
  p.depth = 1;
  p.refs_per_leaf = 0;
  p.num_objects = 1;
  sim::SyntheticFixture sf = sim::BuildSynthetic(p);
  Server server(sf.catalog.get(), sf.store.get());

  std::vector<nf2::ObjectId> ids = sf.store->ObjectsOf(sf.main_relation);
  int64_t before =
      (*sf.store->Get(sf.main_relation, ids[0]))->root.children()[1].as_int();

  query::Query q;
  q.relation = sf.main_relation;
  q.kind = query::AccessKind::kUpdate;
  Result<CheckOutTicket> ticket = server.CheckOut(1, q);
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(server.CheckIn(*ticket).ok());

  int64_t after =
      (*sf.store->Get(sf.main_relation, ids[0]))->root.children()[1].as_int();
  // Check-out executed the update once and check-in re-applied it once.
  EXPECT_EQ(after, before + 2);
}

TEST_F(ServerTest, CheckInUnknownTicketFails) {
  Server server(f_.catalog.get(), f_.store.get());
  CheckOutTicket bogus;
  bogus.txn = 999;
  EXPECT_TRUE(server.CheckIn(bogus).IsNotFound());
}

TEST_F(ServerTest, DoubleCheckInFails) {
  Server server(f_.catalog.get(), f_.store.get());
  Result<CheckOutTicket> ticket = server.CheckOut(1, query::MakeQ2(f_.cells));
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(server.CheckIn(*ticket).ok());
  EXPECT_FALSE(server.CheckIn(*ticket).ok());
}

}  // namespace
}  // namespace codlock::ws
