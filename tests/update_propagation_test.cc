#include <gtest/gtest.h>

#include "common/fault/fault.h"
#include "coupling_test_util.h"

namespace sdms::coupling {
namespace {

using testutil::MakeFigure4System;

/// Adds a new www-bearing paragraph to document `root`; returns its OID.
Oid AddParagraph(testutil::CoupledSystem& sys, Oid root,
                 const std::string& text) {
  oodb::Database& db = *sys.db;
  oodb::TxnId txn = db.Begin();
  Oid para = *db.CreateObject("PARA", txn);
  EXPECT_TRUE(db.SetAttribute(para, "GI", oodb::Value("PARA"), txn).ok());
  EXPECT_TRUE(db.SetAttribute(para, "TEXT", oodb::Value(text), txn).ok());
  EXPECT_TRUE(db.SetAttribute(para, "PARENT", oodb::Value(root), txn).ok());
  EXPECT_TRUE(
      db.SetAttribute(para, "CHILDREN", oodb::Value(oodb::ValueList{}), txn)
          .ok());
  auto children = db.GetAttribute(root, "CHILDREN");
  EXPECT_TRUE(children.ok());
  oodb::ValueList list = children->as_list();
  list.push_back(oodb::Value(para));
  EXPECT_TRUE(
      db.SetAttribute(root, "CHILDREN", oodb::Value(std::move(list)), txn)
          .ok());
  EXPECT_TRUE(db.Commit(txn).ok());
  return para;
}

TEST(UpdatePropagationTest, OnQueryPolicyDefersUntilQuery) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  coll->set_propagation_policy(PropagationPolicy::kOnQuery);

  Oid fresh = AddParagraph(*sys, sys->roots[0], "zebra topic paragraph");
  EXPECT_GT(coll->pending_updates(), 0u);
  EXPECT_FALSE(coll->Represents(fresh));

  // The query enforces propagation first (Section 4.6).
  auto result = coll->GetIrsResult("zebra");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(coll->Represents(fresh));
  EXPECT_EQ(coll->pending_updates(), 0u);
  EXPECT_EQ((*result)->count(fresh), 1u);
}

TEST(UpdatePropagationTest, EagerPolicyIndexesImmediately) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  coll->set_propagation_policy(PropagationPolicy::kEager);

  Oid fresh = AddParagraph(*sys, sys->roots[0], "yonder topic paragraph");
  EXPECT_TRUE(coll->Represents(fresh));
  EXPECT_EQ(coll->pending_updates(), 0u);
}

TEST(UpdatePropagationTest, ManualPolicyServesStaleResults) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  coll->set_propagation_policy(PropagationPolicy::kManual);

  Oid fresh = AddParagraph(*sys, sys->roots[0], "quokka topic paragraph");
  auto result = coll->GetIrsResult("quokka");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->count(fresh), 0u);  // Stale: not propagated.
  EXPECT_GT(coll->pending_updates(), 0u);

  // Explicit propagation (e.g. in a low-load period) catches up.
  ASSERT_TRUE(coll->PropagateUpdates().ok());
  result = coll->GetIrsResult("quokka");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->count(fresh), 1u);
}

TEST(UpdatePropagationTest, ModifyReindexesText) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  Oid para = *coll->represented().begin();

  ASSERT_TRUE(
      sys->db->SetAttribute(para, "TEXT", oodb::Value("xylophone solo")).ok());
  auto result = coll->GetIrsResult("xylophone");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->count(para), 1u);
  EXPECT_GT(coll->stats().reindex_ops, 0u);
}

TEST(UpdatePropagationTest, DeleteRemovesFromIrs) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  // P1 carries www.
  auto www_before = coll->GetIrsResult("www");
  ASSERT_TRUE(www_before.ok());
  size_t before = (*www_before)->size();
  ASSERT_GT(before, 0u);
  Oid victim = www_before.value()->begin()->first;

  ASSERT_TRUE(sys->coupling->DeleteSubtree(victim).ok());
  auto www_after = coll->GetIrsResult("www");
  ASSERT_TRUE(www_after.ok());
  EXPECT_EQ((*www_after)->size(), before - 1);
  EXPECT_FALSE(coll->Represents(victim));
}

TEST(UpdatePropagationTest, InsertThenDeleteCancelsOut) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  coll->set_propagation_policy(PropagationPolicy::kOnQuery);

  Oid fresh = AddParagraph(*sys, sys->roots[0], "ephemeral content");
  ASSERT_TRUE(sys->coupling->DeleteSubtree(fresh).ok());
  // The net update log holds only the root-document modifies (ancestor
  // text changes), not the insert/delete pair.
  EXPECT_FALSE(coll->update_log().Has(fresh));
  uint64_t reindex_before = coll->stats().reindex_ops;
  ASSERT_TRUE(coll->PropagateUpdates().ok());
  // The fresh paragraph never reached the IRS.
  EXPECT_FALSE(coll->Represents(fresh));
  auto result = coll->GetIrsResult("ephemeral");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE((*result)->empty());
  EXPECT_EQ(coll->stats().reindex_ops, reindex_before);
}

TEST(UpdatePropagationTest, AncestorCollectionsSeeDescendantEdits) {
  auto sys = MakeFigure4System();
  // Add a document-level collection too.
  auto docs = sys->coupling->CreateCollection("docs", "inquery");
  ASSERT_TRUE(docs.ok());
  ASSERT_TRUE(
      (*docs)
          ->IndexObjects("ACCESS d FROM d IN MMFDOC", kTextModeSubtree)
          .ok());

  // Edit a paragraph of M1: the MMFDOC's subtree text changes too.
  auto paras = sys->coupling->ChildrenOf(sys->roots[0]);
  ASSERT_TRUE(paras.ok());
  Oid p1 = (*paras)[1];
  ASSERT_TRUE(
      sys->db->SetAttribute(p1, "TEXT", oodb::Value("wombat research")).ok());

  auto hits = (*docs)->GetIrsResult("wombat");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ((*hits)->count(sys->roots[0]), 1u);
}

TEST(UpdatePropagationTest, PropagationInvalidatesBuffer) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  ASSERT_TRUE(coll->GetIrsResult("www").ok());
  EXPECT_GT(coll->buffer().size(), 0u);

  Oid para = *coll->represented().begin();
  ASSERT_TRUE(
      sys->db->SetAttribute(para, "TEXT", oodb::Value("fresh www text"))
          .ok());
  // Next query propagates and must not reuse the stale buffer.
  auto result = coll->GetIrsResult("www");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->count(para), 1u);
}

TEST(UpdatePropagationTest, SpecFilterRespectedOnInsert) {
  auto sys = MakeFigure4System();
  // Collection of paragraphs longer than 100 tokens: nothing initially.
  auto big = sys->coupling->CreateCollection("big_paras", "inquery");
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE((*big)
                  ->IndexObjects(
                      "ACCESS p FROM p IN PARA WHERE p -> length() > 100",
                      kTextModeSubtree)
                  .ok());
  EXPECT_EQ((*big)->represented_count(), 0u);

  // A short insert does not qualify.
  Oid small = AddParagraph(*sys, sys->roots[0], "tiny");
  ASSERT_TRUE((*big)->PropagateUpdates().ok());
  EXPECT_FALSE((*big)->Represents(small));

  // A long one does.
  std::string long_text;
  for (int i = 0; i < 120; ++i) long_text += "verylongword" + std::to_string(i) + " ";
  Oid large = AddParagraph(*sys, sys->roots[0], long_text);
  ASSERT_TRUE((*big)->PropagateUpdates().ok());
  EXPECT_TRUE((*big)->Represents(large));
}

/// Fixture for propagation-under-fault tests: clears the process-wide
/// fault registry around each test and provides no-retry guard options
/// so a single armed fault deterministically fails one propagation.
class PropagationFaultTest : public testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Instance().Clear();
    fault::FaultRegistry::Instance().SetSeed(42);
  }
  void TearDown() override { fault::FaultRegistry::Instance().Clear(); }

  static CouplingOptions NoRetryOptions() {
    CouplingOptions options;
    options.call_guard.retry.max_attempts = 1;
    options.call_guard.breaker.failure_threshold = 1000;
    return options;
  }

  static void ArmIoError(const std::string& point, uint64_t max_fires) {
    fault::FaultRule rule;
    rule.kind = fault::FaultKind::kIoError;
    rule.max_fires = max_fires;
    fault::FaultRegistry::Instance().Arm(point, rule);
  }
};

TEST_F(PropagationFaultTest, LostUpdateRequeuedOnFailure) {
  auto sys = MakeFigure4System(NoRetryOptions());
  auto coll = *sys->coupling->GetCollectionByName("paras");
  Oid para = *coll->represented().begin();
  ASSERT_TRUE(
      sys->db->SetAttribute(para, "TEXT", oodb::Value("requeued edit")).ok());
  ASSERT_EQ(coll->pending_updates(), 1u);

  // The IRS fails exactly once: the drained modify must go back into
  // the log instead of vanishing (the lost-update bug).
  ArmIoError("coupling.irs_call", 1);
  EXPECT_FALSE(coll->PropagateUpdates().ok());
  EXPECT_EQ(coll->pending_updates(), 1u);
  EXPECT_TRUE(coll->update_log().Has(para));

  // Fault exhausted: the replay applies the edit exactly once.
  ASSERT_TRUE(coll->PropagateUpdates().ok());
  EXPECT_EQ(coll->pending_updates(), 0u);
  auto result = coll->GetIrsResult("requeued");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->count(para), 1u);
}

TEST_F(PropagationFaultTest, InsertBatchFailureRequeuesInserts) {
  auto sys = MakeFigure4System(NoRetryOptions());
  auto coll = *sys->coupling->GetCollectionByName("paras");
  coll->set_propagation_policy(PropagationPolicy::kManual);
  Oid a = AddParagraph(*sys, sys->roots[0], "gadfly one");
  Oid b = AddParagraph(*sys, sys->roots[0], "gadfly two");
  ASSERT_EQ(coll->pending_updates(), 2u);

  // The apply fails without side effects; both inserts requeue.
  ArmIoError("irs.apply", 1);
  EXPECT_FALSE(coll->PropagateUpdates().ok());
  EXPECT_EQ(coll->pending_updates(), 2u);
  EXPECT_FALSE(coll->Represents(a));
  EXPECT_FALSE(coll->Represents(b));

  ASSERT_TRUE(coll->PropagateUpdates().ok());
  EXPECT_TRUE(coll->Represents(a));
  EXPECT_TRUE(coll->Represents(b));
  auto result = coll->GetIrsResult("gadfly");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->size(), 2u);
}

TEST_F(PropagationFaultTest, FailedSubBatchRequeuesWholeAndAppliesNothing) {
  auto sys = MakeFigure4System(NoRetryOptions());
  auto coll = *sys->coupling->GetCollectionByName("paras");
  auto irs_coll = *sys->irs_engine->GetCollection("paras");
  coll->set_propagation_policy(PropagationPolicy::kManual);
  // Two deletes in one shard's sub-batch: one apply, which faults.
  auto it = coll->represented().begin();
  Oid first = *it++;
  Oid second = *it;
  ASSERT_EQ(irs_coll->ShardOfKey(first.ToString()),
            irs_coll->ShardOfKey(second.ToString()));
  ASSERT_TRUE(sys->coupling->DeleteSubtree(first).ok());
  ASSERT_TRUE(sys->coupling->DeleteSubtree(second).ok());
  ASSERT_EQ(coll->pending_updates(), 2u);
  const std::string digest_before = irs_coll->CanonicalDigest();
  const uint64_t removed_before = irs_coll->stats().docs_removed;

  ArmIoError("coupling.irs_call", 1);
  EXPECT_FALSE(coll->PropagateUpdates().ok());
  // Nothing applied, everything requeued.
  EXPECT_EQ(coll->pending_updates(), 2u);
  EXPECT_TRUE(coll->Represents(first));
  EXPECT_TRUE(coll->Represents(second));
  EXPECT_EQ(irs_coll->CanonicalDigest(), digest_before);

  // The replay removes each document exactly once.
  ASSERT_TRUE(coll->PropagateUpdates().ok());
  EXPECT_FALSE(coll->Represents(first));
  EXPECT_FALSE(coll->Represents(second));
  EXPECT_EQ(coll->pending_updates(), 0u);
  EXPECT_EQ(irs_coll->stats().docs_removed - removed_before, 2u);
}

// --- Duplicate delivery ------------------------------------------------
//
// Crash recovery re-delivers WAL update events and journaled batches;
// exactly-once means a second delivery of the same effect must be a
// no-op at every layer: the route guard drops events at or below the
// routed high-water mark, and ops that legitimately re-enter the log
// (journal requeue) reconcile against the index instead of failing or
// double-applying.

TEST(DuplicateDeliveryTest, RouteGuardDropsReplayedEvents) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  Oid para = *coll->represented().begin();
  uint64_t high = coll->last_routed_seq();
  ASSERT_GT(high, 0u);

  // Recovery re-delivering already-covered events: all dropped, no
  // pending work appears.
  sys->coupling->OnUpdate(oodb::UpdateKind::kInsert, para, "PARA", "", high);
  sys->coupling->OnUpdate(oodb::UpdateKind::kModify, para, "PARA", "TEXT",
                          high);
  sys->coupling->OnUpdate(oodb::UpdateKind::kDelete, para, "PARA", "", high);
  EXPECT_EQ(coll->pending_updates(), 0u);
  EXPECT_TRUE(coll->Represents(para));
  EXPECT_EQ(coll->last_routed_seq(), high);
}

TEST(DuplicateDeliveryTest, RequeuedInsertOfRepresentedObjectReconciles) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  auto irs_coll = *sys->irs_engine->GetCollection("paras");
  Oid para = *coll->represented().begin();
  std::string digest_before = irs_coll->CanonicalDigest();

  // A journal requeue can re-deliver an insert whose document already
  // sits in the restored index. It must not be dropped — a net insert
  // can carry a folded modify — so the batch path reconciles it as an
  // update, which for unchanged database content converges to the
  // bit-identical index.
  sys->coupling->OnUpdate(oodb::UpdateKind::kInsert, para, "PARA", "",
                          coll->last_routed_seq() + 1);
  ASSERT_EQ(coll->pending_updates(), 1u);
  ASSERT_TRUE(coll->PropagateUpdates().ok());
  EXPECT_EQ(coll->pending_updates(), 0u);
  EXPECT_TRUE(coll->Represents(para));
  EXPECT_EQ(irs_coll->CanonicalDigest(), digest_before);
}

TEST(DuplicateDeliveryTest, ReplayedModifyConvergesToSameIndex) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  Oid para = *coll->represented().begin();
  ASSERT_TRUE(
      sys->db->SetAttribute(para, "TEXT", oodb::Value("walrus prose")).ok());
  ASSERT_TRUE(coll->PropagateUpdates().ok());

  // Re-delivering the modify re-derives the text from the database, so
  // applying it a second time converges to the identical document.
  sys->coupling->OnUpdate(oodb::UpdateKind::kModify, para, "PARA", "TEXT",
                          coll->last_routed_seq() + 1);
  ASSERT_TRUE(coll->PropagateUpdates().ok());
  auto result = coll->GetIrsResult("walrus");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->size(), 1u);
  EXPECT_EQ((*result)->count(para), 1u);
}

TEST_F(PropagationFaultTest, FailedBatchAppliesTheUpdateOnce) {
  // A re-delivered insert of a represented paragraph (applied as an
  // update) and a fresh insert (an add) on one shard. Returns the
  // documents the IRS collection removed while propagating them, and
  // the index digest afterwards.
  auto run = [](bool fail_batch) -> std::pair<uint64_t, std::string> {
    auto sys = MakeFigure4System(NoRetryOptions());
    auto coll = *sys->coupling->GetCollectionByName("paras");
    auto irs_coll = *sys->irs_engine->GetCollection("paras");
    coll->set_propagation_policy(PropagationPolicy::kManual);
    Oid para = *coll->represented().begin();
    AddParagraph(*sys, sys->roots[0], "gadfly prose");
    sys->coupling->OnUpdate(oodb::UpdateKind::kInsert, para, "PARA", "",
                            coll->last_routed_seq() + 1);
    EXPECT_EQ(coll->pending_updates(), 2u);
    const uint64_t removed_before = irs_coll->stats().docs_removed;
    if (fail_batch) {
      // The staged apply fails before touching the index: the update
      // and the add both requeue.
      ArmIoError("irs.apply", 1);
      EXPECT_FALSE(coll->PropagateUpdates().ok());
      EXPECT_EQ(coll->pending_updates(), 2u);
    }
    EXPECT_TRUE(coll->PropagateUpdates().ok());
    EXPECT_EQ(coll->pending_updates(), 0u);
    return {irs_coll->stats().docs_removed - removed_before,
            irs_coll->CanonicalDigest()};
  };
  const auto [removed_clean, digest_clean] = run(false);
  const auto [removed_faulted, digest_faulted] = run(true);
  EXPECT_EQ(removed_clean, 1u);
  EXPECT_EQ(removed_faulted, 1u) << "the update was applied twice";
  EXPECT_EQ(digest_faulted, digest_clean);
}

TEST_F(PropagationFaultTest, FaultedModifyThenDeleteReconciles) {
  auto sys = MakeFigure4System(NoRetryOptions());
  auto coll = *sys->coupling->GetCollectionByName("paras");
  auto irs_coll = *sys->irs_engine->GetCollection("paras");
  Oid para = *coll->represented().begin();
  const std::string digest_before = irs_coll->CanonicalDigest();
  ASSERT_TRUE(
      sys->db->SetAttribute(para, "TEXT", oodb::Value("doomed text")).ok());

  // The update's apply faults while staging: the old document survives
  // untouched and the object stays represented.
  ArmIoError("irs.apply", 1);
  EXPECT_FALSE(coll->PropagateUpdates().ok());
  EXPECT_TRUE(irs_coll->HasDocument(para.ToString()));
  EXPECT_TRUE(coll->Represents(para));
  EXPECT_EQ(irs_coll->CanonicalDigest(), digest_before);

  // The object is then deleted; the requeued modify folds into the
  // delete, whose replay removes the old document.
  ASSERT_TRUE(sys->coupling->DeleteSubtree(para).ok());
  ASSERT_TRUE(coll->PropagateUpdates().ok());
  EXPECT_FALSE(coll->Represents(para));
  EXPECT_FALSE(irs_coll->HasDocument(para.ToString()));
  EXPECT_EQ(coll->pending_updates(), 0u);
}

TEST_F(PropagationFaultTest, FaultedModifyKeepsTheOldDocument) {
  auto sys = MakeFigure4System(NoRetryOptions());
  auto coll = *sys->coupling->GetCollectionByName("paras");
  auto irs_coll = *sys->irs_engine->GetCollection("paras");
  Oid para = *coll->represented().begin();
  const std::string digest_before = irs_coll->CanonicalDigest();
  ASSERT_TRUE(
      sys->db->SetAttribute(para, "TEXT", oodb::Value("phoenix text")).ok());

  // The update's apply faults: the index keeps the old document, so
  // the object never drops out of search results.
  ArmIoError("irs.apply", 1);
  EXPECT_FALSE(coll->PropagateUpdates().ok());
  EXPECT_EQ(coll->pending_updates(), 1u);
  EXPECT_TRUE(irs_coll->HasDocument(para.ToString()));
  EXPECT_EQ(irs_coll->CanonicalDigest(), digest_before);

  // The replayed modify applies as an update.
  ASSERT_TRUE(coll->PropagateUpdates().ok());
  auto result = coll->GetIrsResult("phoenix");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->count(para), 1u);
}

}  // namespace
}  // namespace sdms::coupling
