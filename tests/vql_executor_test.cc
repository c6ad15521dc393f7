#include "oodb/query/executor.h"

#include <gtest/gtest.h>

#include "oodb/builtins.h"
#include "oodb/query/parser.h"

namespace sdms::oodb::vql {
namespace {

class VqlExecutorTest : public testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(Database::Options{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(RegisterBuiltins(*db_).ok());

    ClassDef doc;
    doc.name = "DOC";
    doc.super = kObjectClass;
    doc.attributes = {
        AttributeDef{"YEAR", ValueType::kInt, Value()},
        AttributeDef{"TITLE", ValueType::kString, Value()},
    };
    ASSERT_TRUE(db_->schema().DefineClass(std::move(doc)).ok());

    ClassDef para;
    para.name = "PARA";
    para.super = kObjectClass;
    para.attributes = {
        AttributeDef{"DOC", ValueType::kOid, Value()},
        AttributeDef{"LEN", ValueType::kInt, Value()},
    };
    ASSERT_TRUE(db_->schema().DefineClass(std::move(para)).ok());

    // Three docs with years 1993..1995, each with 2 paragraphs.
    for (int d = 0; d < 3; ++d) {
      Oid doc_oid = *db_->CreateObject("DOC");
      docs_.push_back(doc_oid);
      ASSERT_TRUE(db_->SetAttribute(doc_oid, "YEAR", Value(1993 + d)).ok());
      ASSERT_TRUE(
          db_->SetAttribute(doc_oid, "TITLE", Value("doc" + std::to_string(d)))
              .ok());
      for (int p = 0; p < 2; ++p) {
        Oid para_oid = *db_->CreateObject("PARA");
        ASSERT_TRUE(db_->SetAttribute(para_oid, "DOC", Value(doc_oid)).ok());
        ASSERT_TRUE(
            db_->SetAttribute(para_oid, "LEN", Value(10 * d + p)).ok());
      }
    }
    engine_ = std::make_unique<QueryEngine>(db_.get());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<QueryEngine> engine_;
  std::vector<Oid> docs_;
};

TEST_F(VqlExecutorTest, ScanAll) {
  auto r = engine_->Run("ACCESS d FROM d IN DOC");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(engine_->last_stats().rows_emitted, 3u);
}

TEST_F(VqlExecutorTest, WhereFilter) {
  auto r = engine_->Run("ACCESS d FROM d IN DOC WHERE d.YEAR >= 1994");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(VqlExecutorTest, SelectExpressions) {
  auto r = engine_->Run(
      "ACCESS d.TITLE, d.YEAR + 1 FROM d IN DOC WHERE d.YEAR == 1993");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_string(), "doc0");
  EXPECT_TRUE(r->rows[0][1].Equals(Value(1994)));
}

TEST_F(VqlExecutorTest, MethodCallInQuery) {
  auto r = engine_->Run(
      "ACCESS d -> getAttributeValue('TITLE') FROM d IN DOC "
      "WHERE d -> getAttributeValue('YEAR') == 1995");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].as_string(), "doc2");
}

TEST_F(VqlExecutorTest, Join) {
  auto r = engine_->Run(
      "ACCESS d.TITLE, p.LEN FROM d IN DOC, p IN PARA WHERE p.DOC == d");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 6u);
}

TEST_F(VqlExecutorTest, JoinWithFilter) {
  auto r = engine_->Run(
      "ACCESS p FROM d IN DOC, p IN PARA "
      "WHERE p.DOC == d AND d.YEAR == 1994 AND p.LEN > 10");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);  // LEN 11 only.
}

TEST_F(VqlExecutorTest, OrderByDescAndLimit) {
  auto r = engine_->Run(
      "ACCESS d.YEAR FROM d IN DOC ORDER BY d.YEAR DESC LIMIT 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_TRUE(r->rows[0][0].Equals(Value(1995)));
  EXPECT_TRUE(r->rows[1][0].Equals(Value(1994)));
  // Hidden sort key is stripped.
  EXPECT_EQ(r->rows[0].size(), 1u);
}

TEST_F(VqlExecutorTest, OrderByAscending) {
  auto r = engine_->Run("ACCESS p.LEN FROM p IN PARA ORDER BY p.LEN");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 6u);
  for (size_t i = 1; i < r->rows.size(); ++i) {
    EXPECT_LE(r->rows[i - 1][0].as_int(), r->rows[i][0].as_int());
  }
}

TEST_F(VqlExecutorTest, IndexUsedWhenAvailable) {
  ASSERT_TRUE(db_->CreateIndex("DOC", "YEAR").ok());
  auto r = engine_->Run("ACCESS d FROM d IN DOC WHERE d.YEAR == 1994");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(engine_->last_stats().index_lookups, 1u);
  // Only the single indexed candidate is scanned.
  EXPECT_EQ(engine_->last_stats().bindings_scanned, 1u);

  engine_->options().use_indexes = false;
  r = engine_->Run("ACCESS d FROM d IN DOC WHERE d.YEAR == 1994");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(engine_->last_stats().index_lookups, 0u);
  EXPECT_EQ(engine_->last_stats().bindings_scanned, 3u);
}

TEST_F(VqlExecutorTest, IndexViaGetAttributeValueForm) {
  ASSERT_TRUE(db_->CreateIndex("DOC", "YEAR").ok());
  auto r = engine_->Run(
      "ACCESS d FROM d IN DOC WHERE d -> getAttributeValue('YEAR') == 1995");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(engine_->last_stats().index_lookups, 1u);
}

TEST_F(VqlExecutorTest, BindingReorderPrefersSmallExtent) {
  // PARA extent (6) larger than DOC (3): with reorder, DOC is outer.
  auto r = engine_->Run(
      "ACCESS d, p FROM p IN PARA, d IN DOC WHERE p.DOC == d");
  ASSERT_TRUE(r.ok());
  uint64_t with_reorder = engine_->last_stats().tuples_considered;
  engine_->options().reorder_bindings = false;
  r = engine_->Run("ACCESS d, p FROM p IN PARA, d IN DOC WHERE p.DOC == d");
  ASSERT_TRUE(r.ok());
  uint64_t without = engine_->last_stats().tuples_considered;
  EXPECT_LE(with_reorder, without);
}

TEST_F(VqlExecutorTest, CandidateOverrideRestrictsScan) {
  engine_->SetCandidateOverride("d", {docs_[1]});
  auto r = engine_->Run("ACCESS d FROM d IN DOC");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
  // Override is consumed by the run.
  r = engine_->Run("ACCESS d FROM d IN DOC");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 3u);
}

TEST_F(VqlExecutorTest, PrepareHookRuns) {
  int calls = 0;
  engine_->AddPrepareHook([&](Database&, const ParsedQuery&, BoundCalls&) {
    ++calls;
    return Status::OK();
  });
  ASSERT_TRUE(engine_->Run("ACCESS d FROM d IN DOC").ok());
  EXPECT_EQ(calls, 1);
}

TEST_F(VqlExecutorTest, BoundCallAnswersForClassesThatDispatchToIt) {
  // DOC and PARA each define `score`; a hook binds the call to DOC's
  // implementation, so DOC receivers go to the bound call and PARA
  // receivers keep their own method.
  db_->methods().Register("DOC", "score",
                          [](const MethodContext&, Oid,
                             const std::vector<Value>&) -> StatusOr<Value> {
                            return Value(1);
                          });
  db_->methods().Register("PARA", "score",
                          [](const MethodContext&, Oid,
                             const std::vector<Value>&) -> StatusOr<Value> {
                            return Value(2);
                          });
  struct Bound : BoundCall {
    int* calls;
    int* flushes;
    StatusOr<Value> Call(Oid) override {
      ++*calls;
      return Value(42);
    }
    void Flush() override { ++*flushes; }
  };
  int calls = 0;
  int flushes = 0;
  engine_->AddPrepareHook(
      [&](Database& db, const ParsedQuery& query, BoundCalls& bound) {
        auto method = db.methods().Resolve(db.schema(), "DOC", "score");
        if (!method.ok()) return method.status();
        auto b = std::make_unique<Bound>();
        b->calls = &calls;
        b->flushes = &flushes;
        bound.Bind(query.select[1].get(), *method, std::move(b));
        return Status::OK();
      });
  auto r = engine_->Run("ACCESS d, d -> score() FROM d IN Object");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int docs = 0;
  for (const auto& row : r->rows) {
    auto cls = db_->ClassOf(row[0].as_oid());
    ASSERT_TRUE(cls.ok());
    if (*cls == "DOC") {
      ++docs;
      EXPECT_EQ(row[1].as_int(), 42);
    } else {
      EXPECT_EQ(row[1].as_int(), 2);
    }
  }
  EXPECT_EQ(docs, 3);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(flushes, 1);
}

// --- The join reads a bound variable's attributes from the object it
// fetched for the binding; these pin that read to Database::GetAttribute.

/// Defines NOTE (RANK defaults to 5, TAG to null) and stores two NOTEs:
/// one created normally, and one inserted bare, without the schema
/// defaults CreateObject applies (as an older snapshot may hold it).
std::vector<Oid> AddNotes(Database& db) {
  ClassDef note;
  note.name = "NOTE";
  note.super = kObjectClass;
  note.attributes = {
      AttributeDef{"RANK", ValueType::kInt, Value(5)},
      AttributeDef{"TAG", ValueType::kString, Value()},
  };
  EXPECT_TRUE(db.schema().DefineClass(std::move(note)).ok());
  Oid created = *db.CreateObject("NOTE");
  EXPECT_TRUE(db.SetAttribute(created, "TAG", Value("x")).ok());
  Oid bare = db.store().AllocateOid();
  EXPECT_TRUE(db.store().Insert(DbObject(bare, "NOTE")).ok());
  return {created, bare};
}

TEST_F(VqlExecutorTest, BoundVariableDeclaredButUnsetGivesSchemaDefault) {
  std::vector<Oid> notes = AddNotes(*db_);
  ASSERT_FALSE(db_->store().Find(notes[1])->Has("RANK"));
  for (const std::string vql :
       {"ACCESS n, n.RANK, n.TAG FROM n IN NOTE",
        "ACCESS n, n -> getAttributeValue('RANK'), "
        "n -> getAttributeValue('TAG') FROM n IN NOTE"}) {
    SCOPED_TRACE(vql);
    auto r = engine_->Run(vql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 2u);
    for (const auto& row : r->rows) {
      Oid oid = row[0].as_oid();
      EXPECT_EQ(row[1].type(), ValueType::kInt);
      EXPECT_EQ(row[1].as_int(), 5);
      EXPECT_TRUE(row[1].Equals(*db_->GetAttribute(oid, "RANK")));
      EXPECT_TRUE(row[2].Equals(*db_->GetAttribute(oid, "TAG")));
      EXPECT_EQ(row[2].is_null(), oid == notes[1]);
    }
  }
  // And in WHERE: the bare object passes on its default.
  auto r = engine_->Run("ACCESS n FROM n IN NOTE WHERE n.RANK == 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(VqlExecutorTest, BoundVariableUndeclaredAttributeIsSameNotFound) {
  StatusOr<Value> want = db_->GetAttribute(docs_[0], "NOPE");
  ASSERT_TRUE(want.status().IsNotFound());
  for (const std::string vql :
       {"ACCESS d.NOPE FROM d IN DOC",
        "ACCESS d FROM d IN DOC WHERE d.NOPE == 1",
        "ACCESS d -> getAttributeValue('NOPE') FROM d IN DOC",
        "ACCESS d FROM d IN DOC, p IN PARA WHERE p.DOC == d AND d.NOPE == 1"}) {
    SCOPED_TRACE(vql);
    auto r = engine_->Run(vql);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), want.status().code());
    EXPECT_EQ(r.status().message(), want.status().message());
  }
}

TEST_F(VqlExecutorTest, NonVariableReceiverKeepsGetAttributePath) {
  // `p.DOC` evaluates to an OID, not a bound variable: its attribute
  // is read through Database::GetAttribute.
  auto r = engine_->Run(
      "ACCESS p.DOC.YEAR, p.DOC.TITLE FROM p IN PARA WHERE p.LEN == 21");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(r->rows[0][0].Equals(Value(1995)));
  EXPECT_EQ(r->rows[0][1].as_string(), "doc2");
  auto missing = engine_->Run("ACCESS p.DOC.NOPE FROM p IN PARA");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().message(),
            db_->GetAttribute(docs_[0], "NOPE").status().message());
}

TEST_F(VqlExecutorTest, SetAttributeValueOnBoundVariableIsSeenInSameStatement) {
  auto r = engine_->Run(
      "ACCESS d.YEAR, d.TITLE FROM d IN DOC "
      "WHERE d -> setAttributeValue('YEAR', 2000) AND d.YEAR == 2000");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  for (const auto& row : r->rows) EXPECT_TRUE(row[0].Equals(Value(2000)));
  EXPECT_EQ(r->rows[1][1].as_string(), "doc1");
  // Setting an attribute an object did not hold adds it mid-statement.
  std::vector<Oid> notes = AddNotes(*db_);
  auto tagged = engine_->Run(
      "ACCESS n, n.TAG, n.RANK FROM n IN NOTE "
      "WHERE n -> setAttributeValue('TAG', 'y') AND n.TAG == 'y'");
  ASSERT_TRUE(tagged.ok()) << tagged.status().ToString();
  ASSERT_EQ(tagged->rows.size(), 2u);
  for (const auto& row : tagged->rows) {
    EXPECT_EQ(row[1].as_string(), "y");
    EXPECT_EQ(row[2].as_int(), 5);
  }
  EXPECT_EQ(db_->GetAttribute(notes[1], "TAG")->as_string(), "y");
}

TEST_F(VqlExecutorTest, UnknownClassFails) {
  EXPECT_FALSE(engine_->Run("ACCESS x FROM x IN NOPE").ok());
}

TEST_F(VqlExecutorTest, UnboundVariableFails) {
  EXPECT_FALSE(
      engine_->Run("ACCESS d FROM d IN DOC WHERE q.YEAR == 1").ok());
}

TEST_F(VqlExecutorTest, ArithmeticAndLogic) {
  auto r = engine_->Run(
      "ACCESS 2 + 3 * 4, 10 / 4, 'a' + 'b', NOT FALSE, 1 < 2 OR FALSE "
      "FROM d IN DOC LIMIT 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(r->rows[0][0].Equals(Value(14)));
  EXPECT_TRUE(r->rows[0][1].Equals(Value(2.5)));
  EXPECT_EQ(r->rows[0][2].as_string(), "ab");
  EXPECT_TRUE(r->rows[0][3].Equals(Value(true)));
  EXPECT_TRUE(r->rows[0][4].Equals(Value(true)));
}

TEST_F(VqlExecutorTest, DivisionByZeroFails) {
  EXPECT_FALSE(engine_->Run("ACCESS 1 / 0 FROM d IN DOC").ok());
}

TEST_F(VqlExecutorTest, NullComparisonsAreFalse) {
  // TITLE of a fresh object is null; ordering comparisons are false.
  Oid fresh = *db_->CreateObject("DOC");
  (void)fresh;
  auto r = engine_->Run("ACCESS d FROM d IN DOC WHERE d.YEAR > 0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 3u);  // The fresh object has null YEAR.
}

TEST_F(VqlExecutorTest, DistinctRemovesDuplicateRows) {
  // Joining DOC with its paragraphs duplicates the title per paragraph.
  auto dup = engine_->Run(
      "ACCESS d.TITLE FROM d IN DOC, p IN PARA WHERE p.DOC == d");
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->rows.size(), 6u);
  auto distinct = engine_->Run(
      "ACCESS DISTINCT d.TITLE FROM d IN DOC, p IN PARA WHERE p.DOC == d");
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(distinct->rows.size(), 3u);
}

TEST_F(VqlExecutorTest, DistinctWithOrderByAndLimit) {
  auto r = engine_->Run(
      "ACCESS DISTINCT d.YEAR FROM d IN DOC, p IN PARA "
      "WHERE p.DOC == d ORDER BY d.YEAR DESC LIMIT 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_TRUE(r->rows[0][0].Equals(Value(1995)));
  EXPECT_TRUE(r->rows[1][0].Equals(Value(1994)));
}

TEST_F(VqlExecutorTest, DistinctRoundTripsThroughToString) {
  auto q = ParseQuery("ACCESS DISTINCT d FROM d IN DOC");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->distinct);
  auto q2 = ParseQuery(q->ToString());
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(q2->distinct);
}

TEST_F(VqlExecutorTest, ExplainShowsPlan) {
  ASSERT_TRUE(db_->CreateIndex("DOC", "YEAR").ok());
  auto plan = engine_->Explain(
      "ACCESS d, p FROM p IN PARA, d IN DOC "
      "WHERE d.YEAR == 1994 AND p.DOC == d AND p.LEN > 5 "
      "ORDER BY p.LEN LIMIT 3");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("index/injected candidates"), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("filter: (p.LEN > 5)"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("join:   (p.DOC == d)"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("sort: p.LEN ASC"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("limit: 3"), std::string::npos) << *plan;
}

TEST_F(VqlExecutorTest, ResultTableRendering) {
  auto r = engine_->Run("ACCESS d.YEAR FROM d IN DOC ORDER BY d.YEAR");
  ASSERT_TRUE(r.ok());
  std::string table = r->ToTable();
  EXPECT_NE(table.find("d.YEAR"), std::string::npos);
  EXPECT_NE(table.find("1993"), std::string::npos);
}

TEST_F(VqlExecutorTest, ResultTableTruncation) {
  auto r = engine_->Run("ACCESS p FROM p IN PARA");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 6u);
  std::string table = r->ToTable(/*max_rows=*/2);
  EXPECT_NE(table.find("(4 more rows)"), std::string::npos) << table;
}

}  // namespace
}  // namespace sdms::oodb::vql
