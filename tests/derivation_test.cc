#include "coupling/derivation.h"

#include <gtest/gtest.h>

#include <map>

#include "irs/analysis/analyzer.h"

namespace sdms::coupling {
namespace {

/// Synthetic derivation environment: components with fixed per-term
/// values, no database involved. Values for a multi-term query are the
/// mean of the per-term values (mimicking #sum), which is what
/// ComponentValue returns when called with the full query.
class FakeEnv : public DerivationContext {
 public:
  /// components: oid -> (term -> value); class/length per oid.
  void AddComponent(uint64_t oid, std::map<std::string, double> term_values,
                    std::string cls = "PARA", double length = 30) {
    components_.push_back(Oid(oid));
    term_values_[Oid(oid)] = std::move(term_values);
    classes_[Oid(oid)] = std::move(cls);
    lengths_[Oid(oid)] = length;
  }

  /// Points the context at `query`, parsed with `analyzer`.
  DerivationContext& MakeContext(const std::string& query,
                                 double default_value = 0.4,
                                 const irs::Analyzer* analyzer = nullptr) {
    query_ = query;
    auto tree = irs::ParseIrsQuery(query_, analyzer != nullptr ? *analyzer
                                                               : analyzer_);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = tree.ok() ? std::move(*tree) : nullptr;
    object = Oid(1000);
    irs_query = query_;
    query_tree = tree_.get();
    this->default_value = default_value;
    return *this;
  }

  StatusOr<double> ComponentValue(Oid c, std::string_view q) const override {
    // Split q on spaces, strip #ops (terms only in these tests).
    const auto& tv = term_values_.at(c);
    std::vector<std::string> terms;
    std::string cur;
    for (char ch : q) {
      if (ch == ' ') {
        if (!cur.empty()) terms.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(ch);
      }
    }
    if (!cur.empty()) terms.push_back(cur);
    double sum = 0.0;
    for (const std::string& t : terms) {
      auto it = tv.find(t);
      sum += it == tv.end() ? default_value : it->second;
    }
    return terms.empty() ? default_value
                         : sum / static_cast<double>(terms.size());
  }
  StatusOr<std::vector<Oid>> ComponentsOf(Oid) const override {
    return components_;
  }
  StatusOr<std::string> ClassOf(Oid c) const override {
    return classes_.at(c);
  }
  StatusOr<double> LengthOf(Oid c) const override { return lengths_.at(c); }

 private:
  std::vector<Oid> components_;
  std::map<Oid, std::map<std::string, double>> term_values_;
  std::map<Oid, std::string> classes_;
  std::map<Oid, double> lengths_;
  std::string query_;
  std::unique_ptr<irs::QueryNode> tree_;
  irs::Analyzer analyzer_{irs::AnalyzerOptions{false, false, 1}};
};

TEST(DerivationTest, MaxScheme) {
  FakeEnv env;
  env.AddComponent(1, {{"www", 0.8}});
  env.AddComponent(2, {{"www", 0.5}});
  auto scheme = MakeMaxScheme();
  auto& ctx = env.MakeContext("www");
  auto v = scheme->Derive(ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 0.8);
}

TEST(DerivationTest, MaxSchemeNoComponentsGivesDefault) {
  FakeEnv env;
  auto scheme = MakeMaxScheme();
  auto& ctx = env.MakeContext("www", 0.4);
  auto v = scheme->Derive(ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 0.4);
}

TEST(DerivationTest, AvgScheme) {
  FakeEnv env;
  env.AddComponent(1, {{"www", 0.8}});
  env.AddComponent(2, {{"www", 0.4}});
  auto scheme = MakeAvgScheme();
  auto& ctx = env.MakeContext("www");
  auto v = scheme->Derive(ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 0.6);
}

TEST(DerivationTest, WeightedTypeScheme) {
  FakeEnv env;
  env.AddComponent(1, {{"www", 0.9}}, "DOCTITLE");
  env.AddComponent(2, {{"www", 0.3}}, "PARA");
  auto scheme = MakeWeightedTypeScheme({{"DOCTITLE", 3.0}});
  auto& ctx = env.MakeContext("www");
  auto v = scheme->Derive(ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(*v, (3.0 * 0.9 + 1.0 * 0.3) / 4.0, 1e-12);
}

TEST(DerivationTest, LengthWeightedScheme) {
  FakeEnv env;
  env.AddComponent(1, {{"www", 0.9}}, "PARA", 10);
  env.AddComponent(2, {{"www", 0.3}}, "PARA", 30);
  auto scheme = MakeLengthWeightedScheme();
  auto& ctx = env.MakeContext("www");
  auto v = scheme->Derive(ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(*v, (10 * 0.9 + 30 * 0.3) / 40.0, 1e-12);
}

// The Figure 4 discussion in miniature: M3 has one www-paragraph and
// one nii-paragraph, M4 has two www-paragraphs. Under #and(www nii) a
// good scheme ranks M3 above M4; max and avg fail to.
struct Figure4Values {
  double m3_value;
  double m4_value;
};

Figure4Values EvalScheme(DerivationScheme& scheme, const std::string& query) {
  Figure4Values out{};
  {
    FakeEnv m3;
    m3.AddComponent(7, {{"www", 0.8}, {"nii", 0.4}});
    m3.AddComponent(8, {{"www", 0.4}, {"nii", 0.8}});
    auto& ctx = m3.MakeContext(query);
    out.m3_value = *scheme.Derive(ctx);
  }
  {
    FakeEnv m4;
    m4.AddComponent(9, {{"www", 0.8}, {"nii", 0.4}});
    m4.AddComponent(10, {{"www", 0.8}, {"nii", 0.4}});
    auto& ctx = m4.MakeContext(query);
    out.m4_value = *scheme.Derive(ctx);
  }
  return out;
}

TEST(DerivationTest, MaxCannotDistinguishM3FromM4) {
  auto scheme = MakeMaxScheme();
  Figure4Values v = EvalScheme(*scheme, "www nii");
  EXPECT_DOUBLE_EQ(v.m3_value, v.m4_value);
}

TEST(DerivationTest, AvgCannotDistinguishM3FromM4) {
  auto scheme = MakeAvgScheme();
  Figure4Values v = EvalScheme(*scheme, "www nii");
  EXPECT_DOUBLE_EQ(v.m3_value, v.m4_value);
}

TEST(DerivationTest, SubqueryAwareRanksM3AboveM4) {
  auto scheme = MakeSubqueryAwareScheme();
  Figure4Values v = EvalScheme(*scheme, "#and(www nii)");
  EXPECT_GT(v.m3_value, v.m4_value);
  // M3: max(www)=0.8, max(nii)=0.8 -> 0.64; M4: 0.8 * 0.4 = 0.32.
  EXPECT_NEAR(v.m3_value, 0.64, 1e-12);
  EXPECT_NEAR(v.m4_value, 0.32, 1e-12);
}

TEST(DerivationTest, SubqueryAwareOrSemantics) {
  auto scheme = MakeSubqueryAwareScheme();
  Figure4Values v = EvalScheme(*scheme, "#or(www nii)");
  // M3: 1-(1-.8)(1-.8) = 0.96; M4: 1-(1-.8)(1-.4) = 0.88.
  EXPECT_NEAR(v.m3_value, 0.96, 1e-12);
  EXPECT_NEAR(v.m4_value, 0.88, 1e-12);
}

TEST(DerivationTest, SubqueryAwareWsum) {
  FakeEnv env;
  env.AddComponent(1, {{"www", 0.9}, {"nii", 0.5}});
  auto scheme = MakeSubqueryAwareScheme();
  auto& ctx = env.MakeContext("#wsum(3 www 1 nii)");
  auto v = scheme->Derive(ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(*v, (3 * 0.9 + 1 * 0.5) / 4.0, 1e-12);
}

TEST(DerivationTest, SubqueryLeafFlooredAtDefaultBelief) {
  // A component value below the default belief never drags a leaf
  // subquery under the default (matching the IRS's belief floor).
  FakeEnv env;
  env.AddComponent(1, {{"www", 0.1}});
  auto scheme = MakeSubqueryAwareScheme();
  auto& ctx = env.MakeContext("www", 0.4);
  auto v = scheme->Derive(ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 0.4);
}

TEST(DerivationTest, SubqueryAwareNoComponents) {
  FakeEnv env;
  auto scheme = MakeSubqueryAwareScheme();
  auto& ctx = env.MakeContext("#and(www nii)", 0.4);
  auto v = scheme->Derive(ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 0.4);
}

TEST(DerivationTest, SubqueryAwareEmptiedOperatorFollowsTheIrs) {
  // The stop list empties #max(the). As in the IRS, an empty #max has
  // belief 0, not the default: it halves a #sum and zeroes an #and.
  FakeEnv env;
  env.AddComponent(1, {{"www", 0.9}});
  env.AddComponent(2, {{"www", 0.5}});
  irs::Analyzer stopping;  // the default options remove stopwords
  auto scheme = MakeSubqueryAwareScheme();
  for (const auto& [query, expected] :
       {std::pair<std::string, double>{"#sum(www #max(the))", 0.45},
        std::pair<std::string, double>{"#and(www #max(the))", 0.0}}) {
    auto& ctx = env.MakeContext(query, 0.2, &stopping);
    auto v = scheme->Derive(ctx);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_DOUBLE_EQ(*v, expected) << query;
  }
}

TEST(MakeSchemeTest, Factory) {
  EXPECT_TRUE(MakeScheme("max").ok());
  EXPECT_TRUE(MakeScheme("avg").ok());
  EXPECT_TRUE(MakeScheme("wtype").ok());
  EXPECT_TRUE(MakeScheme("length").ok());
  EXPECT_TRUE(MakeScheme("subquery").ok());
  EXPECT_FALSE(MakeScheme("nope").ok());
  EXPECT_EQ((*MakeScheme("subquery"))->name(), "subquery");
}

}  // namespace
}  // namespace sdms::coupling
