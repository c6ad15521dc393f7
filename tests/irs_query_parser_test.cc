#include "irs/query/query_node.h"

#include <gtest/gtest.h>

#include "irs/analysis/analyzer.h"

namespace sdms::irs {
namespace {

Analyzer MakeAnalyzer() { return Analyzer(); }

TEST(IrsQueryParserTest, SingleTerm) {
  Analyzer a = MakeAnalyzer();
  auto q = ParseIrsQuery("WWW", a);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->op, QueryOp::kTerm);
  EXPECT_EQ((*q)->term, "www");
}

TEST(IrsQueryParserTest, TermIsAnalyzed) {
  Analyzer a = MakeAnalyzer();
  auto q = ParseIrsQuery("Documents", a);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->term, "document");  // stemmed
}

TEST(IrsQueryParserTest, MultipleTermsImplicitSum) {
  Analyzer a = MakeAnalyzer();
  auto q = ParseIrsQuery("www nii telnet", a);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->op, QueryOp::kSum);
  EXPECT_EQ((*q)->children.size(), 3u);
}

TEST(IrsQueryParserTest, AndOperator) {
  Analyzer a = MakeAnalyzer();
  auto q = ParseIrsQuery("#and(WWW NII)", a);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->op, QueryOp::kAnd);
  ASSERT_EQ((*q)->children.size(), 2u);
  EXPECT_EQ((*q)->children[0]->term, "www");
  EXPECT_EQ((*q)->children[1]->term, "nii");
}

TEST(IrsQueryParserTest, NestedOperators) {
  Analyzer a = MakeAnalyzer();
  auto q = ParseIrsQuery("#or(#and(a1 b1) #not(c1) #max(d1 e1))", a);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->op, QueryOp::kOr);
  ASSERT_EQ((*q)->children.size(), 3u);
  EXPECT_EQ((*q)->children[0]->op, QueryOp::kAnd);
  EXPECT_EQ((*q)->children[1]->op, QueryOp::kNot);
  EXPECT_EQ((*q)->children[2]->op, QueryOp::kMax);
}

TEST(IrsQueryParserTest, WsumWeights) {
  Analyzer a = MakeAnalyzer();
  auto q = ParseIrsQuery("#wsum(2 www 1 nii)", a);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->op, QueryOp::kWsum);
  ASSERT_EQ((*q)->children.size(), 2u);
  ASSERT_EQ((*q)->weights.size(), 2u);
  EXPECT_DOUBLE_EQ((*q)->weights[0], 2.0);
  EXPECT_DOUBLE_EQ((*q)->weights[1], 1.0);
}

TEST(IrsQueryParserTest, StopwordsDropOut) {
  Analyzer a = MakeAnalyzer();
  auto q = ParseIrsQuery("the www", a);
  ASSERT_TRUE(q.ok());
  // Only "www" survives: single node, no #sum wrapper.
  EXPECT_EQ((*q)->op, QueryOp::kTerm);
}

TEST(IrsQueryParserTest, AllStoppedYieldsEmptySum) {
  Analyzer a = MakeAnalyzer();
  auto q = ParseIrsQuery("the is a", a);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->op, QueryOp::kSum);
  EXPECT_TRUE((*q)->children.empty());
}

TEST(IrsQueryParserTest, Errors) {
  Analyzer a = MakeAnalyzer();
  EXPECT_FALSE(ParseIrsQuery("#bogus(x)", a).ok());
  EXPECT_FALSE(ParseIrsQuery("#and(x", a).ok());
  EXPECT_FALSE(ParseIrsQuery("#and x", a).ok());
  EXPECT_FALSE(ParseIrsQuery("#not(www nii)", a).ok());
  EXPECT_FALSE(ParseIrsQuery("#wsum(x y)", a).ok());  // missing weight
}

TEST(IrsQueryParserTest, WindowSizeMustFitUint32) {
  Analyzer a = MakeAnalyzer();
  // Past every unsigned integer type: an error, not an exception.
  auto huge = ParseIrsQuery("#od99999999999999999999(www web)", a);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kParseError);
  // 2^32 + 1 must not wrap around to a window of 1.
  auto wrap = ParseIrsQuery("#uw4294967297(www web)", a);
  ASSERT_FALSE(wrap.ok());
  EXPECT_EQ(wrap.status().code(), StatusCode::kParseError);

  auto max = ParseIrsQuery("#uw4294967295(www web)", a);
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ((*max)->window, 4294967295u);
  EXPECT_EQ(ParseIrsQuery("#od0(www web)", a).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseIrsQuery("#od3x(www web)", a).status().code(),
            StatusCode::kParseError);
}

TEST(IrsQueryParserTest, ToStringRoundTrip) {
  Analyzer a = MakeAnalyzer();
  auto q = ParseIrsQuery("#wsum(2 www 1 #and(nii telnet))", a);
  ASSERT_TRUE(q.ok());
  std::string rendered = (*q)->ToString();
  auto q2 = ParseIrsQuery(rendered, a);
  ASSERT_TRUE(q2.ok()) << rendered;
  EXPECT_EQ((*q2)->ToString(), rendered);
}

TEST(IrsQueryParserTest, CollectTerms) {
  Analyzer a = MakeAnalyzer();
  auto q = ParseIrsQuery("#and(www #or(nii www))", a);
  ASSERT_TRUE(q.ok());
  std::vector<std::string> terms;
  (*q)->CollectTerms(terms);
  ASSERT_EQ(terms.size(), 3u);
  EXPECT_EQ(terms[0], "www");
  EXPECT_EQ(terms[1], "nii");
  EXPECT_EQ(terms[2], "www");
}

TEST(IrsQueryParserTest, Clone) {
  Analyzer a = MakeAnalyzer();
  auto q = ParseIrsQuery("#wsum(2 www 1 nii)", a);
  ASSERT_TRUE(q.ok());
  auto copy = (*q)->Clone();
  EXPECT_EQ(copy->ToString(), (*q)->ToString());
}

}  // namespace
}  // namespace sdms::irs
