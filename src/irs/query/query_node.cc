#include "irs/query/query_node.h"

#include <cctype>
#include <charconv>
#include <system_error>

#include "common/string_util.h"
#include "irs/analysis/analyzer.h"

namespace sdms::irs {

const char* QueryOpName(QueryOp op) {
  switch (op) {
    case QueryOp::kTerm:
      return "term";
    case QueryOp::kSum:
      return "#sum";
    case QueryOp::kWsum:
      return "#wsum";
    case QueryOp::kAnd:
      return "#and";
    case QueryOp::kOr:
      return "#or";
    case QueryOp::kNot:
      return "#not";
    case QueryOp::kMax:
      return "#max";
    case QueryOp::kOdn:
      return "#od";
    case QueryOp::kUwn:
      return "#uw";
  }
  return "?";
}

std::string QueryNode::ToString() const {
  if (op == QueryOp::kTerm) return term;
  std::string out = QueryOpName(op);
  if (op == QueryOp::kOdn || op == QueryOp::kUwn) {
    out += std::to_string(window);
  }
  out += "(";
  for (size_t i = 0; i < children.size(); ++i) {
    if (i > 0) out += " ";
    if (op == QueryOp::kWsum) {
      out += StrFormat("%g ", i < weights.size() ? weights[i] : 1.0);
    }
    out += children[i]->ToString();
  }
  out += ")";
  return out;
}

std::unique_ptr<QueryNode> QueryNode::Clone() const {
  auto out = std::make_unique<QueryNode>();
  out->op = op;
  out->term = term;
  out->weights = weights;
  out->window = window;
  for (const auto& c : children) out->children.push_back(c->Clone());
  return out;
}

void QueryNode::CollectTerms(std::vector<std::string>& out) const {
  if (op == QueryOp::kTerm) {
    out.push_back(term);
    return;
  }
  for (const auto& c : children) c->CollectTerms(out);
}

namespace {

/// Token stream over the raw IRS query text.
struct IrsLexer {
  std::string_view text;
  size_t pos = 0;

  void SkipSpace() {
    while (pos < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[pos])) ||
            text[pos] == ',')) {
      ++pos;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos >= text.size();
  }

  char Peek() {
    SkipSpace();
    return pos < text.size() ? text[pos] : '\0';
  }

  /// Reads a bare word (term, operator name or number).
  std::string ReadWord() {
    SkipSpace();
    size_t start = pos;
    while (pos < text.size()) {
      char c = text[pos];
      if (std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
          c == ')' || c == ',' || c == '#') {
        break;
      }
      ++pos;
    }
    return std::string(text.substr(start, pos - start));
  }
};

class IrsParser {
 public:
  IrsParser(std::string_view text, const Analyzer& analyzer)
      : lex_{text, 0}, analyzer_(analyzer) {}

  StatusOr<std::unique_ptr<QueryNode>> ParseTop() {
    std::vector<std::unique_ptr<QueryNode>> nodes;
    while (!lex_.AtEnd()) {
      SDMS_ASSIGN_OR_RETURN(std::unique_ptr<QueryNode> n, ParseNode());
      if (n != nullptr) nodes.push_back(std::move(n));
    }
    if (nodes.empty()) {
      // All terms stopped out (or empty query): an empty #sum matches
      // nothing but is not an error.
      auto empty = std::make_unique<QueryNode>();
      empty->op = QueryOp::kSum;
      return StatusOr<std::unique_ptr<QueryNode>>(std::move(empty));
    }
    if (nodes.size() == 1) {
      return StatusOr<std::unique_ptr<QueryNode>>(std::move(nodes[0]));
    }
    auto sum = std::make_unique<QueryNode>();
    sum->op = QueryOp::kSum;
    sum->children = std::move(nodes);
    return StatusOr<std::unique_ptr<QueryNode>>(std::move(sum));
  }

 private:
  /// Returns nullptr for terms removed by the analyzer (stopwords).
  StatusOr<std::unique_ptr<QueryNode>> ParseNode() {
    if (lex_.Peek() == '#') return ParseOperator();
    std::string word = lex_.ReadWord();
    if (word.empty()) {
      return Status::ParseError("unexpected character '" +
                                std::string(1, lex_.Peek()) +
                                "' in IRS query");
    }
    std::string analyzed = analyzer_.AnalyzeTerm(word);
    if (analyzed.empty()) {
      return StatusOr<std::unique_ptr<QueryNode>>(nullptr);
    }
    auto n = std::make_unique<QueryNode>();
    n->op = QueryOp::kTerm;
    n->term = std::move(analyzed);
    return StatusOr<std::unique_ptr<QueryNode>>(std::move(n));
  }

  StatusOr<std::unique_ptr<QueryNode>> ParseOperator() {
    ++lex_.pos;  // consume '#'
    std::string name = ToLower(lex_.ReadWord());
    QueryOp op;
    uint32_t window = 1;
    if (name == "sum") {
      op = QueryOp::kSum;
    } else if (name == "wsum") {
      op = QueryOp::kWsum;
    } else if (name == "and") {
      op = QueryOp::kAnd;
    } else if (name == "or") {
      op = QueryOp::kOr;
    } else if (name == "not") {
      op = QueryOp::kNot;
    } else if (name == "max") {
      op = QueryOp::kMax;
    } else if (name == "phrase") {
      op = QueryOp::kOdn;
      window = 1;
    } else if (StartsWith(name, "od") || StartsWith(name, "uw")) {
      op = StartsWith(name, "od") ? QueryOp::kOdn : QueryOp::kUwn;
      std::string digits = name.substr(2);
      if (digits.empty()) {
        return Status::ParseError("window operator needs a size: #" + name);
      }
      const char* end = digits.data() + digits.size();
      auto [ptr, ec] = std::from_chars(digits.data(), end, window);
      if (ec == std::errc::result_out_of_range) {
        return Status::ParseError("window size out of range: #" + name);
      }
      if (ec != std::errc() || ptr != end) {
        return Status::ParseError("unknown IRS operator #" + name);
      }
      if (window == 0) {
        return Status::ParseError("window size must be positive: #" + name);
      }
    } else {
      return Status::ParseError("unknown IRS operator #" + name);
    }
    if (lex_.Peek() != '(') {
      return Status::ParseError("expected '(' after #" + name);
    }
    ++lex_.pos;
    auto node = std::make_unique<QueryNode>();
    node->op = op;
    while (lex_.Peek() != ')') {
      if (lex_.AtEnd()) {
        return Status::ParseError("unterminated #" + name + "(...)");
      }
      double weight = 1.0;
      if (op == QueryOp::kWsum) {
        std::string w = lex_.ReadWord();
        try {
          weight = std::stod(w);
        } catch (...) {
          return Status::ParseError("expected numeric weight in #wsum, got '" +
                                    w + "'");
        }
      }
      SDMS_ASSIGN_OR_RETURN(std::unique_ptr<QueryNode> child, ParseNode());
      if (child != nullptr) {
        node->children.push_back(std::move(child));
        node->weights.push_back(weight);
      }
    }
    ++lex_.pos;  // consume ')'
    node->window = window;
    if (op == QueryOp::kNot && node->children.size() != 1) {
      return Status::ParseError("#not takes exactly one argument");
    }
    if (op == QueryOp::kOdn || op == QueryOp::kUwn) {
      if (node->children.size() < 2) {
        return Status::ParseError("window operators need >= 2 terms");
      }
      for (const auto& child : node->children) {
        if (child->op != QueryOp::kTerm) {
          return Status::ParseError(
              "window operators take term arguments only");
        }
      }
    }
    return StatusOr<std::unique_ptr<QueryNode>>(std::move(node));
  }

  IrsLexer lex_;
  const Analyzer& analyzer_;
};

}  // namespace

StatusOr<std::unique_ptr<QueryNode>> ParseIrsQuery(const std::string& query,
                                                   const Analyzer& analyzer) {
  IrsParser p(query, analyzer);
  return p.ParseTop();
}

}  // namespace sdms::irs
