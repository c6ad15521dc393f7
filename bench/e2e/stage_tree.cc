#include "stage_tree.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace sdms::bench_e2e {

namespace {

constexpr char kShardPrefix[] = "irs_search/shard";

/// Recursive-descent reader for the subset of JSON QueryProfile::ToJson
/// emits: objects, arrays, strings, non-negative integers.
class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  Status Expect(char c) {
    SkipSpace();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      return Status::ParseError(std::string("profile json: expected '") + c +
                                "' at offset " + std::to_string(pos_));
    }
    ++pos_;
    return Status::OK();
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<std::string> String() {
    SDMS_RETURN_IF_ERROR(Expect('"'));
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      char e = s_[pos_++];
      switch (e) {
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u':
          // Control characters only (the profiler escapes nothing else).
          if (pos_ + 4 > s_.size()) return Truncated();
          out.push_back(static_cast<char>(
              std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16)));
          pos_ += 4;
          break;
        default:
          out.push_back(e);
      }
    }
    SDMS_RETURN_IF_ERROR(Expect('"'));
    return out;
  }

  StatusOr<uint64_t> Integer() {
    SkipSpace();
    size_t begin = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    if (begin == pos_) {
      return Status::ParseError("profile json: expected integer at offset " +
                                std::to_string(begin));
    }
    return std::strtoull(s_.substr(begin, pos_ - begin).c_str(), nullptr, 10);
  }

  /// Skips one value of any shape (annotations, unknown keys).
  Status SkipValue() {
    SkipSpace();
    if (pos_ >= s_.size()) return Truncated();
    char c = s_[pos_];
    if (c == '"') return String().status();
    if (c == '{' || c == '[') {
      char close = c == '{' ? '}' : ']';
      ++pos_;
      if (Consume(close)) return Status::OK();
      do {
        if (close == '}') {
          SDMS_RETURN_IF_ERROR(String().status());
          SDMS_RETURN_IF_ERROR(Expect(':'));
        }
        SDMS_RETURN_IF_ERROR(SkipValue());
      } while (Consume(','));
      return Expect(close);
    }
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' &&
           s_[pos_] != ']') {
      ++pos_;
    }
    return Status::OK();
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  Status Truncated() const {
    return Status::ParseError("profile json: truncated");
  }

  const std::string& s_;
  size_t pos_ = 0;
};

Status ParseStage(Reader& r, StageNode* out) {
  SDMS_RETURN_IF_ERROR(r.Expect('{'));
  if (r.Consume('}')) return Status::OK();
  do {
    SDMS_ASSIGN_OR_RETURN(std::string key, r.String());
    SDMS_RETURN_IF_ERROR(r.Expect(':'));
    if (key == "name") {
      SDMS_ASSIGN_OR_RETURN(out->name, r.String());
    } else if (key == "total_us") {
      SDMS_ASSIGN_OR_RETURN(uint64_t v, r.Integer());
      out->total_us = static_cast<int64_t>(v);
    } else if (key == "invocations") {
      SDMS_ASSIGN_OR_RETURN(out->invocations, r.Integer());
    } else if (key == "counters") {
      SDMS_RETURN_IF_ERROR(r.Expect('{'));
      if (!r.Consume('}')) {
        do {
          SDMS_ASSIGN_OR_RETURN(std::string name, r.String());
          SDMS_RETURN_IF_ERROR(r.Expect(':'));
          SDMS_ASSIGN_OR_RETURN(out->counters[name], r.Integer());
        } while (r.Consume(','));
        SDMS_RETURN_IF_ERROR(r.Expect('}'));
      }
    } else if (key == "stages") {
      SDMS_RETURN_IF_ERROR(r.Expect('['));
      if (!r.Consume(']')) {
        do {
          out->children.emplace_back();
          SDMS_RETURN_IF_ERROR(ParseStage(r, &out->children.back()));
        } while (r.Consume(','));
        SDMS_RETURN_IF_ERROR(r.Expect(']'));
      }
    } else {
      SDMS_RETURN_IF_ERROR(r.SkipValue());
    }
  } while (r.Consume(','));
  return r.Expect('}');
}

std::string StageKey(const std::string& name) {
  return IsShardStage(name) ? kShardPrefix : name;
}

/// Sum of the sequential children and the slowest shard child.
void SplitChildren(const StageNode& node, double* sequential_us,
                   double* shard_sum_us, double* shard_max_us) {
  *sequential_us = *shard_sum_us = *shard_max_us = 0;
  for (const StageNode& c : node.children) {
    double t = static_cast<double>(c.total_us);
    if (IsShardStage(c.name)) {
      *shard_sum_us += t;
      *shard_max_us = std::max(*shard_max_us, t);
    } else {
      *sequential_us += t;
    }
  }
}

/// Adds `scale` x the self times of `node`'s subtree.
void AddSubtree(const StageNode& node, double scale, bool include_self,
                std::map<std::string, double>* self_us) {
  double seq = 0, shard_sum = 0, shard_max = 0;
  SplitChildren(node, &seq, &shard_sum, &shard_max);
  double total = static_cast<double>(node.total_us);
  double covered = seq + shard_max;
  // Clock granularity can make children read longer than their parent;
  // their wall time is then the parent's.
  double fit = covered > total && covered > 0 ? total / covered : 1.0;
  if (include_self) {
    (*self_us)[StageKey(node.name)] += scale * (total - covered * fit);
  }
  for (const StageNode& c : node.children) {
    double share = fit;
    if (IsShardStage(c.name) && shard_sum > 0) share *= shard_max / shard_sum;
    AddSubtree(c, scale * share, true, self_us);
  }
}

}  // namespace

StatusOr<StageNode> ParseProfileJson(const std::string& json) {
  Reader r(json);
  StageNode root;
  bool have_root = false;
  SDMS_RETURN_IF_ERROR(r.Expect('{'));
  do {
    SDMS_ASSIGN_OR_RETURN(std::string key, r.String());
    SDMS_RETURN_IF_ERROR(r.Expect(':'));
    if (key == "profile") {
      SDMS_RETURN_IF_ERROR(ParseStage(r, &root));
      have_root = true;
    } else {
      SDMS_RETURN_IF_ERROR(r.SkipValue());
    }
  } while (r.Consume(','));
  SDMS_RETURN_IF_ERROR(r.Expect('}'));
  if (!have_root) return Status::ParseError("profile json: no stage tree");
  return root;
}

bool IsShardStage(const std::string& name) {
  return name.rfind(kShardPrefix, 0) == 0;
}

void AddChildSelfTimes(const StageNode& node,
                       std::map<std::string, double>* self_us) {
  AddSubtree(node, 1.0, /*include_self=*/false, self_us);
}

uint64_t SumCounter(const StageNode& node, const std::string& name) {
  uint64_t total = 0;
  VisitStages(node, [&](const StageNode& s) {
    auto it = s.counters.find(name);
    if (it != s.counters.end()) total += it->second;
  });
  return total;
}

void AppendChromeEvent(const std::string& name, double ts_us, double dur_us,
                       uint64_t request_id, int tid, uint64_t invocations,
                       std::string* out) {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                "\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"request_id\":%llu,"
                "\"invocations\":%llu}}",
                name.c_str(), tid, ts_us, dur_us,
                static_cast<unsigned long long>(request_id),
                static_cast<unsigned long long>(invocations));
  *out += buf;
}

void AppendChromeChildEvents(const StageNode& node, double start_us,
                             uint64_t request_id, int tid, std::string* out) {
  double cursor = start_us;
  double fanout_start = -1;
  double fanout_end = start_us;
  int shard_lane = 0;
  for (const StageNode& c : node.children) {
    double dur = static_cast<double>(c.total_us);
    if (IsShardStage(c.name)) {
      if (fanout_start < 0) fanout_start = cursor;
      int lane = tid * 100 + 1 + shard_lane++;
      AppendChromeEvent(c.name, fanout_start, dur, request_id, lane,
                        c.invocations, out);
      AppendChromeChildEvents(c, fanout_start, request_id, lane, out);
      fanout_end = std::max(fanout_end, fanout_start + dur);
      continue;
    }
    cursor = std::max(cursor, fanout_end);
    AppendChromeEvent(c.name, cursor, dur, request_id, tid, c.invocations, out);
    AppendChromeChildEvents(c, cursor, request_id, tid, out);
    cursor += dur;
  }
}

}  // namespace sdms::bench_e2e
