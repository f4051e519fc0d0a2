#include <algorithm>
#include <filesystem>
#include <map>
#include <ostream>
#include <set>
#include <string>

#include "api/database.h"
#include "common/rng.h"
#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "gtest/gtest.h"

namespace vwise {
namespace {

// Property tests: vectorized operators against naive reference
// implementations over randomly generated tables, across several data
// regimes (key skew, table sizes, vector sizes, key types).

// The key the joins and aggregations use. Every table holds the key draw d
// and a row number v; kI64 keys on d itself, the others on key columns
// derived from d one-to-one (up to -0.0 == +0.0), so the references compare
// draws.
enum class KeyType {
  kI64,
  kI32,     // d - domain/2: negative keys too
  kF64,     // (d - domain/2) / 4: negative, fractional; 0 is -0.0 on odd rows
  kStr,     // varchar; d == 0 is the empty string
  kTwoCol,  // (i64 d % 5, varchar d / 5)
};

struct Regime {
  const char* name;
  uint64_t seed;
  size_t probe_rows;
  size_t build_rows;
  int64_t key_domain;  // key draws from [0, key_domain)
  size_t vector_size;
  KeyType key = KeyType::kI64;
};

void PrintTo(const Regime& r, std::ostream* os) { *os << r.name; }

class OperatorPropertyTest : public ::testing::TestWithParam<Regime> {
 protected:
  void SetUp() override {
    const auto& p = GetParam();
    dir_ = ::testing::TempDir() + "/vwise_prop_" + p.name;
    std::filesystem::remove_all(dir_);
    config_.stripe_rows = 128;
    config_.vector_size = p.vector_size;
    auto db = Database::Open(dir_, config_);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);

    Rng rng(p.seed);
    probe_.resize(p.probe_rows);
    build_.resize(p.build_rows);
    for (auto& k : probe_) k = rng.Uniform(0, p.key_domain - 1);
    for (auto& k : build_) k = rng.Uniform(0, p.key_domain - 1);

    std::vector<ColumnDef> cols = {ColumnDef("d", DataType::Int64()),
                                   ColumnDef("v", DataType::Int64())};
    switch (p.key) {
      case KeyType::kI64:
        key_cols_ = {0};
        break;
      case KeyType::kI32:
        cols.emplace_back("k", DataType::Int32());
        break;
      case KeyType::kF64:
        cols.emplace_back("k", DataType::Double());
        break;
      case KeyType::kStr:
        cols.emplace_back("k", DataType::Varchar());
        break;
      case KeyType::kTwoCol:
        cols.emplace_back("k", DataType::Int64());
        cols.emplace_back("k2", DataType::Varchar());
        key_cols_ = {2, 3};
        break;
    }
    n_cols_ = cols.size();
    auto load = [&](const char* name, const std::vector<int64_t>& keys) {
      ASSERT_TRUE(db_->CreateTable(TableSchema(name, cols)).ok());
      ASSERT_TRUE(db_->BulkLoad(name, [&](TableWriter* w) -> Status {
        for (size_t i = 0; i < keys.size(); i++) {
          std::vector<Value> row = {Value::Int(keys[i]),
                                    Value::Int(static_cast<int64_t>(i))};
          for (Value& k : KeyValues(keys[i], i % 2 == 1)) row.push_back(k);
          VWISE_RETURN_IF_ERROR(w->AppendRow(row));
        }
        return Status::OK();
      }).ok());
    };
    load("probe", probe_);
    load("build", build_);
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  // The derived key columns of draw d (none for kI64, which keys on d).
  std::vector<Value> KeyValues(int64_t d, bool negative_zero) const {
    int64_t mid = GetParam().key_domain / 2;
    switch (GetParam().key) {
      case KeyType::kI64:
        return {};
      case KeyType::kI32:
        return {Value::Int(d - mid)};
      case KeyType::kF64: {
        double k = static_cast<double>(d - mid) / 4;
        return {Value::Double(k == 0 && negative_zero ? -0.0 : k)};
      }
      case KeyType::kStr:
        return {Value::String(
            d == 0 ? "" : std::string(d % 4, 'x') + std::to_string(d))};
      case KeyType::kTwoCol:
        return {Value::Int(d % 5), Value::String(std::to_string(d / 5))};
    }
    return {};
  }

  OperatorPtr Scan(const char* table) {
    auto snap = db_->Internals().tm->GetSnapshot(table);
    EXPECT_TRUE(snap.ok());
    std::vector<uint32_t> cols;
    for (uint32_t c = 0; c < n_cols_; c++) cols.push_back(c);
    return std::make_unique<ScanOperator>(*snap, cols, config_);
  }

  Config config_;
  std::vector<size_t> key_cols_ = {2};  // join and group key columns
  size_t n_cols_ = 0;                   // columns of either table
  std::string dir_;
  std::unique_ptr<Database> db_;
  std::vector<int64_t> probe_, build_;
};

TEST_P(OperatorPropertyTest, InnerJoinMatchesNestedLoop) {
  HashJoinOperator::Spec spec;
  spec.type = JoinType::kInner;
  spec.probe_keys = key_cols_;
  spec.build_keys = key_cols_;
  spec.build_payload = {1};
  HashJoinOperator join(Scan("probe"), Scan("build"), std::move(spec), config_);
  auto r = CollectRows(&join, config_.vector_size);
  ASSERT_TRUE(r.ok());
  // Reference: nested loop, as (probe_v, build_v) multiset.
  std::multiset<std::pair<int64_t, int64_t>> expect, got;
  for (size_t i = 0; i < probe_.size(); i++) {
    for (size_t j = 0; j < build_.size(); j++) {
      if (probe_[i] == build_[j]) {
        expect.insert({static_cast<int64_t>(i), static_cast<int64_t>(j)});
      }
    }
  }
  for (const auto& row : r->rows) {
    got.insert({row[1].AsInt(), row[n_cols_].AsInt()});
  }
  EXPECT_EQ(got, expect);
}

TEST_P(OperatorPropertyTest, SemiAntiPartitionProbe) {
  auto run = [&](JoinType t) {
    HashJoinOperator::Spec spec;
    spec.type = t;
    spec.probe_keys = key_cols_;
    spec.build_keys = key_cols_;
    HashJoinOperator join(Scan("probe"), Scan("build"), std::move(spec), config_);
    auto r = CollectRows(&join, config_.vector_size);
    EXPECT_TRUE(r.ok());
    std::multiset<int64_t> rows;
    for (const auto& row : r->rows) rows.insert(row[1].AsInt());
    return rows;
  };
  auto semi = run(JoinType::kLeftSemi);
  auto anti = run(JoinType::kLeftAnti);
  // Semi + anti partition the probe side exactly.
  EXPECT_EQ(semi.size() + anti.size(), probe_.size());
  std::set<int64_t> build_keys(build_.begin(), build_.end());
  for (int64_t v : semi) EXPECT_TRUE(build_keys.count(probe_[v]));
  for (int64_t v : anti) EXPECT_FALSE(build_keys.count(probe_[v]));
}

TEST_P(OperatorPropertyTest, GroupedAggMatchesMapReference) {
  // min(d) and max(d) name the group's draw; they differ if distinct keys
  // were merged into one group.
  HashAggOperator agg(Scan("probe"), key_cols_,
                      {AggSpec::CountStar(), AggSpec::Sum(1), AggSpec::Min(1),
                       AggSpec::Max(1), AggSpec::Min(0), AggSpec::Max(0)},
                      config_);
  auto r = CollectRows(&agg, config_.vector_size);
  ASSERT_TRUE(r.ok());
  struct Ref {
    int64_t n = 0, sum = 0, mn = INT64_MAX, mx = INT64_MIN;
  };
  std::map<int64_t, Ref> expect;
  for (size_t i = 0; i < probe_.size(); i++) {
    Ref& ref = expect[probe_[i]];
    ref.n++;
    ref.sum += static_cast<int64_t>(i);
    ref.mn = std::min<int64_t>(ref.mn, i);
    ref.mx = std::max<int64_t>(ref.mx, i);
  }
  ASSERT_EQ(r->rows.size(), expect.size());
  size_t nk = key_cols_.size();
  for (const auto& row : r->rows) {
    int64_t d = row[nk + 4].AsInt();
    ASSERT_EQ(row[nk + 5].AsInt(), d);
    auto it = expect.find(d);
    ASSERT_NE(it, expect.end());
    std::vector<Value> key(row.begin(), row.begin() + nk);
    std::vector<Value> want = KeyValues(d, false);
    if (want.empty()) want = {Value::Int(d)};
    EXPECT_EQ(key, want);  // doubles compare with ==, so -0.0 matches 0.0
    EXPECT_EQ(row[nk].AsInt(), it->second.n);
    EXPECT_EQ(row[nk + 1].AsInt(), it->second.sum);
    EXPECT_EQ(row[nk + 2].AsInt(), it->second.mn);
    EXPECT_EQ(row[nk + 3].AsInt(), it->second.mx);
  }
}

TEST_P(OperatorPropertyTest, SortMatchesStdStableSort) {
  SortOperator sort(Scan("probe"), {{0, true}, {1, false}}, config_);
  auto r = CollectRows(&sort, config_.vector_size);
  ASSERT_TRUE(r.ok());
  std::vector<std::pair<int64_t, int64_t>> expect;
  for (size_t i = 0; i < probe_.size(); i++) {
    expect.push_back({probe_[i], static_cast<int64_t>(i)});
  }
  std::sort(expect.begin(), expect.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;  // v descending
  });
  ASSERT_EQ(r->rows.size(), expect.size());
  for (size_t i = 0; i < expect.size(); i++) {
    EXPECT_EQ(r->rows[i][0].AsInt(), expect[i].first) << i;
    EXPECT_EQ(r->rows[i][1].AsInt(), expect[i].second) << i;
  }
}

TEST_P(OperatorPropertyTest, TopNIsPrefixOfFullSort) {
  size_t limit = std::min<size_t>(17, probe_.size());
  SortOperator full(Scan("probe"), {{0, true}, {1, true}}, config_);
  SortOperator topn(Scan("probe"), {{0, true}, {1, true}}, config_, limit);
  auto rf = CollectRows(&full, config_.vector_size);
  auto rt = CollectRows(&topn, config_.vector_size);
  ASSERT_TRUE(rf.ok() && rt.ok());
  ASSERT_EQ(rt->rows.size(), limit);
  for (size_t i = 0; i < limit; i++) {
    EXPECT_EQ(rt->rows[i][0].AsInt(), rf->rows[i][0].AsInt());
    EXPECT_EQ(rt->rows[i][1].AsInt(), rf->rows[i][1].AsInt());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, OperatorPropertyTest,
    ::testing::Values(
        Regime{"small_dense", 21, 200, 150, 10, 32},
        Regime{"skewed", 22, 500, 300, 3, 64},
        Regime{"sparse_keys", 23, 400, 400, 100000, 128},
        Regime{"tiny_vectors", 24, 333, 251, 40, 2},
        Regime{"build_heavy", 25, 100, 2000, 50, 1024},
        Regime{"probe_heavy", 26, 2000, 50, 50, 1024},
        Regime{"single_row", 27, 1, 1, 1, 16},
        Regime{"i32_keys", 28, 300, 200, 40, 64, KeyType::kI32},
        Regime{"f64_keys", 29, 300, 200, 40, 64, KeyType::kF64},
        Regime{"varchar_keys", 30, 300, 200, 40, 64, KeyType::kStr},
        Regime{"two_col_keys", 31, 300, 200, 40, 16, KeyType::kTwoCol}),
    [](const ::testing::TestParamInfo<Regime>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace vwise
