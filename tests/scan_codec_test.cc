// Scan x codec x PDT equivalence: one table with a column per codec (the
// data shapes make EncodeBest pick each one, asserted from the footer),
// scanned through ScanOperator before any deltas, under PDT inserts,
// deletes and modifies at stripe and vector boundaries, and after the
// checkpoint that merges them, with encoded execution on and off. Every
// scan must equal a row-vector reference model row by row, which pins the
// per-vector segment reads (range decode, cursors carried across skipped
// rows, modified rows read one at a time) to the whole-segment semantics.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/scan.h"
#include "gtest/gtest.h"
#include "txn/transaction_manager.h"

namespace vwise {
namespace {

constexpr int64_t kStripeRows = 2048;
constexpr int64_t kVector = 1024;
constexpr int64_t kRows = 3 * kStripeRows + 700;  // 3 full stripes + a tail

// Column order of the test table.
enum Col : uint32_t {
  kKey = 0,    // sorted keys: PFOR-DELTA
  kVal = 1,    // small range with outliers: PFOR with exceptions
  kQty = 2,    // small i32 range: PFOR
  kFlag = 3,   // u8 (bool): PFOR
  kLevel = 4,  // long runs of doubles: RLE
  kTag = 5,    // low-cardinality strings: PDICT
  kNote = 6,   // random strings: plain
  kPrice = 7,  // random doubles: plain
  kNumCols = 8,
};

using Row = std::vector<Value>;

class ScanCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vwise_scan_codec_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    config_.stripe_rows = kStripeRows;
    config_.vector_size = kVector;
    device_ = std::make_unique<IoDevice>(config_);
    buffers_ = std::make_unique<BufferManager>(config_.buffer_pool_bytes);
    auto mgr =
        TransactionManager::Open(dir_, config_, device_.get(), buffers_.get());
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    mgr_ = std::move(*mgr);

    TableSchema t("t", {ColumnDef("key", DataType::Int64()),
                        ColumnDef("val", DataType::Int64()),
                        ColumnDef("qty", DataType::Int32()),
                        ColumnDef("flag", DataType::Bool()),
                        ColumnDef("level", DataType::Double()),
                        ColumnDef("tag", DataType::Varchar()),
                        ColumnDef("note", DataType::Varchar()),
                        ColumnDef("price", DataType::Double())});
    ASSERT_TRUE(mgr_->CreateTable(t, ColumnGroups::Dsm(kNumCols)).ok());
    Rng rng(20261019);
    static const char* kTags[] = {"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"};
    for (int64_t i = 0; i < kRows; i++) {
      int64_t val = rng.Uniform(0, 100);
      if (i % 53 == 7) val = (int64_t{1} << 40) + i;  // exception slot
      std::string note;
      size_t len = static_cast<size_t>(rng.Uniform(0, 24));
      for (size_t k = 0; k < len; k++) {
        note += static_cast<char>('a' + rng.Uniform(0, 25));
      }
      model_.push_back({Value::Int(1000000000 + 7 * i + i % 3),
                        Value::Int(val),
                        Value::Int(rng.Uniform(1, 50)),
                        Value::Int(i % 5 == 0 ? 1 : 0),
                        Value::Double(static_cast<double>((i / 700) % 4) + 0.5),
                        Value::String(kTags[rng.Uniform(0, 4)]),
                        Value::String(note),
                        Value::Double(rng.NextDouble() * 1000.0)});
    }
    ASSERT_TRUE(mgr_
                    ->BulkLoad("t",
                               [&](TableWriter* w) -> Status {
                                 for (const Row& r : model_) {
                                   VWISE_RETURN_IF_ERROR(w->AppendRow(r));
                                 }
                                 return Status::OK();
                               })
                    .ok());
  }
  void TearDown() override {
    mgr_.reset();
    std::filesystem::remove_all(dir_);
  }

  // Scans every column through ScanOperator and compares with the model.
  void ExpectScanMatchesModel(bool encoded, const std::string& what) {
    SCOPED_TRACE(what + (encoded ? " (encoded execution on)"
                                 : " (encoded execution off)"));
    Config cfg = config_;
    cfg.enable_encoded_exec = encoded;
    auto snap = mgr_->GetSnapshot("t");
    ASSERT_TRUE(snap.ok());
    std::vector<uint32_t> cols;
    for (uint32_t c = 0; c < kNumCols; c++) cols.push_back(c);
    ScanOperator scan(*snap, cols, cfg);
    auto result = CollectRows(&scan, cfg.vector_size);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->rows.size(), model_.size());
    for (size_t r = 0; r < model_.size(); r++) {
      for (uint32_t c = 0; c < kNumCols; c++) {
        ASSERT_EQ(result->rows[r][c], model_[r][c])
            << "row " << r << " column " << c << ": got "
            << result->rows[r][c].ToString() << ", want "
            << model_[r][c].ToString();
      }
    }
  }

  // Visible position of the row whose key is `key`.
  uint64_t Pos(int64_t key) const {
    for (size_t i = 0; i < model_.size(); i++) {
      if (model_[i][kKey].AsInt() == key) return i;
    }
    ADD_FAILURE() << "key " << key << " not in the model";
    return 0;
  }
  static int64_t StableKey(int64_t stable_row) {
    return 1000000000 + 7 * stable_row + stable_row % 3;
  }

  void Insert(Transaction* txn, uint64_t rid, Row row) {
    ASSERT_TRUE(txn->Insert("t", rid, row).ok());
    model_.insert(model_.begin() + static_cast<ptrdiff_t>(rid), std::move(row));
  }
  void Delete(Transaction* txn, uint64_t rid) {
    ASSERT_TRUE(txn->Delete("t", rid).ok());
    model_.erase(model_.begin() + static_cast<ptrdiff_t>(rid));
  }
  void Modify(Transaction* txn, uint64_t rid, uint32_t col, Value v) {
    ASSERT_TRUE(txn->Modify("t", rid, col, v).ok());
    model_[rid][col] = std::move(v);
  }
  // Modifies one column of every codec in the row at `rid`.
  void ModifyAll(Transaction* txn, uint64_t rid, int64_t tag) {
    Modify(txn, rid, kVal, Value::Int(-tag));
    Modify(txn, rid, kQty, Value::Int(tag % 1000));
    Modify(txn, rid, kFlag, Value::Int(1));
    Modify(txn, rid, kLevel, Value::Double(-1.25));
    Modify(txn, rid, kTag, Value::String("MODIFIED"));
    Modify(txn, rid, kNote, Value::String("note-" + std::to_string(tag)));
    Modify(txn, rid, kPrice, Value::Double(static_cast<double>(tag) / 8));
  }
  static Row NewRow(int64_t key) {
    return {Value::Int(key),          Value::Int(key * 3),
            Value::Int(7),            Value::Int(0),
            Value::Double(9.5),       Value::String("INSERTED"),
            Value::String("fresh"),   Value::Double(0.125)};
  }

  Config config_;
  std::string dir_;
  std::unique_ptr<IoDevice> device_;
  std::unique_ptr<BufferManager> buffers_;
  std::unique_ptr<TransactionManager> mgr_;
  std::vector<Row> model_;
};

TEST_F(ScanCodecTest, EncodeBestPicksOneCodecPerColumn) {
  auto snap = mgr_->GetSnapshot("t");
  ASSERT_TRUE(snap.ok());
  const TableFile& tf = *snap->stable;
  ASSERT_EQ(tf.stripe_count(), 4u);
  const Codec want[kNumCols] = {Codec::kPforDelta, Codec::kPfor, Codec::kPfor,
                                Codec::kPfor,      Codec::kRle,  Codec::kPdict,
                                Codec::kPlain,     Codec::kPlain};
  for (size_t s = 0; s < tf.stripe_count(); s++) {
    for (uint32_t c = 0; c < kNumCols; c++) {
      EXPECT_EQ(tf.stripe(s).segments[c].codec, want[c])
          << "stripe " << s << " column " << c << " stored as "
          << CodecToString(tf.stripe(s).segments[c].codec);
    }
    // The outliers ride as PFOR exceptions: packing every value at their
    // 41-bit width would cost over 5 bytes a value.
    const SegmentInfo& val = tf.stripe(s).segments[kVal];
    EXPECT_LT(val.size, val.count * 2) << "stripe " << s;
  }
}

TEST_F(ScanCodecTest, ScanMatchesModelUnderDeltasAndAfterCheckpoint) {
  ExpectScanMatchesModel(true, "no deltas");
  ExpectScanMatchesModel(false, "no deltas");

  auto txn = mgr_->Begin();
  // A deleted prefix of the table and of stripe 2: PFOR-DELTA must carry
  // its running prefix across the skipped rows, plain strings their offset.
  for (int k = 0; k < 5; k++) Delete(txn.get(), 0);
  for (int64_t r = 2 * kStripeRows; r < 2 * kStripeRows + 9; r++) {
    Delete(txn.get(), Pos(StableKey(r)));
  }
  // Stripe row 0 and the last row of a stripe.
  ModifyAll(txn.get(), Pos(StableKey(kStripeRows)), 1);
  ModifyAll(txn.get(), Pos(StableKey(kStripeRows - 1)), 2);
  Insert(txn.get(), Pos(StableKey(kStripeRows)), NewRow(-1));
  Insert(txn.get(), Pos(StableKey(2 * kStripeRows - 1)), NewRow(-2));
  // The vector boundary of stripe 0: rows 1023 and 1024.
  ModifyAll(txn.get(), Pos(StableKey(kVector - 1)), 3);
  Delete(txn.get(), Pos(StableKey(kVector)));
  Insert(txn.get(), Pos(StableKey(kVector + 1)), NewRow(-3));
  // A run of consecutive deletes across the vector boundary of stripe 1,
  // with an exception row (val outlier) inside it.
  for (int64_t r = kStripeRows + kVector - 40; r < kStripeRows + kVector + 40;
       r++) {
    Delete(txn.get(), Pos(StableKey(r)));
  }
  // Modified rows inside stripe 3 hitting exception slots and run edges.
  ModifyAll(txn.get(), Pos(StableKey(3 * kStripeRows + 7)), 4);
  ModifyAll(txn.get(), Pos(StableKey(3 * kStripeRows + 699)), 5);
  // The table end: delete the last stable row, then append two rows.
  Delete(txn.get(), Pos(StableKey(kRows - 1)));
  Insert(txn.get(), model_.size(), NewRow(-4));
  Insert(txn.get(), model_.size(), NewRow(-5));
  ASSERT_TRUE(mgr_->Commit(txn.get()).ok());

  ExpectScanMatchesModel(true, "with deltas");
  ExpectScanMatchesModel(false, "with deltas");

  // The checkpoint decodes the stable image (whole-segment reads) to merge
  // the deltas into a new table version.
  ASSERT_TRUE(mgr_->Checkpoint().ok());
  ExpectScanMatchesModel(true, "after checkpoint");
  ExpectScanMatchesModel(false, "after checkpoint");
}

}  // namespace
}  // namespace vwise
