// Unit tests for TupleBatch, its selection vector, and the tuple-reuse
// (clear-and-refill) paths underneath batch execution.
#include "types/tuple_batch.h"

#include <gtest/gtest.h>

#include "types/tuple.h"
#include "types/value.h"

namespace relopt {
namespace {

Tuple MakeRow(int64_t a, int64_t b) {
  Tuple t;
  t.Append(Value::Int(a));
  t.Append(Value::Int(b));
  return t;
}

TEST(TupleBatchTest, StartsEmpty) {
  TupleBatch batch(4);
  EXPECT_EQ(batch.capacity(), 4u);
  EXPECT_EQ(batch.NumRows(), 0u);
  EXPECT_EQ(batch.NumSelected(), 0u);
  EXPECT_TRUE(batch.Empty());
  EXPECT_FALSE(batch.Full());
}

TEST(TupleBatchTest, ZeroCapacityClampsToOne) {
  TupleBatch batch(0);
  EXPECT_EQ(batch.capacity(), 1u);
  batch.AppendRow()->Append(Value::Int(1));
  EXPECT_TRUE(batch.Full());
}

TEST(TupleBatchTest, AppendRowSelectsAndFills) {
  TupleBatch batch(4);
  *batch.AppendRow() = MakeRow(1, 10);
  *batch.AppendRow() = MakeRow(2, 20);
  EXPECT_EQ(batch.NumRows(), 2u);
  EXPECT_EQ(batch.NumSelected(), 2u);
  EXPECT_EQ(batch.selection(), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(batch.SelectedRow(0).At(0).AsInt(), 1);
  EXPECT_EQ(batch.SelectedRow(1).At(1).AsInt(), 20);
}

TEST(TupleBatchTest, FullAtCapacity) {
  TupleBatch batch(2);
  batch.AppendRow();
  EXPECT_FALSE(batch.Full());
  batch.AppendRow();
  EXPECT_TRUE(batch.Full());
}

TEST(TupleBatchTest, ClearKeepsStorageForReuse) {
  TupleBatch batch(4);
  *batch.AppendRow() = MakeRow(1, 10);
  *batch.AppendRow() = MakeRow(2, 20);
  batch.Clear();
  EXPECT_EQ(batch.NumRows(), 0u);
  EXPECT_EQ(batch.NumSelected(), 0u);
  // Recycled slots come back cleared even though the Tuple object is reused.
  Tuple* slot = batch.AppendRow();
  EXPECT_EQ(slot->NumValues(), 0u);
  slot->Append(Value::Int(7));
  EXPECT_EQ(batch.SelectedRow(0).At(0).AsInt(), 7);
}

TEST(TupleBatchTest, AppendTupleMovesRowIn) {
  TupleBatch batch(4);
  Tuple t = MakeRow(5, 50);
  batch.AppendTuple(std::move(t));
  EXPECT_EQ(batch.NumSelected(), 1u);
  EXPECT_EQ(batch.SelectedRow(0).At(1).AsInt(), 50);
}

TEST(TupleBatchTest, SelectionCompaction) {
  // A filter keeps rows 0 and 2 of 4: unselected rows stay in storage but
  // disappear from the selected view.
  TupleBatch batch(4);
  for (int i = 0; i < 4; ++i) *batch.AppendRow() = MakeRow(i, i * 10);
  *batch.mutable_selection() = {0, 2};
  EXPECT_EQ(batch.NumRows(), 4u);
  EXPECT_EQ(batch.NumSelected(), 2u);
  EXPECT_EQ(batch.SelectedRow(0).At(0).AsInt(), 0);
  EXPECT_EQ(batch.SelectedRow(1).At(0).AsInt(), 2);
  // RowAt still reaches unselected storage (operators never do; tests can).
  EXPECT_EQ(batch.RowAt(1).At(0).AsInt(), 1);
}

TEST(TupleBatchTest, AllRowsFilteredLeavesValidEmptySelection) {
  TupleBatch batch(4);
  for (int i = 0; i < 4; ++i) *batch.AppendRow() = MakeRow(i, i);
  batch.mutable_selection()->clear();
  EXPECT_TRUE(batch.Empty());
  EXPECT_EQ(batch.NumRows(), 4u);  // storage untouched
  // Clear + refill works after a wipe-out.
  batch.Clear();
  *batch.AppendRow() = MakeRow(9, 9);
  EXPECT_EQ(batch.NumSelected(), 1u);
}

TEST(TupleBatchTest, TruncateSelection) {
  TupleBatch batch(8);
  for (int i = 0; i < 6; ++i) *batch.AppendRow() = MakeRow(i, i);
  batch.TruncateSelection(4);  // LIMIT mid-batch
  EXPECT_EQ(batch.NumSelected(), 4u);
  EXPECT_EQ(batch.SelectedRow(3).At(0).AsInt(), 3);
  batch.TruncateSelection(10);  // no-op past the end
  EXPECT_EQ(batch.NumSelected(), 4u);
  batch.TruncateSelection(0);  // LIMIT exactly at a batch boundary
  EXPECT_TRUE(batch.Empty());
}

TEST(TupleBatchTest, TupleFillFromReusesStorage) {
  Tuple original = MakeRow(42, 43);
  original.Append(Value::String("hello"));
  std::string bytes = original.Serialize();

  Tuple reused = MakeRow(1, 2);  // pre-existing contents must vanish
  ASSERT_TRUE(reused.FillFrom(bytes, 3).ok());
  EXPECT_EQ(reused.NumValues(), 3u);
  EXPECT_EQ(reused.At(0).AsInt(), 42);
  EXPECT_EQ(reused.At(2).AsString(), "hello");
  EXPECT_TRUE(reused == original);

  // Trailing garbage is rejected, matching Tuple::Deserialize.
  EXPECT_FALSE(reused.FillFrom(bytes + "x", 3).ok());
}

TEST(TupleBatchTest, TupleClearKeepsNothingVisible) {
  Tuple t = MakeRow(1, 2);
  t.Clear();
  EXPECT_EQ(t.NumValues(), 0u);
  t.Append(Value::Int(3));
  EXPECT_EQ(t.At(0).AsInt(), 3);
}

}  // namespace
}  // namespace relopt
