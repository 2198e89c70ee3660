#include <gtest/gtest.h>

#include <algorithm>

#include "storage/database.h"
#include "storage/relation.h"
#include "testing/test_util.h"
#include "util/rng.h"

namespace exdl {
namespace {

std::vector<uint32_t> RowIds(std::span<const uint32_t> ids) {
  return std::vector<uint32_t>(ids.begin(), ids.end());
}

TEST(RelationTest, InsertDeduplicates) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert(std::vector<Value>{1, 2}));
  EXPECT_TRUE(rel.Insert(std::vector<Value>{1, 3}));
  EXPECT_FALSE(rel.Insert(std::vector<Value>{1, 2}));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.insert_attempts(), 3u);
}

TEST(RelationTest, InsertRowReportsKeyOfNewAndDuplicateTuples) {
  Relation rel(2);
  const Relation::InsertResult first = rel.InsertRow(std::vector<Value>{1, 2});
  EXPECT_EQ(first.key, 0u);
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(rel.InsertRow(std::vector<Value>{1, 3}).key, 1u);
  // A duplicate reports the row id it already had, not the newest row.
  const Relation::InsertResult dup = rel.InsertRow(std::vector<Value>{1, 2});
  EXPECT_EQ(dup.key, 0u);
  EXPECT_FALSE(dup.inserted);
  EXPECT_EQ(rel.KeyOf(std::vector<Value>{1, 3}), 1u);
  EXPECT_EQ(rel.KeyOf(std::vector<Value>{3, 1}), std::nullopt);

  // Arity 1 dedups through the bitset: the key is the symbol id.
  Relation unary(1);
  EXPECT_EQ(unary.InsertRow(std::vector<Value>{7}).key, 7u);
  EXPECT_EQ(unary.InsertRow(std::vector<Value>{4}).key, 4u);
  EXPECT_FALSE(unary.InsertRow(std::vector<Value>{7}).inserted);
  EXPECT_EQ(unary.InsertRow(std::vector<Value>{7}).key, 7u);
  EXPECT_EQ(unary.KeyOf(std::vector<Value>{4}), 4u);
  EXPECT_EQ(unary.KeyOf(std::vector<Value>{5}), std::nullopt);

  // 0-ary: the one tuple is row 0.
  Relation boolean(0);
  EXPECT_EQ(boolean.InsertRow({}).key, 0u);
  EXPECT_FALSE(boolean.InsertRow({}).inserted);
  EXPECT_EQ(boolean.KeyOf({}), 0u);
}

TEST(RelationTest, RowsKeepInsertionOrder) {
  Relation rel(1);
  for (Value v : {5u, 3u, 9u}) rel.Insert(std::vector<Value>{v});
  EXPECT_EQ(rel.view().Scan(0)[0], 5u);
  EXPECT_EQ(rel.view().Scan(1)[0], 3u);
  EXPECT_EQ(rel.view().Scan(2)[0], 9u);
}

TEST(RelationTest, Contains) {
  Relation rel(2);
  rel.Insert(std::vector<Value>{1, 2});
  EXPECT_TRUE(rel.Contains(std::vector<Value>{1, 2}));
  EXPECT_FALSE(rel.Contains(std::vector<Value>{2, 1}));
}

TEST(RelationTest, IndexLookup) {
  Relation rel(2);
  rel.Insert(std::vector<Value>{1, 10});
  rel.Insert(std::vector<Value>{1, 11});
  rel.Insert(std::vector<Value>{2, 12});
  const Relation::Index& index = rel.GetIndex({0});
  const std::span<const uint32_t> ids = index.Lookup({1});
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_TRUE(index.Lookup({3}).empty());
}

TEST(RelationTest, IndexMaintainedAcrossInserts) {
  Relation rel(2);
  rel.Insert(std::vector<Value>{1, 10});
  const Relation::Index& index = rel.GetIndex({0});
  EXPECT_EQ(index.Lookup({1}).size(), 1u);
  rel.Insert(std::vector<Value>{1, 11});
  EXPECT_EQ(index.Lookup({1}).size(), 2u);  // same reference, updated
}

TEST(RelationTest, MultiColumnIndex) {
  Relation rel(3);
  rel.Insert(std::vector<Value>{1, 2, 3});
  rel.Insert(std::vector<Value>{1, 2, 4});
  rel.Insert(std::vector<Value>{1, 5, 3});
  const Relation::Index& index = rel.GetIndex({0, 2});
  EXPECT_EQ(index.Lookup({1, 3}).size(), 2u);
}

TEST(RelationTest, RowIdsInIndexAreAscending) {
  Relation rel(1);
  for (Value v = 0; v < 100; ++v) rel.Insert(std::vector<Value>{v % 10});
  const Relation::Index& index = rel.GetIndex({0});
  const std::span<const uint32_t> ids = index.Lookup({3});
  ASSERT_FALSE(ids.empty());
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_LT(ids[i - 1], ids[i]);
  }
}

TEST(RelationTest, ZeroArityRelation) {
  Relation rel(0);
  EXPECT_TRUE(rel.empty());
  EXPECT_TRUE(rel.Insert(std::vector<Value>{}));
  EXPECT_FALSE(rel.Insert(std::vector<Value>{}));
  EXPECT_EQ(rel.size(), 1u);  // the empty tuple, at most once
}

TEST(RelationTest, Clear) {
  Relation rel(1);
  rel.Insert(std::vector<Value>{1});
  rel.GetIndex({0});
  rel.Clear();
  EXPECT_TRUE(rel.empty());
  EXPECT_TRUE(rel.Insert(std::vector<Value>{1}));
}

// Key view over a strided backing array — exercises the heterogeneous
// (non-vector, non-span) lookup path the evaluator uses for register keys.
struct StridedKey {
  const Value* base;
  size_t stride;
  size_t n;
  size_t size() const { return n; }
  Value operator[](size_t i) const { return base[i * stride]; }
};

TEST(RelationTest, StressInsertsAcrossRehashBoundaries) {
  Relation rel(2);
  // Build an index early so it is maintained through many rehashes of
  // both the dedup table and the index's own slot array.
  const Relation::Index& index = rel.GetIndex({0});
  constexpr uint32_t kRows = 20000;
  for (uint32_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(rel.Insert(std::vector<Value>{i % 512, i}));
  }
  EXPECT_EQ(rel.size(), kRows);
  // Every tuple findable; near-misses absent.
  for (uint32_t i = 0; i < kRows; i += 97) {
    EXPECT_TRUE(rel.Contains(std::vector<Value>{i % 512, i}));
    EXPECT_FALSE(rel.Contains(std::vector<Value>{i % 512, i + kRows}));
  }
  // Re-inserting anything is a duplicate.
  for (uint32_t i = 0; i < kRows; i += 1031) {
    EXPECT_FALSE(rel.Insert(std::vector<Value>{i % 512, i}));
  }
  // Index groups match a brute-force scan.
  for (Value k : {0u, 17u, 511u}) {
    const std::span<const uint32_t> ids = index.Lookup({k});
    ASSERT_FALSE(ids.empty());
    std::vector<uint32_t> expected;
    for (uint32_t r = 0; r < rel.size(); ++r) {
      if (rel.view().Scan(r)[0] == k) expected.push_back(r);
    }
    EXPECT_EQ(RowIds(ids), expected);
  }
  EXPECT_TRUE(index.Lookup({512}).empty());
}

TEST(RelationTest, IndexConsistentAfterClear) {
  Relation rel(2);
  rel.Insert(std::vector<Value>{1, 2});
  rel.GetIndex({1});
  rel.Clear();
  EXPECT_FALSE(rel.Contains(std::vector<Value>{1, 2}));
  rel.Insert(std::vector<Value>{3, 4});
  const Relation::Index& index = rel.GetIndex({1});
  EXPECT_TRUE(index.Lookup({2}).empty());  // old tuples gone
  ASSERT_FALSE(index.Lookup({4}).empty());
  EXPECT_EQ(index.Lookup({4}).size(), 1u);
}

// An index maintained through skewed inserts (in-place appends, run
// relocations, compactions) and one built afterwards in a single CSR pass
// must agree row for row with a scan of the arena.
TEST(RelationTest, IncrementalAndBuiltIndexesAgreeUnderSkew) {
  Relation incremental(2);
  const Relation::Index& early = incremental.GetIndex({0});
  Relation built(2);
  Rng rng(42);
  constexpr uint32_t kInserts = 50000;
  for (uint32_t i = 0; i < kInserts; ++i) {
    // Skewed keys: small ids are far more frequent than large ones.
    const Value key = static_cast<Value>(rng.Below(rng.Below(2048) + 1));
    const std::vector<Value> row = {key, static_cast<Value>(rng.Below(4096))};
    EXPECT_EQ(incremental.Insert(row), built.Insert(row));
  }
  ASSERT_EQ(incremental.size(), built.size());
  const Relation::Index& late = built.GetIndex({0});
  EXPECT_EQ(late.pool_size(), built.size());  // exact CSR, no slack
  std::vector<std::vector<uint32_t>> expected(2049);
  for (uint32_t r = 0; r < built.size(); ++r) {
    expected[built.view().Scan(r)[0]].push_back(r);
  }
  for (Value key = 0; key < expected.size(); ++key) {
    const std::span<const uint32_t> a = early.Lookup({key});
    const std::span<const uint32_t> b = late.Lookup({key});
    EXPECT_EQ(RowIds(a), expected[key]) << "key " << key;
    EXPECT_EQ(RowIds(b), expected[key]) << "key " << key;
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  }
}

// A copy-on-write detach copies the index arrays: inserting through the
// copy leaves the original's index (and spans into it) untouched.
TEST(RelationTest, DetachedCopyIndexesIndependently) {
  Relation original(2);
  for (Value v = 0; v < 100; ++v) original.Insert(std::vector<Value>{v % 7, v});
  const std::span<const uint32_t> before = original.GetIndex({0}).Lookup({3});
  const std::vector<uint32_t> before_ids = RowIds(before);
  Relation copy = original;
  ASSERT_TRUE(copy.SharesStorageWith(original));
  ASSERT_TRUE(copy.Insert(std::vector<Value>{3, 1000}));
  EXPECT_FALSE(copy.SharesStorageWith(original));

  EXPECT_EQ(RowIds(before), before_ids);
  EXPECT_EQ(RowIds(original.GetIndex({0}).Lookup({3})), before_ids);
  EXPECT_EQ(original.GetIndex({0}).num_rows(), 100u);

  std::vector<uint32_t> with_new = before_ids;
  with_new.push_back(100);
  EXPECT_EQ(RowIds(copy.GetIndex({0}).Lookup({3})), with_new);
  EXPECT_EQ(copy.GetIndex({0}).num_rows(), 101u);
  EXPECT_GT(copy.storage_bytes(), 0u);
}

// The pool never holds more than 2 * rows + 64 slots: relocation holes and
// spare capacity are compacted away. The hot group sits first in the pool,
// so after every compaction its next inserts must relocate it again.
TEST(RelationTest, IndexPoolStaysWithinBound) {
  Relation rel(2);
  const Relation::Index& index = rel.GetIndex({0});
  Rng rng(7);
  Value next = 0;
  for (uint32_t i = 0; i < 30000; ++i) {
    const Value key =
        rng.Chance(0.5) ? 0 : static_cast<Value>(1 + rng.Below(3000));
    ASSERT_TRUE(rel.Insert(std::vector<Value>{key, next++}));
    ASSERT_LE(index.pool_size(), 2 * index.num_rows() + 64) << "insert " << i;
  }
  EXPECT_EQ(index.num_rows(), rel.size());
  std::vector<uint32_t> hot;
  for (uint32_t r = 0; r < rel.size(); ++r) {
    if (rel.view().Scan(r)[0] == 0) hot.push_back(r);
  }
  EXPECT_EQ(RowIds(index.Lookup({0})), hot);
}

TEST(RelationTest, HeterogeneousLookupAgreesWithVectorKeys) {
  Relation rel(3);
  for (Value a = 0; a < 20; ++a) {
    for (Value b = 0; b < 20; ++b) {
      rel.Insert(std::vector<Value>{a, b, a + b});
    }
  }
  const Relation::Index& index = rel.GetIndex({0, 2});
  // Backing array laid out with stride 2 so the view is genuinely not a
  // contiguous span.
  for (Value a = 0; a < 25; ++a) {
    Value strided[4] = {a, 999, static_cast<Value>(a + 3), 999};
    StridedKey view{strided, 2, 2};
    const std::span<const uint32_t> via_view = index.LookupKey(view);
    const std::span<const uint32_t> via_vec =
        index.Lookup(std::vector<Value>{a, a + 3});
    EXPECT_EQ(via_view.data(), via_vec.data());
    EXPECT_EQ(via_view.size(), via_vec.size());

    Value full[6] = {a, 999, 3, 999, static_cast<Value>(a + 3), 999};
    StridedKey row_view{full, 2, 3};
    EXPECT_EQ(rel.ContainsKey(row_view),
              rel.Contains(std::vector<Value>{a, 3, a + 3}));
  }
}

TEST(RelationTest, ReserveKeepsContentsAndDedup) {
  Relation rel(2);
  for (Value v = 0; v < 100; ++v) rel.Insert(std::vector<Value>{v, v + 1});
  rel.Reserve(50000);
  EXPECT_EQ(rel.size(), 100u);
  for (Value v = 0; v < 100; ++v) {
    EXPECT_TRUE(rel.Contains(std::vector<Value>{v, v + 1}));
    EXPECT_FALSE(rel.Insert(std::vector<Value>{v, v + 1}));
  }
  EXPECT_TRUE(rel.Insert(std::vector<Value>{200, 201}));
}

TEST(RelationTest, SelfAliasedRowInsertIsSafe) {
  Relation rel(2);
  for (Value v = 0; v < 300; ++v) rel.Insert(std::vector<Value>{v, v});
  // A span into the relation's own arena is always a duplicate here; the
  // probe must not be confused by potential arena growth.
  for (size_t r = 0; r < rel.size(); r += 7) {
    EXPECT_FALSE(rel.Insert(rel.view().Scan(r)));
  }
  EXPECT_EQ(rel.size(), 300u);
}

TEST(RelationTest, LoadRowsMatchesRowByRowInsert) {
  // LoadRows builds its dedup state in one pass; the result must be the
  // relation row-by-row Insert builds, and any repeat must be refused.
  Rng rng(11);
  for (uint32_t arity : {0u, 1u, 2u, 3u}) {
    SCOPED_TRACE("arity " + std::to_string(arity));
    Relation inserted(arity);
    for (int i = 0; i < 3000; ++i) {
      std::vector<Value> row(arity);
      for (Value& v : row) v = static_cast<Value>(rng.Below(64));
      inserted.Insert(row);
    }
    const std::span<const Value> raw = inserted.view().Raw();
    Relation loaded(arity);
    ASSERT_TRUE(loaded.LoadRows(raw, inserted.size()));
    ASSERT_EQ(loaded.size(), inserted.size());
    const std::span<const Value> loaded_raw = loaded.view().Raw();
    EXPECT_TRUE(std::equal(raw.begin(), raw.end(), loaded_raw.begin(),
                           loaded_raw.end()));
    for (size_t r = 0; r < inserted.size(); ++r) {
      EXPECT_TRUE(loaded.Contains(inserted.view().Scan(r)));
      EXPECT_FALSE(loaded.Insert(inserted.view().Scan(r)));
    }
    if (inserted.size() == 0) continue;
    // Repeat the first row at the end: refused, relation left empty.
    std::vector<Value> repeated(raw.begin(), raw.end());
    repeated.insert(repeated.end(), raw.begin(), raw.begin() + arity);
    Relation duplicate(arity);
    EXPECT_FALSE(duplicate.LoadRows(repeated, inserted.size() + 1));
    EXPECT_EQ(duplicate.size(), 0u);
  }
}

TEST(DatabaseTest, GetOrCreateIsStable) {
  Database db;
  Relation& a = db.GetOrCreate(7, 2);
  a.Insert(std::vector<Value>{1, 2});
  Relation& b = db.GetOrCreate(7, 2);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(db.Count(7), 1u);
}

TEST(DatabaseTest, FindAbsentReturnsNull) {
  Database db;
  EXPECT_EQ(db.Find(3), nullptr);
  EXPECT_EQ(db.Count(3), 0u);
}

TEST(DatabaseTest, AddFactRequiresGround) {
  auto parsed = testing::MustParse("");
  Context& ctx = *parsed.ctx;
  PredId p = ctx.InternPredicate("p", 1);
  Atom open(p, {Term::Var(ctx.InternSymbol("X"))});
  EXPECT_FALSE(Database().AddFact(open).ok());
  Database db;
  Atom ground(p, {Term::Const(ctx.InternSymbol("c"))});
  EXPECT_TRUE(db.AddFact(ground).ok());
  EXPECT_EQ(db.Count(p), 1u);
}

TEST(WatermarksTest, SuffixPastTheCaptureIsTheDelta) {
  Database db;
  db.AddTuple(9, std::vector<Value>{1});
  db.AddTuple(2, std::vector<Value>{1, 2});
  db.AddTuple(2, std::vector<Value>{3, 4});
  const Watermarks marks = Watermarks::Capture(db);
  EXPECT_EQ(marks.entries(),
            (std::vector<Watermarks::Entry>{{2, 2}, {9, 1}}));
  EXPECT_EQ(marks.RowsSince(db), 0u);

  db.AddTuple(2, std::vector<Value>{1, 2});  // duplicate: no suffix
  db.AddTuple(9, std::vector<Value>{5});
  db.AddTuple(4, std::vector<Value>{6});  // created after the capture
  EXPECT_EQ(marks.Of(9), 1u);
  EXPECT_EQ(marks.Of(4), 0u);  // unlisted: the whole relation is new
  EXPECT_EQ(marks.RowsSince(db), 2u);

  Watermarks set;
  set.Set(9, 3);
  set.Set(2, 1);
  set.Set(9, 4);
  EXPECT_EQ(set.entries(), (std::vector<Watermarks::Entry>{{2, 1}, {9, 4}}));
}

TEST(DatabaseTest, CloneIsDeep) {
  Database db;
  db.AddTuple(1, std::vector<Value>{4});
  Database copy = db.Clone();
  copy.AddTuple(1, std::vector<Value>{5});
  EXPECT_EQ(db.Count(1), 1u);
  EXPECT_EQ(copy.Count(1), 2u);
}

TEST(DatabaseTest, FactsOfRoundTrip) {
  auto parsed = testing::MustParse("p(a, b).\np(b, c).\n");
  PredId p = *parsed.ctx->FindPredicate(*parsed.ctx->FindSymbol("p"), 2,
                                        Adornment());
  std::vector<Atom> facts = parsed.edb.FactsOf(p);
  EXPECT_EQ(facts.size(), 2u);
  for (const Atom& f : facts) EXPECT_TRUE(f.IsGround());
}

TEST(DatabaseTest, TotalTuples) {
  Database db;
  db.AddTuple(1, std::vector<Value>{1});
  db.AddTuple(2, std::vector<Value>{1, 2});
  db.AddTuple(2, std::vector<Value>{1, 2});  // dup
  EXPECT_EQ(db.TotalTuples(), 2u);
}

}  // namespace
}  // namespace exdl
