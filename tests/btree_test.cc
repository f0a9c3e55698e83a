#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "common/random.h"
#include "obs/stats.h"
#include "smgr/mm_smgr.h"
#include "storage/free_space_map.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using Entry = std::pair<uint64_t, uint64_t>;

/// Every (key, value) entry with a key in [first, last], in scan order.
Result<std::vector<Entry>> ScanAll(Btree& tree, uint64_t first = 0,
                                   uint64_t last = ~0ull) {
  std::vector<Entry> out;
  PGLO_ASSIGN_OR_RETURN(
      bool stopped,
      tree.Scan(first, last, [&](uint64_t key, uint64_t value) -> Result<bool> {
        out.emplace_back(key, value);
        return false;
      }));
  if (stopped) return Status::Internal("a walk nobody stopped stopped");
  return out;
}

/// The values of every entry with exactly `key`.
Result<std::vector<uint64_t>> Values(Btree& tree, uint64_t key) {
  PGLO_ASSIGN_OR_RETURN(std::vector<Entry> entries, ScanAll(tree, key, key));
  std::vector<uint64_t> out;
  for (const Entry& e : entries) out.push_back(e.second);
  return out;
}

class BtreeTest : public ::testing::Test {
 protected:
  BtreeTest() : pool_(&smgrs_, 64) {
    EXPECT_OK(smgrs_.Register(0, std::make_unique<MainMemorySmgr>(nullptr)));
    pool_.BindStats(&stats_);
    EXPECT_OK(Btree::Create(&pool_, file_));
    tree_ = std::make_unique<Btree>(&pool_, file_);
  }

  uint64_t PoolHits() { return stats_.Snapshot().Value("bufpool.hits"); }

  SmgrRegistry smgrs_;
  StatsRegistry stats_;
  BufferPool pool_;
  RelFileId file_{0, 1};
  std::unique_ptr<Btree> tree_;
};

TEST_F(BtreeTest, EmptyTree) {
  ASSERT_OK_AND_ASSIGN(auto values, Values(*tree_, 5));
  EXPECT_TRUE(values.empty());
  ASSERT_OK_AND_ASSIGN(auto all, ScanAll(*tree_));
  EXPECT_TRUE(all.empty());
  ASSERT_OK_AND_ASSIGN(uint64_t count, tree_->CountEntries());
  EXPECT_EQ(count, 0u);
  ASSERT_OK_AND_ASSIGN(uint32_t height, tree_->Height());
  EXPECT_EQ(height, 1u);
}

TEST_F(BtreeTest, InsertScan) {
  ASSERT_OK(tree_->Insert(10, 100ull));
  ASSERT_OK(tree_->Insert(20, 200ull));
  ASSERT_OK_AND_ASSIGN(auto values, Values(*tree_, 10));
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], 100u);
  ASSERT_OK_AND_ASSIGN(values, Values(*tree_, 15));
  EXPECT_TRUE(values.empty());
}

TEST_F(BtreeTest, DuplicateKeysAllowed) {
  ASSERT_OK(tree_->Insert(7, 1ull));
  ASSERT_OK(tree_->Insert(7, 2ull));
  ASSERT_OK(tree_->Insert(7, 3ull));
  ASSERT_OK_AND_ASSIGN(auto values, Values(*tree_, 7));
  EXPECT_EQ(values, (std::vector<uint64_t>{1, 2, 3}));
  // Exact duplicate (key, value) rejected.
  EXPECT_TRUE(tree_->Insert(7, 2ull).IsAlreadyExists());
}

TEST_F(BtreeTest, DeleteExactEntry) {
  ASSERT_OK(tree_->Insert(7, 1ull));
  ASSERT_OK(tree_->Insert(7, 2ull));
  ASSERT_OK(tree_->Delete(7, 1ull));
  ASSERT_OK_AND_ASSIGN(auto values, Values(*tree_, 7));
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], 2u);
  EXPECT_TRUE(tree_->Delete(7, 1ull).IsNotFound());
  EXPECT_TRUE(tree_->Delete(99, 1ull).IsNotFound());
}

TEST_F(BtreeTest, SplitsGrowTree) {
  // A leaf holds 510 entries; 2000 forces leaf and root splits.
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_OK(tree_->Insert(i, i * 10));
  }
  ASSERT_OK_AND_ASSIGN(uint32_t height, tree_->Height());
  EXPECT_GE(height, 2u);
  ASSERT_OK_AND_ASSIGN(uint64_t count, tree_->CountEntries());
  EXPECT_EQ(count, 2000u);
  for (uint64_t i : {0ull, 1ull, 999ull, 1500ull, 1999ull}) {
    ASSERT_OK_AND_ASSIGN(auto values, Values(*tree_, i));
    ASSERT_EQ(values.size(), 1u) << i;
    EXPECT_EQ(values[0], i * 10);
  }
}

TEST_F(BtreeTest, ReverseInsertionOrder) {
  for (uint64_t i = 3000; i > 0; --i) {
    ASSERT_OK(tree_->Insert(i, i));
  }
  ASSERT_OK_AND_ASSIGN(uint64_t count, tree_->CountEntries());
  EXPECT_EQ(count, 3000u);
  ASSERT_OK_AND_ASSIGN(auto all, ScanAll(*tree_));
  ASSERT_EQ(all.size(), 3000u);
  for (uint64_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].first, i + 1);
}

TEST_F(BtreeTest, ScanOrderedAndComplete) {
  Random rng(3);
  std::set<uint64_t> keys;
  while (keys.size() < 1500) keys.insert(rng.Uniform(1'000'000));
  for (uint64_t k : keys) ASSERT_OK(tree_->Insert(k, k + 1));
  ASSERT_OK_AND_ASSIGN(auto all, ScanAll(*tree_));
  std::vector<Entry> expect;
  for (uint64_t k : keys) expect.emplace_back(k, k + 1);
  EXPECT_EQ(all, expect);
}

TEST_F(BtreeTest, ScanStartsAtLowerBound) {
  for (uint64_t k : {10ull, 20ull, 30ull, 40ull}) {
    ASSERT_OK(tree_->Insert(k, k));
  }
  ASSERT_OK_AND_ASSIGN(auto from, ScanAll(*tree_, 25));
  ASSERT_FALSE(from.empty());
  EXPECT_EQ(from.front().first, 30u);
  ASSERT_OK_AND_ASSIGN(from, ScanAll(*tree_, 30));
  ASSERT_FALSE(from.empty());
  EXPECT_EQ(from.front().first, 30u);
  ASSERT_OK_AND_ASSIGN(from, ScanAll(*tree_, 100));
  EXPECT_TRUE(from.empty());
  ASSERT_OK_AND_ASSIGN(auto range, ScanAll(*tree_, 15, 35));
  EXPECT_EQ(range, (std::vector<Entry>{{20, 20}, {30, 30}}));
}

TEST_F(BtreeTest, ScanStopsWhereTheVisitorSays) {
  for (uint64_t k = 0; k < 2000; ++k) ASSERT_OK(tree_->Insert(k, k));
  std::vector<uint64_t> seen;
  ASSERT_OK_AND_ASSIGN(
      bool stopped,
      tree_->Scan(100, 1500, [&](uint64_t key, uint64_t) -> Result<bool> {
        seen.push_back(key);
        return key == 900;
      }));
  EXPECT_TRUE(stopped);
  ASSERT_EQ(seen.size(), 801u);
  EXPECT_EQ(seen.front(), 100u);
  EXPECT_EQ(seen.back(), 900u);
  // A visitor's error ends the walk and is returned.
  Result<bool> failed =
      tree_->Scan(0, ~0ull, [&](uint64_t key, uint64_t) -> Result<bool> {
        if (key == 3) return Status::Corruption("planted");
        return false;
      });
  EXPECT_TRUE(failed.status().IsCorruption());
}

TEST_F(BtreeTest, TidPackingRoundTrip) {
  Tid tid{12345, 17};
  EXPECT_EQ(Btree::UnpackTid(Btree::PackTid(tid)), tid);
  ASSERT_OK(tree_->Insert(1, tid));
  ASSERT_OK_AND_ASSIGN(auto values, Values(*tree_, 1));
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(Btree::UnpackTid(values[0]), tid);
}

TEST_F(BtreeTest, ManyDuplicatesAcrossLeaves) {
  // Force one key's duplicates to straddle leaf boundaries.
  for (uint64_t v = 0; v < 1200; ++v) {
    ASSERT_OK(tree_->Insert(42, v));
  }
  ASSERT_OK_AND_ASSIGN(auto values, Values(*tree_, 42));
  ASSERT_EQ(values.size(), 1200u);
  for (uint64_t v = 0; v < 1200; ++v) EXPECT_EQ(values[v], v);
  // Delete a straddling entry.
  ASSERT_OK(tree_->Delete(42, 600));
  ASSERT_OK_AND_ASSIGN(values, Values(*tree_, 42));
  EXPECT_EQ(values.size(), 1199u);
}

TEST_F(BtreeTest, ScanningAThousandEntryKeyPinsEachLeafOnce) {
  // 1,000 versions of one key between two neighbours span several leaves
  // of a two-level tree. Each leaf costs one descent (meta, root, leaf),
  // not one pin per entry.
  ASSERT_OK(tree_->Insert(6, 0ull));
  ASSERT_OK(tree_->Insert(8, 0ull));
  for (uint64_t v = 0; v < 1000; ++v) ASSERT_OK(tree_->Insert(7, v));
  ASSERT_OK_AND_ASSIGN(uint32_t height, tree_->Height());
  ASSERT_EQ(height, 2u);
  uint64_t before = PoolHits();
  ASSERT_OK_AND_ASSIGN(auto values, Values(*tree_, 7));
  EXPECT_EQ(values.size(), 1000u);
  EXPECT_LE(PoolHits() - before, 30u);
}

TEST_F(BtreeTest, ScanNeitherRepeatsNorSkipsWhileTheVisitorWrites) {
  // At each entry it is handed, the visitor deletes that entry, which
  // shifts the rest of its leaf left. Over the first half of the walk it
  // also files three entries just behind it, which shift entries right
  // and split leaves; over the second half the leaves it has emptied are
  // merged with their right siblings every 100 entries. A walk that
  // resumed by slot, or by a right-sibling link read before the visit,
  // would skip or repeat entries; every entry present for the whole walk
  // must be seen exactly once.
  for (uint64_t k = 0; k < 3000; ++k) ASSERT_OK(tree_->Insert(k * 2 + 1, 0ull));
  std::multiset<uint64_t> seen;
  uint64_t fresh = 1;
  auto visit = [&](uint64_t key, uint64_t value) -> Result<bool> {
    if (value != 0) return false;  // filed by this walk
    seen.insert(key);
    PGLO_RETURN_IF_ERROR(tree_->Delete(key, value));
    if (key < 3000) {
      for (int i = 0; i < 3; ++i) {
        PGLO_RETURN_IF_ERROR(tree_->Insert(key - 1, fresh++));
      }
    } else if (seen.size() % 100 == 0) {
      PGLO_RETURN_IF_ERROR(tree_->MergeUnderfull().status());
    }
    return false;
  };
  ASSERT_OK(tree_->Scan(0, ~0ull, visit).status());
  ASSERT_EQ(seen.size(), 3000u);
  for (uint64_t k = 0; k < 3000; ++k) EXPECT_EQ(seen.count(k * 2 + 1), 1u) << k;
  ASSERT_OK_AND_ASSIGN(uint64_t entries, tree_->CheckStructure());
  EXPECT_EQ(entries, 4500u);
}

TEST_F(BtreeTest, MergeUnderfullCollapsesMassDeletedTree) {
  for (uint64_t k = 0; k < 3000; ++k) ASSERT_OK(tree_->Insert(k, k * 10));
  ASSERT_OK_AND_ASSIGN(uint32_t height, tree_->Height());
  ASSERT_GE(height, 2u);
  // Delete all but every 97th key: most leaves become underfull or empty.
  for (uint64_t k = 0; k < 3000; ++k) {
    if (k % 97 != 0) ASSERT_OK(tree_->Delete(k, k * 10));
  }
  ASSERT_OK_AND_ASSIGN(uint64_t freed, tree_->MergeUnderfull());
  EXPECT_GT(freed, 0u);
  // Structure stays valid and every survivor is still reachable.
  ASSERT_OK_AND_ASSIGN(uint64_t entries, tree_->CheckStructure());
  EXPECT_EQ(entries, (3000u + 96u) / 97u);
  for (uint64_t k = 0; k < 3000; k += 97) {
    ASSERT_OK_AND_ASSIGN(auto values, Values(*tree_, k));
    ASSERT_EQ(values.size(), 1u) << "key " << k;
    EXPECT_EQ(values[0], k * 10);
  }
  // An ordered walk still works over the merged tree.
  ASSERT_OK_AND_ASSIGN(auto all, ScanAll(*tree_));
  std::vector<Entry> expect;
  for (uint64_t k = 0; k < 3000; k += 97) expect.emplace_back(k, k * 10);
  EXPECT_EQ(all, expect);
}

TEST_F(BtreeTest, MergedPagesAreRecycledByLaterSplits) {
  for (uint64_t k = 0; k < 3000; ++k) ASSERT_OK(tree_->Insert(k, 1ull));
  ASSERT_OK_AND_ASSIGN(BlockNumber grown, tree_->NumBlocks());
  for (uint64_t k = 0; k < 3000; ++k) {
    if (k % 191 != 0) ASSERT_OK(tree_->Delete(k, 1ull));
  }
  ASSERT_OK_AND_ASSIGN(uint64_t freed, tree_->MergeUnderfull());
  ASSERT_GT(freed, 0u);
  // Freed pages went to the pool's free-space map...
  EXPECT_GT(pool_.fsm()->EntryCount(), 0u);
  // ...and re-growing the tree recycles them instead of extending the
  // file: the relation ends no larger than its previous high-water mark.
  for (uint64_t k = 0; k < 3000; ++k) {
    if (k % 191 != 0) ASSERT_OK(tree_->Insert(k, 1ull));
  }
  ASSERT_OK_AND_ASSIGN(BlockNumber regrown, tree_->NumBlocks());
  EXPECT_LE(regrown, grown);
  ASSERT_OK(tree_->CheckStructure().status());
}

TEST_F(BtreeTest, MergeOnEmptyAndSingleLeafTreesIsANoOp) {
  ASSERT_OK_AND_ASSIGN(uint64_t freed, tree_->MergeUnderfull());
  EXPECT_EQ(freed, 0u);
  ASSERT_OK(tree_->Insert(1, 10ull));
  ASSERT_OK(tree_->Insert(2, 20ull));
  ASSERT_OK_AND_ASSIGN(freed, tree_->MergeUnderfull());
  EXPECT_EQ(freed, 0u);
  ASSERT_OK_AND_ASSIGN(uint64_t entries, tree_->CheckStructure());
  EXPECT_EQ(entries, 2u);
}

// Oracle comparison against std::multimap under random operations.
class BtreeFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BtreeFuzz, MatchesMultimapOracle) {
  SmgrRegistry smgrs;
  ASSERT_OK(smgrs.Register(0, std::make_unique<MainMemorySmgr>(nullptr)));
  BufferPool pool(&smgrs, 128);
  RelFileId file{0, 1};
  ASSERT_OK(Btree::Create(&pool, file));
  Btree tree(&pool, file);

  Random rng(GetParam());
  std::multimap<uint64_t, uint64_t> oracle;
  std::set<std::pair<uint64_t, uint64_t>> entries;

  for (int step = 0; step < 5000; ++step) {
    uint64_t key = rng.Uniform(500);
    if (rng.OneInHundred(70)) {
      uint64_t value = rng.Uniform(1'000'000);
      Status s = tree.Insert(key, value);
      if (entries.count({key, value})) {
        EXPECT_TRUE(s.IsAlreadyExists());
      } else {
        ASSERT_OK(s);
        oracle.emplace(key, value);
        entries.insert({key, value});
      }
    } else if (!entries.empty()) {
      auto it = entries.begin();
      std::advance(it, rng.Uniform(entries.size()));
      ASSERT_OK(tree.Delete(it->first, it->second));
      auto range = oracle.equal_range(it->first);
      for (auto o = range.first; o != range.second; ++o) {
        if (o->second == it->second) {
          oracle.erase(o);
          break;
        }
      }
      entries.erase(it);
    }
    if (step % 500 == 0) {
      // A few random ranges, each walked in full and walked until the
      // visitor stops at a random entry of it.
      for (int probe = 0; probe < 5; ++probe) {
        uint64_t lo = rng.Uniform(500);
        uint64_t hi = lo + rng.Uniform(60);
        std::vector<Entry> expect(entries.lower_bound({lo, 0}),
                                  entries.lower_bound({hi + 1, 0}));
        ASSERT_OK_AND_ASSIGN(auto got, ScanAll(tree, lo, hi));
        EXPECT_EQ(got, expect) << "[" << lo << ", " << hi << "]";
        ASSERT_OK_AND_ASSIGN(auto values, Values(tree, lo));
        EXPECT_EQ(values.size(), oracle.count(lo)) << "key " << lo;
        size_t stop_at = rng.Uniform(expect.size() + 1);
        std::vector<Entry> walked;
        auto until_stop = [&](uint64_t key, uint64_t value) -> Result<bool> {
          walked.emplace_back(key, value);
          return walked.size() == stop_at + 1;
        };
        ASSERT_OK_AND_ASSIGN(bool stopped, tree.Scan(lo, hi, until_stop));
        EXPECT_EQ(stopped, stop_at < expect.size());
        expect.resize(std::min(expect.size(), stop_at + 1));
        EXPECT_EQ(walked, expect);
      }
    }
  }
  // Full scan must equal the oracle.
  ASSERT_OK_AND_ASSIGN(auto all, ScanAll(tree));
  EXPECT_EQ(all, std::vector<Entry>(entries.begin(), entries.end()));
  ASSERT_OK_AND_ASSIGN(uint64_t checked, tree.CheckStructure());
  EXPECT_EQ(checked, oracle.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BtreeFuzz,
                         ::testing::Values(13, 31, 77, 131, 317));

}  // namespace
}  // namespace pglo
