// Native bulk tier of the sharded store: bulk-vs-point equivalence per
// backend, §5.4 count-compression (counted inserts, hot-key floods), edge
// cases, stats accounting, and bulk paths across a save/load round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "store/store.h"
#include "store/store_io.h"
#include "util/xorwow.h"
#include "util/zipf.h"

namespace {

using namespace gf;
using store::backend_kind;

constexpr backend_kind kAllBackends[] = {
    backend_kind::tcf, backend_kind::gqf, backend_kind::blocked_bloom,
    backend_kind::bulk_tcf};

store::store_config config(backend_kind backend, uint32_t shards,
                           uint64_t capacity) {
  store::store_config cfg;
  cfg.backend = backend;
  cfg.num_shards = shards;
  cfg.capacity = capacity;
  return cfg;
}

TEST(StoreBulk, BulkVsPointMembershipEquivalence) {
  for (backend_kind backend : kAllBackends) {
    auto keys = util::hashed_xorwow_items(20000, 311);
    auto absent = util::hashed_xorwow_items(20000, 312);
    store::filter_store bulk(config(backend, 4, 1 << 15));
    store::filter_store point(config(backend, 4, 1 << 15));

    EXPECT_EQ(bulk.insert_bulk(keys), keys.size()) << backend_name(backend);
    for (uint64_t k : keys) ASSERT_TRUE(point.insert(k));

    // Same membership answers on every inserted key.
    for (uint64_t k : keys) {
      ASSERT_TRUE(bulk.contains(k)) << backend_name(backend);
      ASSERT_TRUE(point.contains(k)) << backend_name(backend);
    }
    // False positives stay at the backend's standalone rate on both paths.
    uint64_t fp_bulk = 0, fp_point = 0;
    for (uint64_t k : absent) {
      fp_bulk += bulk.contains(k) ? 1 : 0;
      fp_point += point.contains(k) ? 1 : 0;
    }
    EXPECT_LT(fp_bulk, absent.size() / 20) << backend_name(backend);
    EXPECT_LT(fp_point, absent.size() / 20) << backend_name(backend);
  }
}

TEST(StoreBulk, GqfCountsPreservedThroughCountedBulk) {
  // A multiset batch through the bulk path must land the same per-key
  // multiplicities as point inserts (GQF counter channel, §5.4).
  auto base = util::hashed_xorwow_items(3000, 321);
  std::vector<uint64_t> batch;
  for (size_t i = 0; i < base.size(); ++i)
    for (size_t c = 0; c < i % 5 + 1; ++c) batch.push_back(base[i]);

  store::filter_store bulk(config(backend_kind::gqf, 4, 1 << 14));
  store::filter_store point(config(backend_kind::gqf, 4, 1 << 14));
  EXPECT_EQ(bulk.insert_bulk(batch), batch.size());
  for (uint64_t k : batch) ASSERT_TRUE(point.insert(k));

  for (size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(bulk.count(base[i]), point.count(base[i]))
        << "key index " << i;
    ASSERT_GE(bulk.count(base[i]), i % 5 + 1);  // aliases only ever add
  }
}

TEST(StoreBulk, InsertCountedStoresMultiplicity) {
  // Direct backend-level contract: counted pairs preserve counts on the
  // GQF and answer membership (once) everywhere else.
  for (backend_kind backend : kAllBackends) {
    auto f = store::make_filter(backend, 1 << 12);
    std::vector<uint64_t> keys = {101, 202, 303};
    std::vector<uint64_t> counts = {7, 1, 40};
    EXPECT_EQ(f->insert_counted(keys, counts), 48u) << backend_name(backend);
    for (uint64_t k : keys) EXPECT_TRUE(f->contains(k));
    if (f->supports_counting()) {
      EXPECT_EQ(f->count(101), 7u);
      EXPECT_EQ(f->count(303), 40u);
    }
  }
}

TEST(StoreBulk, EmptyAndSingleKeyBatches) {
  for (backend_kind backend : kAllBackends) {
    store::filter_store s(config(backend, 4, 1 << 12));
    EXPECT_EQ(s.insert_bulk({}), 0u) << backend_name(backend);
    EXPECT_EQ(s.size(), 0u);
    std::vector<uint64_t> one = {0xDEADBEEFull};
    EXPECT_EQ(s.insert_bulk(one), 1u) << backend_name(backend);
    EXPECT_TRUE(s.contains(one[0]));
    EXPECT_EQ(s.count_contained(one), 1u);
    EXPECT_EQ(s.count_contained({}), 0u);
  }
}

TEST(StoreBulk, AllDuplicatesBatchCompresses) {
  // 50k copies of one key: count-compression must collapse the flood to
  // one counted insert per shard slice instead of devouring slots.
  constexpr uint64_t kCopies = 50000;
  std::vector<uint64_t> batch(kCopies, 0xF00Dull);
  for (backend_kind backend : kAllBackends) {
    store::filter_store s(config(backend, 4, 1 << 12));
    EXPECT_EQ(s.insert_bulk(batch), kCopies) << backend_name(backend);
    EXPECT_TRUE(s.contains(0xF00Dull));
    if (backend == backend_kind::gqf) {
      EXPECT_EQ(s.count(0xF00Dull), kCopies);
    } else if (backend != backend_kind::blocked_bloom) {
      // Membership backends store one fingerprint, not 50k (a point-routed
      // flood would have filled both candidate blocks and failed).
      EXPECT_LE(s.size(), 4u) << backend_name(backend);
    }
  }
}

TEST(StoreBulk, DuplicateHeavyBatchReportsNoSpuriousFailures) {
  // any_filter bulk-insert contract: returns batch *instances* answered,
  // never distinct keys placed — and §5.4 dedup applies at every batch
  // size.  An all-duplicates batch whose one distinct key trivially fits
  // must report zero insert failures on all four backends.  The 200-copy
  // case is the regression: it sits below the TCF's parallel-slab
  // threshold, where the raw point loop used to flood the hot key's two
  // candidate blocks and refuse ~half the batch.
  for (backend_kind backend : kAllBackends) {
    for (uint64_t copies : {uint64_t{200}, uint64_t{4096}}) {
      store::filter_store s(config(backend, 1, 1 << 12));
      std::vector<uint64_t> batch(copies, 0xFEEDull);
      EXPECT_EQ(s.insert_bulk(batch), copies)
          << backend_name(backend) << " x" << copies;
      EXPECT_EQ(s.shard_at(0).stats().insert_failures, 0u)
          << backend_name(backend) << " x" << copies;
      EXPECT_TRUE(s.contains(0xFEEDull)) << backend_name(backend);
    }
  }
}

TEST(StoreBulk, MixedDuplicateBatchAccountsInInstanceUnits) {
  // Half hot-key copies, half distinct keys: batch_result::inserted must
  // come back in instance units (the full batch), not distinct-key units.
  for (backend_kind backend : kAllBackends) {
    store::filter_store s(config(backend, 2, 1 << 13));
    auto distinct = util::hashed_xorwow_items(2000, 391);
    std::vector<uint64_t> batch(2000, 0xBEEFull);
    batch.insert(batch.end(), distinct.begin(), distinct.end());
    std::vector<store::op> ops;
    for (uint64_t k : batch) ops.push_back(store::make_insert(k));
    auto r = s.apply(ops);
    EXPECT_EQ(r.inserted, batch.size()) << backend_name(backend);
    EXPECT_EQ(r.insert_failed, 0u) << backend_name(backend);
  }
}

TEST(StoreBulk, ZipfFloodDoesNotCollapseTcf) {
  // The ROADMAP failure mode: a Zipf(0.99) hot-key flood point-routed into
  // a TCF overflows the hot keys' two candidate blocks and fails
  // unboundedly.  The compressed bulk tier inserts each distinct key once.
  constexpr uint64_t kN = 40000;
  auto zipf = util::zipfian_dataset(kN, 0.99, 331);
  for (backend_kind backend :
       {backend_kind::tcf, backend_kind::bulk_tcf}) {
    store::filter_store s(config(backend, 4, 1 << 16));
    EXPECT_EQ(s.insert_bulk(zipf), kN) << backend_name(backend);
    EXPECT_EQ(s.count_contained(zipf), kN) << backend_name(backend);
    // Dedup proof: stored entries = distinct keys, far below the flood.
    EXPECT_LT(s.size(), kN / 2) << backend_name(backend);
  }
}

TEST(StoreBulk, InsertSpanStatsCountOneBatch) {
  // Satellite contract: a bulk slice counts one drained batch + N inserts,
  // not N virtual-dispatch point-op stats.
  store::filter_store s(config(backend_kind::tcf, 1, 1 << 14));
  auto keys = util::hashed_xorwow_items(10000, 341);
  EXPECT_EQ(s.insert_bulk(keys), keys.size());
  auto stats = s.shard_at(0).stats();
  EXPECT_EQ(stats.inserts, keys.size());
  EXPECT_EQ(stats.insert_failures, 0u);
  EXPECT_EQ(stats.batches_drained, 1u);

  // Multi-shard: inserts sum to N, one batch per (non-empty) shard.
  store::filter_store m(config(backend_kind::tcf, 4, 1 << 14));
  EXPECT_EQ(m.insert_bulk(keys), keys.size());
  uint64_t inserts = 0, batches = 0;
  for (const auto& rep : m.report()) {
    inserts += rep.ops.inserts;
    batches += rep.ops.batches_drained;
  }
  EXPECT_EQ(inserts, keys.size());
  EXPECT_LE(batches, 4u);
  EXPECT_GE(batches, 1u);
}

TEST(StoreBulk, FlushStatsNotDoubleCounted) {
  // The drain path routes insert runs through the same bulk core; each
  // flush is one drained batch per non-empty shard and N insert stats.
  store::filter_store s(config(backend_kind::gqf, 2, 1 << 13));
  auto keys = util::hashed_xorwow_items(4000, 351);
  for (uint64_t k : keys) s.enqueue_insert(k);
  auto r = s.flush();
  EXPECT_EQ(r.inserted, keys.size());
  uint64_t inserts = 0, batches = 0;
  for (const auto& rep : s.report()) {
    inserts += rep.ops.inserts;
    batches += rep.ops.batches_drained;
  }
  EXPECT_EQ(inserts, keys.size());
  EXPECT_LE(batches, 2u);
}

TEST(StoreBulk, ApplyMixedRunsBatched) {
  // Mixed batches exercise the run scanner: large same-type runs go
  // through the native bulk ops, preserving cross-run ordering semantics.
  for (backend_kind backend : kAllBackends) {
    store::filter_store s(config(backend, 4, 1 << 14));
    auto keys = util::hashed_xorwow_items(5000, 361);
    std::vector<store::op> batch;
    for (uint64_t k : keys) batch.push_back(store::make_insert(k));
    for (uint64_t k : keys) batch.push_back(store::make_query(k));
    auto r = s.apply(batch);
    EXPECT_EQ(r.inserted, keys.size()) << backend_name(backend);
    EXPECT_EQ(r.query_hits, keys.size()) << backend_name(backend);
    EXPECT_EQ(r.query_misses, 0u) << backend_name(backend);

    if (s.shard_at(0).filter().supports_deletes()) {
      batch.clear();
      for (size_t i = 0; i < 1000; ++i)
        batch.push_back(store::make_erase(keys[i]));
      r = s.apply(batch);
      EXPECT_EQ(r.erased + r.erase_missing, 1000u) << backend_name(backend);
      EXPECT_GE(r.erased, 990u) << backend_name(backend);
    }
  }
}

TEST(StoreBulk, BulkPathAcrossSaveLoadRoundTrip) {
  for (backend_kind backend : kAllBackends) {
    auto keys = util::hashed_xorwow_items(8000, 371);
    auto more = util::hashed_xorwow_items(8000, 372);
    store::filter_store s(config(backend, 4, 1 << 15));
    EXPECT_EQ(s.insert_bulk(keys), keys.size()) << backend_name(backend);

    std::stringstream buf;
    store::save_store(s, buf);
    auto restored = store::load_store(buf);
    EXPECT_EQ(restored.size(), s.size()) << backend_name(backend);
    EXPECT_EQ(restored.count_contained(keys), keys.size())
        << backend_name(backend);

    // The restored store keeps a working bulk tier.
    EXPECT_EQ(restored.insert_bulk(more), more.size())
        << backend_name(backend);
    EXPECT_EQ(restored.count_contained(more), more.size())
        << backend_name(backend);
  }
}

TEST(StoreBulk, BulkTcfBackendPointOps) {
  // The §4.2 bulk TCF rides behind a reader-writer lock: point ops must
  // behave like every other backend's.
  store::filter_store s(config(backend_kind::bulk_tcf, 2, 1 << 13));
  auto keys = util::hashed_xorwow_items(4000, 381);
  for (uint64_t k : keys) ASSERT_TRUE(s.insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(s.contains(k));
  for (size_t i = 0; i < 200; ++i) ASSERT_TRUE(s.erase(keys[i]));
  uint64_t still = 0;
  for (size_t i = 0; i < 200; ++i) still += s.contains(keys[i]) ? 1 : 0;
  EXPECT_LT(still, 20u);  // aliasing only
  EXPECT_EQ(s.size(), keys.size() - 200);
}

// -- Cascade bulk paths ------------------------------------------------------
//
// Multi-level shards used to abandon the native bulk tier for queries and
// erases the moment a cascade had a second level — exactly on the hot
// shards that grew children.  These tests grow real cascades and pin the
// per-level-bulk-with-remainder-narrowing rewrite to the point-op oracle.

namespace cascade {

/// A shard grown to 2+ levels by overfilling and maintaining — built
/// deterministically so two calls produce bit-identical cascades.  The
/// base is sized so the fixed-seed victim sets below carry no cross-victim
/// fingerprint aliasing: under aliasing, batch-erase attribution is
/// allowed to differ from the point walk by design (never over-erasing —
/// see shard::bulk_erase_keys), so the exact-equality regression pins the
/// alias-free common case.
std::unique_ptr<store::shard> grown_shard(backend_kind backend,
                                          std::span<const uint64_t> keys) {
  auto sh = std::make_unique<store::shard>(backend, 2048);
  store::maintain_config mcfg;
  mcfg.max_levels = 4;
  for (size_t lo = 0; lo < keys.size(); lo += 1024) {
    sh->insert_span(
        keys.subspan(lo, std::min<size_t>(1024, keys.size() - lo)));
    sh->maintain(mcfg);
  }
  return sh;
}

std::vector<store::op> query_run(std::span<const uint64_t> keys) {
  std::vector<store::op> ops;
  for (uint64_t k : keys) ops.push_back(store::make_query(k));
  return ops;
}

std::vector<store::op> erase_run(std::span<const uint64_t> keys) {
  std::vector<store::op> ops;
  for (uint64_t k : keys) ops.push_back(store::make_erase(k));
  return ops;
}

}  // namespace cascade

TEST(StoreBulk, CascadeBulkQueryMatchesPointWalk) {
  for (backend_kind backend : kAllBackends) {
    auto keys = util::hashed_xorwow_items(6144, 611);
    auto sh = cascade::grown_shard(backend, keys);
    ASSERT_GT(sh->level_count(), 1u) << backend_name(backend);

    // Mixed batch: present keys, absent keys, interleaved — large enough
    // for apply() to take the bulk run path.
    std::vector<uint64_t> probes;
    auto absent = util::hashed_xorwow_items(1536, 612);
    keys.resize(1536);
    for (size_t i = 0; i < keys.size(); ++i) {
      probes.push_back(keys[i]);
      probes.push_back(absent[i]);
    }
    auto r = sh->apply(cascade::query_run(probes));
    uint64_t expect_hits = 0;
    for (uint64_t k : probes) expect_hits += sh->contains(k) ? 1 : 0;
    EXPECT_EQ(r.query_hits, expect_hits) << backend_name(backend);
    EXPECT_EQ(r.query_misses, probes.size() - expect_hits)
        << backend_name(backend);
  }
}

TEST(StoreBulk, CascadeBulkEraseMatchesPointWalk) {
  for (backend_kind backend : kAllBackends) {
    auto keys = util::hashed_xorwow_items(6144, 621);
    // Two bit-identical cascades: one erased through the bulk run path,
    // the oracle through point ops.
    auto bulk = cascade::grown_shard(backend, keys);
    auto point = cascade::grown_shard(backend, keys);
    ASSERT_GT(bulk->level_count(), 1u) << backend_name(backend);
    ASSERT_EQ(bulk->level_count(), point->level_count());
    ASSERT_EQ(bulk->size(), point->size());

    const uint64_t initial = bulk->size();

    // Distinct victims, half present and half absent, shuffled together —
    // large enough for apply() to take the bulk run path.
    std::vector<uint64_t> victims;
    auto absent = util::hashed_xorwow_items(512, 622);
    for (size_t i = 0; i < 512; ++i) {
      victims.push_back(keys[i * 8]);
      victims.push_back(absent[i]);
    }
    auto r = bulk->apply(cascade::erase_run(victims));
    uint64_t point_ok = 0;
    for (uint64_t k : victims) point_ok += point->erase(k) ? 1 : 0;

    // The erase contract under cross-victim fingerprint aliasing (one
    // victim consuming another's aliased slot mid-batch): batch
    // attribution may *under*-count against the walk — a handful at this
    // density — but never over-erases and never mis-accounts.  The old
    // per-key fallback this regression guards against was off by entire
    // levels, not units.
    ASSERT_LE(r.erased, point_ok) << backend_name(backend);
    EXPECT_LE(point_ok - r.erased, 4u) << backend_name(backend);
    EXPECT_EQ(r.erased + r.erase_missing, victims.size())
        << backend_name(backend);
    // Each successful erase removes at most one live item (a counting
    // backend decrementing a multiplicity ≥ 2 removes none).
    EXPECT_LE(initial - bulk->size(), r.erased) << backend_name(backend);
    EXPECT_LE(initial - point->size(), point_ok) << backend_name(backend);

    // Post-state: both shards agree on (almost) every key; each divergent
    // erase can perturb at most a couple of aliased answers.
    uint64_t mismatches = 0;
    for (uint64_t k : keys)
      mismatches += bulk->contains(k) != point->contains(k) ? 1 : 0;
    for (uint64_t k : victims)
      mismatches += bulk->count(k) != point->count(k) ? 1 : 0;
    EXPECT_LE(mismatches, 4 * (point_ok - r.erased) + 2)
        << backend_name(backend);
  }
}

// -- Per-key read tier --------------------------------------------------------
//
// contains_each/count_each must answer exactly like the point loop, key by
// key, on every backend, at cascade depth 1 and on grown cascades, at the
// TCF pipeline's edge batch sizes, with and without duplicate keys — and
// move the shard stats exactly as far as the point loop does.

namespace read_tier {

constexpr size_t kDist = tcf::point_tcf::kPrefetchDistance;
constexpr size_t kBatchSizes[] = {0, 1, kDist - 1, kDist, kDist + 1, 4096};

/// Half inserted keys, half absent ones; with `dups`, every third key
/// repeats an earlier one.
std::vector<uint64_t> probes(std::span<const uint64_t> present, size_t n,
                             bool dups) {
  auto absent = util::hashed_xorwow_items(n + 1, 701 + n);
  std::vector<uint64_t> out(n);
  for (size_t i = 0; i < n; ++i)
    out[i] = i % 2 ? absent[i] : present[(i * 7919) % present.size()];
  if (dups)
    for (size_t i = 3; i < n; i += 3) out[i] = out[i / 3];
  return out;
}

/// A store whose shards grew overflow levels under maintain().
store::filter_store grown_store(backend_kind backend,
                                std::span<const uint64_t> keys) {
  store::filter_store st(config(backend, 4, 4096));
  store::maintain_config mcfg;
  mcfg.max_levels = 4;
  for (size_t lo = 0; lo < keys.size(); lo += 1024) {
    st.insert_bulk(keys.subspan(lo, std::min<size_t>(1024, keys.size() - lo)));
    st.maintain(mcfg);
  }
  return st;
}

uint32_t max_depth(const store::filter_store& st) {
  uint32_t d = 0;
  for (const auto& r : st.report()) d = std::max(d, r.levels);
  return d;
}

/// Per-shard (queries, query_hits) moved by `fn`.
template <class Fn>
std::vector<std::pair<uint64_t, uint64_t>> stats_delta(
    const store::filter_store& st, Fn&& fn) {
  std::vector<std::pair<uint64_t, uint64_t>> d(st.num_shards());
  for (uint32_t s = 0; s < st.num_shards(); ++s) {
    const auto snap = st.shard_at(s).stats();
    d[s] = {snap.queries, snap.query_hits};
  }
  fn();
  for (uint32_t s = 0; s < st.num_shards(); ++s) {
    const auto snap = st.shard_at(s).stats();
    d[s] = {snap.queries - d[s].first, snap.query_hits - d[s].second};
  }
  return d;
}

void expect_matches_point(const store::filter_store& st,
                          std::span<const uint64_t> batch,
                          const std::string& what) {
  using launch = store::filter_store::launch;
  for (launch where : {launch::pool, launch::caller}) {
    const std::string ctx =
        what + (where == launch::pool ? " pool" : " caller");
    std::vector<uint8_t> point_hit(batch.size()), hit(batch.size(), 7);
    const auto point_q = stats_delta(st, [&] {
      for (size_t i = 0; i < batch.size(); ++i)
        point_hit[i] = st.contains(batch[i]);
    });
    const auto each_q =
        stats_delta(st, [&] { st.contains_each(batch, hit, where); });
    ASSERT_EQ(hit, point_hit) << ctx;
    EXPECT_EQ(each_q, point_q) << ctx;

    std::vector<uint64_t> point_count(batch.size()), count(batch.size(), 7);
    const auto point_c = stats_delta(st, [&] {
      for (size_t i = 0; i < batch.size(); ++i)
        point_count[i] = st.count(batch[i]);
    });
    const auto each_c =
        stats_delta(st, [&] { st.count_each(batch, count, where); });
    ASSERT_EQ(count, point_count) << ctx;
    EXPECT_EQ(each_c, point_c) << ctx;
  }
}

}  // namespace read_tier

TEST(StoreBulk, ContainsEachAndCountEachMatchPointLoop) {
  for (backend_kind backend : kAllBackends) {
    auto keys = util::hashed_xorwow_items(12288, 711);
    store::filter_store flat(config(backend, 4, 1 << 15));
    flat.insert_bulk(keys);
    ASSERT_EQ(read_tier::max_depth(flat), 1u) << backend_name(backend);
    auto grown = read_tier::grown_store(backend, keys);
    ASSERT_GT(read_tier::max_depth(grown), 1u) << backend_name(backend);
    // Counts above one, so count_each's per-level sums are exercised.
    if (flat.shard_at(0).filter().supports_counting()) {
      flat.insert(keys[0], 3);
      grown.insert(keys[0], 3);
    }

    for (const auto* st : {&flat, &grown})
      for (size_t n : read_tier::kBatchSizes)
        for (bool dups : {false, true}) {
          auto batch = read_tier::probes(keys, n, dups);
          read_tier::expect_matches_point(
              *st, batch,
              std::string(backend_name(backend)) +
                  (st == &flat ? " flat" : " grown") + " n=" +
                  std::to_string(n) + (dups ? " dups" : ""));
        }
  }
}

TEST(StoreBulk, ShardContainsEachMatchesPointWalkOnGrownCascade) {
  for (backend_kind backend : kAllBackends) {
    auto keys = util::hashed_xorwow_items(6144, 721);
    auto sh = cascade::grown_shard(backend, keys);
    ASSERT_GT(sh->level_count(), 1u) << backend_name(backend);
    for (size_t n : read_tier::kBatchSizes) {
      auto batch = read_tier::probes(keys, n, /*dups=*/true);
      std::vector<uint8_t> hit(n);
      std::vector<uint64_t> count(n);
      sh->contains_each(batch, hit);
      sh->count_each(batch, count);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hit[i], sh->contains(batch[i]) ? 1 : 0)
            << backend_name(backend) << " n=" << n << " i=" << i;
        ASSERT_EQ(count[i], sh->count(batch[i]))
            << backend_name(backend) << " n=" << n << " i=" << i;
      }
    }
  }
}

}  // namespace
