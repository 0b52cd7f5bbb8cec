// Google-benchmark micro-suite for the primitives everything rests on:
// hashing, rank/select words, radix sort, the cost of a pool launch, and
// the single-item filter ops.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "baselines/blocked_bloom.h"
#include "gpu/thread_pool.h"
#include "gqf/gqf.h"
#include "par/radix_sort.h"
#include "store/store.h"
#include "tcf/tcf.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/xorwow.h"

using namespace gf;

static void BM_Murmur64(benchmark::State& state) {
  uint64_t k = 0x12345;
  for (auto _ : state) {
    k = util::murmur64(k);
    benchmark::DoNotOptimize(k);
  }
}
BENCHMARK(BM_Murmur64);

static void BM_Select64(benchmark::State& state) {
  util::xorwow rng(1);
  std::vector<uint64_t> words(1024);
  for (auto& w : words) w = rng.next64();
  size_t i = 0;
  for (auto _ : state) {
    uint64_t w = words[i++ & 1023];
    benchmark::DoNotOptimize(util::select64(w, util::popcount(w) / 2));
  }
}
BENCHMARK(BM_Select64);

static void BM_RadixSort(benchmark::State& state) {
  auto base = util::hashed_xorwow_items(
      static_cast<size_t>(state.range(0)), 7);
  for (auto _ : state) {
    state.PauseTiming();
    auto copy = base;
    state.ResumeTiming();
    par::radix_sort(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RadixSort)->Arg(1 << 16)->Arg(1 << 20);

// Sort cost per key of the two caller-side tiers of radix_sort_by_key —
// args (tier: 0 comparison, 1 serial radix; n; key bits) — on random keys
// of `key bits` bits with index payloads, as the bulk TCF sorts its
// batches.  The crossover between the tiers is par::kComparisonKeysPerPass.
// Successive iterations sort successive batches of a 2^16-key pool, so the
// branch predictor cannot learn one batch's comparisons; each iteration
// also copies its n unsorted pairs in, which both tiers pay.
static void BM_SortTier(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(1));
  const int key_bits = static_cast<int>(state.range(2));
  constexpr size_t kPool = size_t{1} << 16;
  auto pool = util::hashed_xorwow_items(kPool + n, 17);
  for (auto& k : pool) k &= util::bitmask(static_cast<uint64_t>(key_bits));
  std::vector<uint64_t> k(n), v(n);
  size_t at = 0;
  for (auto _ : state) {
    std::copy(pool.begin() + at, pool.begin() + at + n, k.begin());
    at = (at + n) % kPool;
    for (size_t i = 0; i < n; ++i) v[i] = i;
    if (state.range(0) == 0)
      par::tier::comparison_by_key(k, v);
    else
      par::tier::serial_radix_by_key(k, v, key_bits);
    benchmark::DoNotOptimize(k.data());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_SortTier)
    ->ArgNames({"tier", "n", "bits"})
    ->ArgsProduct({{0, 1},
                   {8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
                   {29, 44, 64}});

// Per-item cost of a pool launch against the inline loop — args (body:
// 0 a shard_of partition pass, 1 a point-TCF contains_each probe; mode: 0
// one range on the caller, 1 one static range per worker through
// run_on_all, the split parallel_ranges launches above gpu::kLaunchFloor;
// n) — at the process pool's width (GF_NUM_WORKERS).  The partition pass
// counts the shards of an 8-shard store into per-worker histograms, the
// histogram pass of the store's shard partition; since the launched pass
// lost to the inline one up to 8192 keys, that partition runs serially on
// the caller (filter_store::group).  The probe reads a 2^22-slot
// point TCF at 33 % load with stored keys alternating with never-inserted
// ones, as a wire QUERY part does.  Successive iterations take successive
// batches of a 2^16-key pool.  gpu::kLaunchFloor comes from this row.
static void BM_PoolLaunch(benchmark::State& state) {
  const int body = static_cast<int>(state.range(0));
  const bool launch = state.range(1) != 0;
  const auto n = static_cast<uint64_t>(state.range(2));
  constexpr uint64_t kPool = uint64_t{1} << 16;
  static const store::filter_store routes([] {
    store::store_config cfg;
    cfg.num_shards = 8;
    cfg.capacity = uint64_t{1} << 12;
    return cfg;
  }());
  static const tcf::point_tcf table = [] {
    tcf::point_tcf f(uint64_t{1} << 22);
    f.insert_bulk(util::hashed_xorwow_items(f.capacity() * 33 / 100, 19));
    return f;
  }();
  static const std::vector<uint64_t> keys = [] {
    const auto stored = util::hashed_xorwow_items(table.capacity() / 4, 19);
    const auto absent = util::hashed_xorwow_items(kPool, 23);
    std::vector<uint64_t> k(kPool + 8192);
    for (uint64_t i = 0; i < k.size(); ++i)
      k[i] = i % 2 ? absent[i / 2] : stored[i * 7919 % stored.size()];
    return k;
  }();
  auto& pool = gpu::thread_pool::instance();
  const unsigned p = pool.size();
  std::vector<uint64_t> rows(p * 8);  // one line-sized row per worker
  uint64_t at = 0;
  auto range = [&](unsigned w, uint64_t begin, uint64_t end) {
    uint64_t* row = &rows[w * 8];
    const std::span<const uint64_t> part(keys.data() + at + begin,
                                         end - begin);
    if (body == 0) {
      for (uint64_t k : part) ++row[routes.shard_of(k)];
    } else {
      table.contains_each(part, [&](size_t, bool hit) { row[0] += hit; });
    }
  };
  for (auto _ : state) {
    if (launch) {
      pool.run_on_all([&](unsigned w) {
        const uint64_t begin = n * w / p, end = n * (w + 1) / p;
        if (begin < end) range(w, begin, end);
      });
    } else {
      range(0, 0, n);
    }
    at = (at + n) % kPool;
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(2));
  state.counters["width"] = p;
}
BENCHMARK(BM_PoolLaunch)
    ->ArgNames({"body", "launch", "n"})
    ->ArgsProduct({{0, 1}, {0, 1}, {64, 128, 256, 512, 1024, 2048, 4096, 8192}})
    ->UseRealTime();

static void BM_TcfPointInsert(benchmark::State& state) {
  tcf::point_tcf f(1 << 20);
  util::xorwow rng(3);
  uint64_t inserted = 0;
  for (auto _ : state) {
    if (inserted > f.capacity() * 8 / 10) {
      state.PauseTiming();
      f = tcf::point_tcf(1 << 20);
      inserted = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(f.insert(rng.next64()));
    ++inserted;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TcfPointInsert);

static void BM_TcfPointQuery(benchmark::State& state) {
  tcf::point_tcf f(1 << 20);
  auto keys = util::hashed_xorwow_items(f.capacity() * 3 / 4, 5);
  f.insert_bulk(keys);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.contains(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TcfPointQuery);

static void BM_GqfInsert(benchmark::State& state) {
  gqf::gqf_filter<uint8_t> f(20, 8);
  util::xorwow rng(9);
  uint64_t inserted = 0;
  for (auto _ : state) {
    if (inserted > f.num_slots() * 8 / 10) {
      state.PauseTiming();
      f = gqf::gqf_filter<uint8_t>(20, 8);
      inserted = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(f.insert(rng.next64()));
    ++inserted;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GqfInsert);

static void BM_GqfQuery(benchmark::State& state) {
  gqf::gqf_filter<uint8_t> f(20, 8);
  auto keys = util::hashed_xorwow_items(f.num_slots() * 3 / 4, 11);
  for (uint64_t k : keys) f.insert(k);
  size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(f.query(keys[i++ % keys.size()]));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GqfQuery);

static void BM_BlockedBloomInsert(benchmark::State& state) {
  baselines::blocked_bloom_filter f(1 << 20, 10.1, 7);
  util::xorwow rng(13);
  for (auto _ : state) f.insert(rng.next64());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockedBloomInsert);
