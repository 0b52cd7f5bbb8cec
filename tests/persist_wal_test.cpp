// The durability engine, attacked the way crashes attack it: torn tails
// chopped at every boundary class inside a frame, fork+SIGKILL mid-append
// drills, a checkpoint whose header disagrees with the manifest, and
// byte-identity of the recovered store against a never-crashed control on
// every backend.  No sockets here — the engine is exercised directly;
// tests/persist_recovery_test.cpp covers the server integration.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "net/codec.h"
#include "net/lane.h"
#include "net/repl_log.h"
#include "persist/durability.h"
#include "persist/wal.h"
#include "store/store.h"
#include "store/store_io.h"
#include "util/xorwow.h"

// TSan supports fork from a multi-threaded process only barely: the child
// loses the runtime's background machinery and crawls (minutes per MiB of
// I/O), so the SIGKILL drills time out spuriously.  They run everywhere
// else — plain, ASan, UBSan — and the TSan CI job's `concurrency` label
// does not include this suite.
#if defined(__SANITIZE_THREAD__)
#define GF_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GF_TSAN_ACTIVE 1
#endif
#endif

namespace {

using namespace gf;
using persist::durability_engine;
using persist::wal_config;
using store::backend_kind;

constexpr backend_kind kAllBackends[] = {
    backend_kind::tcf, backend_kind::gqf, backend_kind::blocked_bloom,
    backend_kind::bulk_tcf};

store::store_config small_store(backend_kind backend = backend_kind::tcf) {
  store::store_config cfg;
  cfg.backend = backend;
  cfg.num_shards = 2;
  cfg.capacity = 1 << 12;
  return cfg;
}

std::string fresh_dir(const std::string& tag) {
  std::string dir = std::string(::testing::TempDir()) + "gf_wal_" + tag +
                    "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

wal_config small_wal(const std::string& dir) {
  wal_config cfg;
  cfg.dir = dir;
  cfg.fsync = persist::fsync_policy::none;  // tests drive fsync explicitly
  cfg.segment_bytes = 1 << 10;              // force rotation quickly
  cfg.checkpoint_every_bytes = 0;           // tests checkpoint explicitly
  return cfg;
}

durability_engine::bootstrap_fn fresh_boot(backend_kind backend) {
  return [backend] {
    return std::pair<store::filter_store, uint64_t>(
        store::filter_store(small_store(backend)), 0);
  };
}

// Deterministic per-sequence key batch, shared by writer and checker.
std::vector<uint64_t> keys_for(uint64_t seq, size_t n = 8) {
  return util::hashed_xorwow_items(n, 0x9E3779B9u + seq);
}

std::vector<uint8_t> insert_frame(uint64_t seq,
                                  std::span<const uint64_t> keys) {
  std::vector<uint8_t> payload;
  net::put_u64s(payload, keys);
  std::vector<uint8_t> out;
  net::encode_frame(net::opcode::insert, net::wire_status::ok,
                    net::kNoShardHint, static_cast<uint32_t>(keys.size()),
                    seq, payload, out);
  return out;
}

/// Stream sequences of the frames in `bytes`, in order.
std::vector<uint64_t> seqs_in(const std::vector<uint8_t>& bytes) {
  net::frame_decoder dec;
  dec.feed(bytes.data(), bytes.size());
  std::vector<uint64_t> seqs;
  net::frame f;
  while (dec.next(f) == net::decode_status::ok) seqs.push_back(f.sequence);
  EXPECT_EQ(dec.buffered(), 0u) << "replay appended a partial frame";
  return seqs;
}

/// `log` serves (after, cur] from `tier`: exactly the frames after+1 ..
/// cur, in order.
void expect_served(const net::repl_log& log, uint64_t after, uint64_t cur,
                   net::repl_tier tier) {
  std::vector<uint8_t> out;
  EXPECT_EQ(log.replay(after, cur, out), tier) << after << ".." << cur;
  std::vector<uint64_t> want;
  for (uint64_t seq = after + 1; seq <= cur; ++seq) want.push_back(seq);
  EXPECT_EQ(seqs_in(out), want) << after << ".." << cur;
}

/// No tier can serve (after, cur] whole: nothing is appended.
void expect_refused(const net::repl_log& log, uint64_t after, uint64_t cur) {
  std::vector<uint8_t> out = {0xEE};
  EXPECT_EQ(log.replay(after, cur, out), net::repl_tier::none)
      << after << ".." << cur;
  EXPECT_EQ(out.size(), 1u) << "a refused replay appended bytes";
}

std::vector<uint8_t> counted_frame(uint64_t seq,
                                   std::span<const uint64_t> keys,
                                   uint64_t count) {
  std::vector<uint8_t> payload;
  for (uint64_t k : keys) {
    net::put_u64(payload, k);
    net::put_u64(payload, count);
  }
  std::vector<uint8_t> out;
  net::encode_frame(net::opcode::insert_counted, net::wire_status::ok,
                    net::kNoShardHint, static_cast<uint32_t>(keys.size()),
                    seq, payload, out);
  return out;
}

std::vector<uint8_t> erase_frame(uint64_t seq,
                                 std::span<const uint64_t> keys) {
  std::vector<uint8_t> payload;
  net::put_u64s(payload, keys);
  std::vector<uint8_t> out;
  net::encode_frame(net::opcode::erase, net::wire_status::ok,
                    net::kNoShardHint, static_cast<uint32_t>(keys.size()),
                    seq, payload, out);
  return out;
}

std::vector<uint8_t> maintain_frame(uint64_t seq) {
  std::vector<uint8_t> out;
  net::encode_frame(net::opcode::maintain, net::wire_status::ok,
                    net::kNoShardHint, 0, seq, {}, out);
  return out;
}

size_t file_size(const std::string& path) {
  return static_cast<size_t>(std::filesystem::file_size(path));
}

// -- Round trip + rotation ---------------------------------------------------

TEST(PersistWal, RecoversEveryAppendedFrameAcrossRestart) {
  const std::string dir = fresh_dir("roundtrip");
  constexpr uint64_t kFrames = 40;  // > 10 KiB of log → several segments

  {
    durability_engine eng(small_wal(dir));
    auto st = eng.recover(fresh_boot(backend_kind::tcf));
    for (uint64_t seq = 1; seq <= kFrames; ++seq) {
      auto keys = keys_for(seq);
      st.insert_bulk(keys);
      eng.append(seq, insert_frame(seq, keys));
    }
    EXPECT_EQ(eng.last_seq(), kFrames);
    EXPECT_GT(eng.stats().wal_segments, 1u) << "rotation never happened";
  }

  durability_engine eng(small_wal(dir));
  auto st = eng.recover(fresh_boot(backend_kind::tcf));
  const auto s = eng.stats();
  EXPECT_EQ(s.recovery_replayed_frames, kFrames);
  EXPECT_EQ(s.recovery_truncated_bytes, 0u);
  EXPECT_EQ(s.recovery_gaps, 0u);
  EXPECT_EQ(eng.last_seq(), kFrames);
  for (uint64_t seq = 1; seq <= kFrames; ++seq) {
    auto keys = keys_for(seq);
    EXPECT_EQ(st.count_contained(keys), keys.size()) << "seq " << seq;
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistWal, FreshDirectoryArmsWithInitialCheckpoint) {
  const std::string dir = fresh_dir("arm");
  durability_engine eng(small_wal(dir));
  auto st = eng.recover([] {
    store::filter_store boot(small_store());
    auto keys = keys_for(7, 100);
    boot.insert_bulk(keys);
    return std::pair<store::filter_store, uint64_t>(std::move(boot), 0);
  });
  // The fallback store is immediately made durable: the checkpoint (not
  // the fallback source) is what the next restart loads.
  EXPECT_TRUE(persist::manifest_exists(dir));
  auto m = persist::load_manifest(dir);
  EXPECT_TRUE(m.has_checkpoint);
  EXPECT_EQ(m.checkpoint_seq, 0u);
  uint64_t header_seq = 99;
  auto reloaded = store::load_store(dir + "/" + m.checkpoint_file,
                                    &header_seq);
  EXPECT_EQ(header_seq, 0u);
  EXPECT_EQ(store::serialize_store(reloaded), store::serialize_store(st));
  std::filesystem::remove_all(dir);
}

// -- Byte identity vs a never-crashed control, every backend -----------------

TEST(PersistWal, RecoveredStoreByteIdenticalEveryBackend) {
  for (backend_kind backend : kAllBackends) {
    const std::string dir =
        fresh_dir(std::string("ident_") + backend_name(backend));
    // A mixed workload: plain inserts, counted inserts, erases, and a
    // maintain — every opcode the WAL can carry.
    store::filter_store control{small_store(backend)};
    {
      durability_engine eng(small_wal(dir));
      auto st = eng.recover(fresh_boot(backend));
      uint64_t seq = 0;
      auto log_insert = [&](const std::vector<uint64_t>& keys) {
        ++seq;
        st.insert_bulk(keys);
        control.insert_bulk(keys);
        eng.append(seq, insert_frame(seq, keys));
      };
      auto apply_counted = [](store::filter_store& s,
                              const std::vector<uint64_t>& keys) {
        std::vector<store::op> ops;
        for (uint64_t k : keys) ops.push_back(store::make_insert(k, 3));
        s.apply(ops);
      };
      auto apply_erase = [](store::filter_store& s,
                            const std::vector<uint64_t>& keys) {
        std::vector<store::op> ops;
        for (uint64_t k : keys) ops.push_back(store::make_erase(k));
        s.apply(ops);
      };
      for (int round = 0; round < 6; ++round) {
        log_insert(keys_for(100 + round, 64));
        auto counted = keys_for(200 + round, 16);
        ++seq;
        apply_counted(st, counted);
        apply_counted(control, counted);
        eng.append(seq, counted_frame(seq, counted, 3));
      }
      auto gone = keys_for(100, 64);
      ++seq;
      apply_erase(st, gone);
      apply_erase(control, gone);
      eng.append(seq, erase_frame(seq, gone));
      ++seq;
      st.maintain();
      control.maintain();
      eng.append(seq, maintain_frame(seq));
    }

    durability_engine eng(small_wal(dir));
    auto recovered = eng.recover(fresh_boot(backend));
    EXPECT_EQ(store::serialize_store(recovered, eng.last_seq()),
              store::serialize_store(control, eng.last_seq()))
        << backend_name(backend);
    std::filesystem::remove_all(dir);
  }
}

// -- Torn tails --------------------------------------------------------------

// Chop the live segment mid-frame at every boundary class a torn write can
// land on; recovery must keep the clean prefix, physically truncate the
// tear, and report the cut.
TEST(PersistWal, TornTailTruncatedAtEveryBoundaryClass) {
  // The torn frame: offsets into it, one per boundary class.
  const auto torn = insert_frame(3, keys_for(3));
  const size_t cuts[] = {
      2,                                // inside the length prefix
      4 + 9,                            // inside the fixed header tail
      4 + net::kHeaderTailBytes + 11,   // inside the payload
      torn.size() - 2,                  // inside the CRC trailer
  };
  for (size_t cut : cuts) {
    const std::string dir =
        fresh_dir("torn_" + std::to_string(cut));
    size_t clean_bytes = 0;
    {
      durability_engine eng(small_wal(dir));
      auto st = eng.recover(fresh_boot(backend_kind::tcf));
      for (uint64_t seq = 1; seq <= 2; ++seq) {
        auto keys = keys_for(seq);
        st.insert_bulk(keys);
        eng.append(seq, insert_frame(seq, keys));
      }
      st.insert_bulk(keys_for(3));
      eng.append(3, torn);
      clean_bytes = persist::kSegmentHeaderBytes +
                    insert_frame(1, keys_for(1)).size() +
                    insert_frame(2, keys_for(2)).size();
    }
    const std::string seg = dir + "/" + persist::segment_file_name(1);
    ASSERT_EQ(file_size(seg), clean_bytes + torn.size());
    ASSERT_EQ(::truncate(seg.c_str(),
                         static_cast<off_t>(clean_bytes + cut)), 0);

    durability_engine eng(small_wal(dir));
    auto st = eng.recover(fresh_boot(backend_kind::tcf));
    const auto s = eng.stats();
    EXPECT_EQ(s.recovery_replayed_frames, 2u) << "cut at +" << cut;
    EXPECT_EQ(s.recovery_truncated_bytes, cut) << "cut at +" << cut;
    EXPECT_EQ(eng.last_seq(), 2u);
    EXPECT_EQ(st.count_contained(keys_for(1)), keys_for(1).size());
    EXPECT_EQ(st.count_contained(keys_for(2)), keys_for(2).size());
    // The tear is physically gone: the segment now ends at the last clean
    // frame and a further restart replays without any truncation.
    EXPECT_EQ(file_size(seg), clean_bytes);
    durability_engine again(small_wal(dir));
    (void)again.recover(fresh_boot(backend_kind::tcf));
    EXPECT_EQ(again.stats().recovery_truncated_bytes, 0u);
    std::filesystem::remove_all(dir);
  }
}

TEST(PersistWal, CorruptTailFrameIsCutAtLastCleanBoundary) {
  const std::string dir = fresh_dir("corrupt");
  size_t clean_bytes = 0;
  size_t total = 0;
  {
    durability_engine eng(small_wal(dir));
    auto st = eng.recover(fresh_boot(backend_kind::tcf));
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      auto keys = keys_for(seq);
      st.insert_bulk(keys);
      const auto bytes = insert_frame(seq, keys);
      eng.append(seq, bytes);
      if (seq <= 2) clean_bytes += bytes.size();
      total += bytes.size();
    }
    clean_bytes += persist::kSegmentHeaderBytes;
    total += persist::kSegmentHeaderBytes;
  }
  // Flip one payload byte of the final frame: length and header still
  // parse, the CRC catches it — the frame must not be applied.
  const std::string seg = dir + "/" + persist::segment_file_name(1);
  {
    std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(clean_bytes + 4 +
                                        net::kHeaderTailBytes + 3));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  durability_engine eng(small_wal(dir));
  (void)eng.recover(fresh_boot(backend_kind::tcf));
  const auto s = eng.stats();
  EXPECT_EQ(s.recovery_replayed_frames, 2u);
  EXPECT_EQ(s.recovery_truncated_bytes, total - clean_bytes);
  EXPECT_EQ(eng.last_seq(), 2u);
  EXPECT_EQ(file_size(seg), clean_bytes);
  std::filesystem::remove_all(dir);
}

// -- fork + SIGKILL drills ---------------------------------------------------

// The real thing: a writer process appending with fsync=every is killed at
// a random instant.  Whatever prefix the survivor recovers must be exactly
// the frames 1..last_seq, fully applied, regardless of where the kill
// landed inside a write.
TEST(PersistWal, SigkillMidAppendLeavesRecoverablePrefix) {
#ifdef GF_TSAN_ACTIVE
  GTEST_SKIP() << "fork+SIGKILL drills are unreliably slow under TSan";
#endif
  for (int drill = 0; drill < 3; ++drill) {
    const std::string dir = fresh_dir("kill_" + std::to_string(drill));
    std::filesystem::create_directories(dir);

    // Roomy store: the kill may land late, and the drill's invariant
    // ("every recovered key is present") only holds below capacity.
    store::store_config scfg = small_store();
    scfg.capacity = 1 << 16;
    auto boot = [scfg] {
      return std::pair<store::filter_store, uint64_t>(
          store::filter_store(scfg), 0);
    };

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: append until killed.  The frame cap keeps the key volume
      // far below capacity even when the parent's kill is slow to land;
      // past it, park and wait for the SIGKILL.
      wal_config cfg = small_wal(dir);
      cfg.fsync = persist::fsync_policy::every;
      durability_engine eng(cfg);
      auto st = eng.recover(boot);
      for (uint64_t seq = 1; seq <= 2000; ++seq) {
        auto keys = keys_for(seq);
        st.insert_bulk(keys);
        eng.append(seq, insert_frame(seq, keys));
      }
      for (;;) ::pause();
    }

    // Parent: wait for the first durable frame, then strike at a varying
    // point in the stream.
    const std::string seg = dir + "/" + persist::segment_file_name(1);
    for (int spins = 0; spins < 20000; ++spins) {
      std::error_code ec;
      if (std::filesystem::exists(seg, ec) &&
          file_size(seg) > persist::kSegmentHeaderBytes + (drill + 1) * 600u)
        break;
      ::usleep(100);
    }
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int ws = 0;
    ASSERT_EQ(::waitpid(pid, &ws, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(ws));

    durability_engine eng(small_wal(dir));
    auto st = eng.recover(boot);
    const uint64_t prefix = eng.last_seq();
    ASSERT_GE(prefix, 1u) << "drill " << drill;
    EXPECT_EQ(eng.stats().recovery_replayed_frames, prefix);
    for (uint64_t seq = 1; seq <= prefix; ++seq) {
      auto keys = keys_for(seq);
      ASSERT_EQ(st.count_contained(keys), keys.size())
          << "drill " << drill << " seq " << seq;
    }
    std::filesystem::remove_all(dir);
  }
}

// -- Checkpointing -----------------------------------------------------------

TEST(PersistWal, CheckpointPrunesLogAndRestartReplaysOnlyTheTail) {
  const std::string dir = fresh_dir("ckpt");
  {
    durability_engine eng(small_wal(dir));
    auto st = eng.recover(fresh_boot(backend_kind::tcf));
    for (uint64_t seq = 1; seq <= 10; ++seq) {
      auto keys = keys_for(seq);
      st.insert_bulk(keys);
      eng.append(seq, insert_frame(seq, keys));
    }
    eng.checkpoint(st);
    EXPECT_EQ(eng.stats().checkpoint_seq, 10u);
    EXPECT_EQ(eng.stats().wal_segments, 0u) << "covered log not pruned";
    for (uint64_t seq = 11; seq <= 15; ++seq) {
      auto keys = keys_for(seq);
      st.insert_bulk(keys);
      eng.append(seq, insert_frame(seq, keys));
    }
  }
  durability_engine eng(small_wal(dir));
  auto st = eng.recover(fresh_boot(backend_kind::tcf));
  // O(delta): only the five frames above the checkpoint replay.
  EXPECT_EQ(eng.stats().recovery_replayed_frames, 5u);
  EXPECT_EQ(eng.last_seq(), 15u);
  for (uint64_t seq = 1; seq <= 15; ++seq)
    EXPECT_EQ(st.count_contained(keys_for(seq)), keys_for(seq).size());
  std::filesystem::remove_all(dir);
}

TEST(PersistWal, CheckpointDueTriggersOnBytesAndOnGaps) {
  const std::string dir = fresh_dir("due");
  wal_config cfg = small_wal(dir);
  cfg.checkpoint_every_bytes = 2048;
  durability_engine eng(cfg);
  auto st = eng.recover(fresh_boot(backend_kind::tcf));
  const net::repl_log log(1, 0, &eng);
  uint64_t seq = 0;
  while (!eng.checkpoint_due()) {
    ++seq;
    auto keys = keys_for(seq);
    st.insert_bulk(keys);
    eng.append(seq, insert_frame(seq, keys));
    ASSERT_LT(seq, 1000u) << "byte threshold never tripped";
  }
  eng.checkpoint(st);
  EXPECT_FALSE(eng.checkpoint_due());

  // A sequence hole (unsupervised replica accepted a feed gap) demands an
  // immediate checkpoint and fences the pre-gap log off replay().
  auto keys = keys_for(seq + 5);
  st.insert_bulk(keys);
  eng.append(seq + 5, insert_frame(seq + 5, keys));
  EXPECT_TRUE(eng.checkpoint_due());
  expect_refused(log, seq, seq + 5);
  expect_served(log, seq + 4, seq + 5, net::repl_tier::disk);
  eng.checkpoint(st);
  EXPECT_FALSE(eng.checkpoint_due());
  std::filesystem::remove_all(dir);
}

// -- Manifest / checkpoint cross-check ---------------------------------------

TEST(PersistWal, ManifestCheckpointDisagreementRejected) {
  const std::string dir = fresh_dir("disagree");
  {
    durability_engine eng(small_wal(dir));
    auto st = eng.recover(fresh_boot(backend_kind::tcf));
    for (uint64_t seq = 1; seq <= 4; ++seq) {
      auto keys = keys_for(seq);
      st.insert_bulk(keys);
      eng.append(seq, insert_frame(seq, keys));
    }
    eng.checkpoint(st);  // manifest now says checkpoint_seq = 4

    // Swap in a checkpoint whose own header claims a different coverage —
    // the shape of a partial restore or a hand-copied file.
    const std::string bytes = store::serialize_store(st, 2);
    store::atomic_write_file(dir + "/checkpoint.gfs", bytes.data(),
                             bytes.size());
  }
  durability_engine eng(small_wal(dir));
  EXPECT_THROW((void)eng.recover(fresh_boot(backend_kind::tcf)),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

// -- Disk-backed delta serving ----------------------------------------------

TEST(PersistWal, ReplayReproducesTheSubscriberStreamBytes) {
  const std::string dir = fresh_dir("delta");
  durability_engine eng(small_wal(dir));
  auto st = eng.recover(fresh_boot(backend_kind::tcf));
  const net::repl_log log(1, 0, &eng);  // no memory tier: disk serves all
  std::vector<std::vector<uint8_t>> wire;
  for (uint64_t seq = 1; seq <= 10; ++seq) {
    auto keys = keys_for(seq);
    st.insert_bulk(keys);
    wire.push_back(insert_frame(seq, keys));
    eng.append(seq, wire.back());
  }
  expect_served(log, 0, 10, net::repl_tier::disk);
  expect_served(log, 5, 10, net::repl_tier::disk);
  expect_served(log, 10, 10, net::repl_tier::memory);  // nothing to read
  expect_refused(log, 11, 10);

  std::vector<uint8_t> out;
  EXPECT_EQ(log.replay(5, 10, out), net::repl_tier::disk);
  std::vector<uint8_t> expect;
  for (uint64_t seq = 6; seq <= 10; ++seq)
    expect.insert(expect.end(), wire[seq - 1].begin(), wire[seq - 1].end());
  EXPECT_EQ(out, expect) << "disk replay diverged from the live stream";

  // After a checkpoint prunes everything, nothing below last_seq is
  // servable any more — the caller falls back to a snapshot bootstrap.
  eng.checkpoint(st);
  expect_refused(log, 5, 10);
  expect_served(log, 10, 10, net::repl_tier::memory);
  std::filesystem::remove_all(dir);
}

TEST(PersistWal, ResetDropsTheOldLineage) {
  const std::string dir = fresh_dir("reset");
  durability_engine eng(small_wal(dir));
  auto st = eng.recover(fresh_boot(backend_kind::tcf));
  const net::repl_log log(1, 0, &eng);
  for (uint64_t seq = 1; seq <= 6; ++seq) {
    auto keys = keys_for(seq);
    st.insert_bulk(keys);
    eng.append(seq, insert_frame(seq, keys));
  }
  // New lineage at sequence 100 (a replica re-bootstrapped): the old log
  // must be gone and appends continue from the new position.
  store::filter_store next{small_store()};
  next.insert_bulk(keys_for(777, 32));
  const uint64_t lasts[] = {100};
  eng.reset(next, lasts);
  EXPECT_EQ(eng.last_seq(), 100u);
  expect_refused(log, 3, 6);
  auto keys = keys_for(101);
  eng.append(101, insert_frame(101, keys));
  expect_served(log, 100, 101, net::repl_tier::disk);

  durability_engine again(small_wal(dir));
  auto recovered = again.recover(fresh_boot(backend_kind::tcf));
  EXPECT_EQ(again.last_seq(), 101u);
  EXPECT_EQ(again.stats().recovery_replayed_frames, 1u);
  EXPECT_EQ(recovered.count_contained(keys_for(777, 32)), 32u);
  std::filesystem::remove_all(dir);
}

// -- The replication log over its disk tier ----------------------------------

/// Append frame `seq` through the log (WAL first, then the lane's tail).
void log_insert(net::repl_log& log, uint64_t seq) {
  auto keys = keys_for(net::lane_local(seq));
  log.append(seq, std::make_shared<const std::vector<uint8_t>>(
                      insert_frame(seq, keys)));
}

TEST(PersistWal, ReplLogServesTheTailFromMemoryAndTheRestFromDisk) {
  const std::string dir = fresh_dir("log_tiers");
  durability_engine eng(small_wal(dir));
  (void)eng.recover(fresh_boot(backend_kind::tcf));
  // A tail that holds about two 8-key frames.
  const size_t frame_bytes = insert_frame(1, keys_for(1)).size();
  net::repl_log log(1, 2 * frame_bytes, &eng);
  for (uint64_t seq = 1; seq <= 10; ++seq) log_insert(log, seq);
  EXPECT_EQ(log.frames(), 2u);
  EXPECT_EQ(log.bytes(), 2 * frame_bytes);
  expect_served(log, 8, 10, net::repl_tier::memory);
  expect_served(log, 9, 10, net::repl_tier::memory);
  expect_served(log, 7, 10, net::repl_tier::disk);  // wrapped out of memory
  expect_served(log, 0, 10, net::repl_tier::disk);
  expect_refused(log, 11, 10);

  // Budget 0 keeps no tail at all: the same WAL serves every range.
  const net::repl_log disk_only(1, 0, &eng);
  EXPECT_EQ(disk_only.frames(), 0u);
  expect_served(disk_only, 9, 10, net::repl_tier::disk);
  expect_served(disk_only, 0, 10, net::repl_tier::disk);
  std::filesystem::remove_all(dir);
}

TEST(PersistWal, ReplLogLaneAboveItsTailsIsDiskOnly) {
  const std::string dir = fresh_dir("log_lanes");
  durability_engine eng(small_wal(dir));
  (void)eng.recover(fresh_boot(backend_kind::tcf));
  // One memory tail (lane 0), as on a 1-reactor replica forwarding a
  // 2-lane primary's feed: lane 1 lives on disk only.
  net::repl_log log(1, size_t{1} << 20, &eng);
  for (uint64_t i = 1; i <= 4; ++i) {
    log_insert(log, net::lane_seq(0, i));
    log_insert(log, net::lane_seq(1, i));
  }
  EXPECT_EQ(log.frames(), 4u);
  expect_served(log, 0, 4, net::repl_tier::memory);
  expect_served(log, net::lane_seq(1, 0), net::lane_seq(1, 4),
                net::repl_tier::disk);
  expect_served(log, net::lane_seq(1, 2), net::lane_seq(1, 4),
                net::repl_tier::disk);
  expect_refused(log, net::lane_seq(1, 0), net::lane_seq(0, 4));  // 2 lanes

  // Without a disk tier the lane is not replayable at all.
  const net::repl_log memory_only(1, size_t{1} << 20, nullptr);
  expect_refused(memory_only, net::lane_seq(1, 0), net::lane_seq(1, 4));
  std::filesystem::remove_all(dir);
}

TEST(PersistWal, ReplLogResetCoversNothingOfTheOldLineage) {
  const std::string dir = fresh_dir("log_reset");
  durability_engine eng(small_wal(dir));
  (void)eng.recover(fresh_boot(backend_kind::tcf));
  net::repl_log log(2, size_t{1} << 20, &eng);
  for (uint64_t i = 1; i <= 6; ++i) {
    log_insert(log, net::lane_seq(0, i));
    log_insert(log, net::lane_seq(1, i));
  }
  expect_served(log, 3, 6, net::repl_tier::memory);

  store::filter_store next{small_store()};
  const uint64_t lasts[] = {6, net::lane_seq(1, 6)};
  log.reset(next, lasts);
  EXPECT_EQ(log.frames(), 0u);
  EXPECT_EQ(log.bytes(), 0u);
  expect_refused(log, 0, 6);
  expect_refused(log, 3, 6);
  expect_refused(log, net::lane_seq(1, 3), net::lane_seq(1, 6));
  expect_served(log, 6, 6, net::repl_tier::memory);

  // The new lineage logs from its reset position on.
  log_insert(log, 7);
  expect_served(log, 6, 7, net::repl_tier::memory);
  const net::repl_log disk_only(1, 0, &eng);
  expect_served(disk_only, 6, 7, net::repl_tier::disk);
  std::filesystem::remove_all(dir);
}

}  // namespace
