// Crash-recovery suite for the durability spine (docs/durability.md):
// events::Wal framing/replay, DurableStore checkpoint + recovery, and the
// kill-at-any-WAL-offset fuzz proving recovery is bit-identical to the run
// that never crashed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/fault.hpp"
#include "chaos/file_faults.hpp"
#include "crawler/database.hpp"
#include "crawler/db_io.hpp"
#include "events/binary.hpp"
#include "events/event_log.hpp"
#include "events/wal.hpp"
#include "market/durable.hpp"
#include "market/store.hpp"
#include "util/rng.hpp"

namespace appstore {
namespace {

namespace fs = std::filesystem;
using events::binary::LoadError;
using events::binary::LoadErrorKind;

class RecoveryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    directory_ = fs::temp_directory_path() / "appstore_recovery_test" / info->name();
    fs::remove_all(directory_);
    fs::create_directories(directory_);
  }
  void TearDown() override {
    fs::remove_all(fs::temp_directory_path() / "appstore_recovery_test");
  }

  fs::path directory_;
};

// ---- WAL framing and replay --------------------------------------------------

TEST_F(RecoveryFixture, WalGroupCommitRoundTrips) {
  const auto path = directory_ / "wal.awal";
  {
    auto wal = events::WalWriter::create(path, 10);
    EXPECT_EQ(wal.base_sequence(), 10u);
    EXPECT_EQ(wal.append(1, "alpha"), 11u);
    EXPECT_EQ(wal.append(2, "beta"), 12u);
    EXPECT_EQ(wal.pending_records(), 2u);
    EXPECT_EQ(wal.committed_sequence(), 10u);
    wal.commit();
    EXPECT_EQ(wal.committed_sequence(), 12u);
    EXPECT_EQ(wal.append(3, std::string(1000, 'x')), 13u);
    wal.commit();
    wal.close();
  }
  const events::WalReplay replay = events::replay_wal(path);
  EXPECT_EQ(replay.base_sequence, 10u);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[0].kind, 1u);
  EXPECT_EQ(replay.records[0].sequence, 11u);
  EXPECT_EQ(replay.records[0].payload, "alpha");
  EXPECT_EQ(replay.records[2].payload, std::string(1000, 'x'));
  EXPECT_EQ(replay.last_sequence(), 13u);
  EXPECT_EQ(replay.valid_bytes, fs::file_size(path));
}

TEST_F(RecoveryFixture, WalUncommittedAppendsAreDiscardedOnClose) {
  const auto path = directory_ / "wal.awal";
  {
    auto wal = events::WalWriter::create(path, 0);
    (void)wal.append(1, "durable");
    wal.commit();
    (void)wal.append(2, "never committed");
    wal.close();  // discards the buffered group, mirroring a crash
  }
  const events::WalReplay replay = events::replay_wal(path);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, "durable");
  EXPECT_FALSE(replay.torn_tail);
}

TEST_F(RecoveryFixture, WalTruncatedAtEveryOffsetReplaysACommittedPrefix) {
  // The exhaustive torn-tail sweep: whatever byte the crash cut the file
  // at, replay returns a prefix of the committed records and never throws.
  const auto path = directory_ / "wal.awal";
  std::vector<std::string> payloads = {"one", "twotwo", "three-three"};
  {
    auto wal = events::WalWriter::create(path, 0);
    for (const auto& payload : payloads) {
      (void)wal.append(7, payload);
      wal.commit();  // one commit per record: every record boundary is durable
    }
    wal.close();
  }
  const auto full_size = static_cast<std::uint64_t>(fs::file_size(path));
  const auto torn_path = directory_ / "torn.awal";
  for (std::uint64_t cut = 0; cut <= full_size; ++cut) {
    fs::copy_file(path, torn_path, fs::copy_options::overwrite_existing);
    chaos::truncate_file(torn_path, cut);
    constexpr std::uint64_t kHeaderBytes = 24;
    const events::WalReplay replay = events::replay_wal(torn_path);
    EXPECT_LE(replay.valid_bytes, cut) << "cut " << cut;
    if (cut < kHeaderBytes) {
      // The header itself was torn: no records, flagged as a tear even at
      // a 0-byte file (the header write never completed).
      EXPECT_TRUE(replay.torn_tail) << "cut " << cut;
      EXPECT_EQ(replay.valid_bytes, 0u) << "cut " << cut;
    } else {
      EXPECT_EQ(replay.torn_tail, replay.valid_bytes != cut) << "cut " << cut;
    }
    ASSERT_LE(replay.records.size(), payloads.size()) << "cut " << cut;
    for (std::size_t i = 0; i < replay.records.size(); ++i) {
      EXPECT_EQ(replay.records[i].payload, payloads[i]) << "cut " << cut;
      EXPECT_EQ(replay.records[i].sequence, i + 1) << "cut " << cut;
    }
    // Replay + resume must accept the torn file and continue the sequence.
    // A fully-torn header carries no trustworthy base, so the recovery
    // protocol recreates the log there instead (resume refuses).
    auto wal = replay.valid_bytes < kHeaderBytes
                   ? events::WalWriter::create(torn_path, 0)
                   : events::WalWriter::resume(torn_path, replay);
    (void)wal.append(9, "appended-after-tear");
    wal.commit();
    wal.close();
    const events::WalReplay reread = events::replay_wal(torn_path);
    ASSERT_EQ(reread.records.size(), replay.records.size() + 1) << "cut " << cut;
    EXPECT_EQ(reread.records.back().payload, "appended-after-tear");
    EXPECT_FALSE(reread.torn_tail);
  }
}

TEST_F(RecoveryFixture, WalChecksumFailureStopsReplayAtTheBadRecord) {
  const auto path = directory_ / "wal.awal";
  {
    auto wal = events::WalWriter::create(path, 0);
    (void)wal.append(1, "first");
    (void)wal.append(1, "second");
    (void)wal.append(1, "third");
    wal.commit();
    wal.close();
  }
  // Flip one payload byte of the *second* record: replay keeps the first,
  // reports the rest as unusable tail (a checksum failure is where the
  // crash hit, by the classic WAL rule).
  constexpr std::uint64_t kHeader = 24, kRecordHeader = 24;
  const std::uint64_t second_payload = kHeader + kRecordHeader + 5 + kRecordHeader;
  chaos::flip_byte(path, second_payload + 2, 0x40);
  const events::WalReplay replay = events::replay_wal(path);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, "first");
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.valid_bytes, kHeader + kRecordHeader + 5);
}

TEST_F(RecoveryFixture, WalOutOfSequenceRecordIsTypedCorruptionNotATear) {
  // Splice a checksum-valid record from another WAL (different base) onto
  // this one: replay must refuse with kBadSequence instead of silently
  // treating real corruption as a crash tail.
  const auto path_a = directory_ / "a.awal";
  const auto path_b = directory_ / "b.awal";
  {
    auto wal = events::WalWriter::create(path_a, 0);
    (void)wal.append(1, "legit");
    wal.commit();
    wal.close();
  }
  {
    auto wal = events::WalWriter::create(path_b, 50);
    (void)wal.append(1, "foreign");
    wal.commit();
    wal.close();
  }
  std::string foreign;
  {
    std::ifstream in(path_b, std::ios::binary);
    in.seekg(24);
    foreign.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path_a, std::ios::binary | std::ios::app);
    out.write(foreign.data(), static_cast<std::streamsize>(foreign.size()));
  }
  try {
    (void)events::replay_wal(path_a);
    FAIL() << "expected kBadSequence";
  } catch (const LoadError& error) {
    EXPECT_EQ(error.kind(), LoadErrorKind::kBadSequence);
  }
}

TEST_F(RecoveryFixture, EventBatchCodecRoundTripsEveryColumnMask) {
  const events::Columns masks[] = {
      events::Columns::kNone,
      events::Columns::kDay,
      events::Columns::kDay | events::Columns::kOrdinal,
      events::Columns::kDay | events::Columns::kOrdinal | events::Columns::kRating,
  };
  util::Rng rng(99);
  for (const events::Columns mask : masks) {
    events::EventLog batch(mask);
    for (int i = 0; i < 200; ++i) {
      batch.append(static_cast<std::uint32_t>(rng.below(50)),
                   static_cast<std::uint32_t>(rng.below(20)),
                   has_column(mask, events::Columns::kDay)
                       ? static_cast<std::int32_t>(rng.below(30))
                       : 0,
                   has_column(mask, events::Columns::kOrdinal)
                       ? static_cast<std::uint32_t>(i)
                       : 0,
                   has_column(mask, events::Columns::kRating)
                       ? static_cast<std::uint8_t>(1 + rng.below(5))
                       : 0);
    }
    const std::string payload = events::encode_event_batch(batch);
    const events::EventLog decoded = events::decode_event_batch(payload);
    ASSERT_EQ(decoded.columns(), batch.columns());
    ASSERT_EQ(decoded.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const events::Event lhs = batch.row(i);
      const events::Event rhs = decoded.row(i);
      ASSERT_EQ(lhs.user, rhs.user);
      ASSERT_EQ(lhs.app, rhs.app);
      ASSERT_EQ(lhs.day, rhs.day);
      ASSERT_EQ(lhs.ordinal, rhs.ordinal);
      ASSERT_EQ(lhs.rating, rhs.rating);
    }
    EXPECT_THROW((void)events::decode_event_batch(payload.substr(0, payload.size() / 2)),
                 LoadError);
  }
}

// ---- the canonical workload --------------------------------------------------

constexpr std::uint32_t kUsers = 48;
constexpr std::uint32_t kApps = 6;
constexpr int kBatches = 3;

events::LiveOptions small_live() {
  events::LiveOptions live;
  live.max_rows = 1u << 12;
  live.segment_rows = 1u << 8;
  live.max_users = kUsers;
  return live;
}

events::EventLog make_download_batch(std::uint64_t index) {
  util::Rng rng(0x9e3779b9u + index);
  events::EventLog batch(events::Columns::kDay);
  for (int i = 0; i < 40; ++i) {
    batch.append(static_cast<std::uint32_t>(rng.below(kUsers)),
                 static_cast<std::uint32_t>(rng.below(kApps)),
                 static_cast<std::int32_t>(rng.below(30)));
  }
  return batch;
}

events::EventLog make_comment_batch(std::uint64_t index) {
  util::Rng rng(0x85ebca6bu + index);
  events::EventLog batch(events::Columns::kDay | events::Columns::kRating);
  for (int i = 0; i < 24; ++i) {
    batch.append(static_cast<std::uint32_t>(rng.below(kUsers)),
                 static_cast<std::uint32_t>(rng.below(kApps)),
                 static_cast<std::int32_t>(rng.below(30)), 0,
                 static_cast<std::uint8_t>(1 + rng.below(5)));
  }
  return batch;
}

/// Applies the canonical workload through the WAL-ahead mutators, skipping
/// every operation whose WAL sequence is <= `from` (those are already in
/// the recovered store). Checkpoints consume no sequence — they fire only
/// when `checkpoints` is set, so a post-recovery re-application can replay
/// just the lost suffix.
void apply_workload(market::DurableStore& durable, std::uint64_t from, bool checkpoints) {
  std::uint64_t sequence = 0;
  const auto due = [&] { return ++sequence > from; };
  if (due()) (void)durable.add_category("games");
  if (due()) (void)durable.add_category("tools");
  if (due()) (void)durable.add_developer("dev-a");
  if (due()) (void)durable.add_developer("dev-b");
  if (due()) (void)durable.add_users(kUsers);
  for (std::uint32_t i = 0; i < kApps; ++i) {
    const bool paid = i % 3 == 0;
    if (due()) {
      (void)durable.add_app("app-" + std::to_string(i), market::DeveloperId{i % 2},
                            market::CategoryId{i % 2},
                            paid ? market::Pricing::kPaid : market::Pricing::kFree,
                            paid ? 199 + 100 * static_cast<market::Cents>(i) : 0,
                            static_cast<market::Day>(i % 5));
    }
  }
  if (due()) durable.record_update(market::AppId{0}, 3);
  if (due()) durable.set_price(market::AppId{0}, 449, 4);
  if (due()) durable.set_has_ads(market::AppId{1}, true);
  for (int b = 0; b < kBatches; ++b) {
    const events::EventLog downloads = make_download_batch(static_cast<std::uint64_t>(b));
    if (due()) durable.ingest_downloads(downloads);
    const events::EventLog comments = make_comment_batch(static_cast<std::uint64_t>(b));
    if (due()) durable.ingest_comments(comments);
    if (checkpoints && b < 2) (void)durable.checkpoint();
  }
}

template <typename T>
void put(std::string& blob, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  blob.append(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
void put_span(std::string& blob, std::span<const T> values) {
  put(blob, static_cast<std::uint64_t>(values.size()));
  blob.append(reinterpret_cast<const char*>(values.data()), values.size_bytes());
}

/// Exhaustive state fingerprint: entities, derived counters, raw price
/// accumulators (IEEE-754 bits), update events, and every column of both
/// event logs. Two stores with equal digests are byte-identical for every
/// read path the repo has.
std::uint64_t digest_store(const market::AppStore& store) {
  std::string blob;
  blob += store.name();
  put(blob, static_cast<std::uint64_t>(store.categories().size()));
  for (const auto& category : store.categories()) blob += category.name + '\0';
  put(blob, static_cast<std::uint64_t>(store.developers().size()));
  for (const auto& developer : store.developers()) blob += developer.name + '\0';
  put(blob, store.user_count());
  put(blob, static_cast<std::uint64_t>(store.apps().size()));
  for (const auto& app : store.apps()) {
    blob += app.name + '\0';
    put(blob, app.developer.value);
    put(blob, app.category.value);
    put(blob, static_cast<std::uint8_t>(app.pricing));
    put(blob, app.price);
    put(blob, app.released);
    put(blob, static_cast<std::uint8_t>(app.has_ads ? 1 : 0));
    put_span<market::Day>(blob, app.update_days);
    put(blob, store.downloads_of(app.id));
    const auto [price_sum, price_samples] = store.price_stats(app.id);
    put(blob, price_sum);  // raw double bits: exact, not rendered
    put(blob, price_samples);
  }
  put(blob, static_cast<std::uint64_t>(store.update_events().size()));
  for (const auto& update : store.update_events()) {
    put(blob, update.app.value);
    put(blob, update.day);
    put(blob, update.version);
  }
  const events::FrontierSnapshot downloads = store.download_log();
  put_span(blob, downloads.user());
  put_span(blob, downloads.app());
  put_span(blob, downloads.day());
  put_span(blob, downloads.ordinal());
  const events::FrontierSnapshot comments = store.comment_log();
  put_span(blob, comments.user());
  put_span(blob, comments.app());
  put_span(blob, comments.day());
  put_span(blob, comments.ordinal());
  put_span(blob, comments.rating());
  put(blob, store.total_downloads());
  return events::binary::fnv1a64(blob.data(), blob.size());
}

market::DurableOptions durable_options(chaos::KillAtOffset* kill = nullptr) {
  market::DurableOptions options;
  options.live = small_live();
  options.kill = kill;
  // The kill seam models the crash at the byte level (the file holds
  // exactly the admitted prefix), so the fuzz doesn't pay 20k real fsyncs.
  options.fsync = false;
  return options;
}

std::uint64_t reference_digest(const fs::path& directory) {
  market::DurableStore durable(directory, "fuzz", durable_options());
  (void)durable.open();
  apply_workload(durable, 0, true);
  const std::uint64_t digest = digest_store(durable.store());
  durable.store().check_invariants();
  durable.close();
  return digest;
}

// ---- DurableStore lifecycle --------------------------------------------------

TEST_F(RecoveryFixture, ReopenWithoutCheckpointReplaysTheWholeWal) {
  const std::uint64_t expected = reference_digest(directory_ / "ref");
  const auto dir = directory_ / "store";
  std::uint64_t ops = 0;
  {
    market::DurableStore durable(dir, "fuzz", durable_options());
    const market::RecoveryReport report = durable.open();
    EXPECT_FALSE(report.manifest_found);
    apply_workload(durable, 0, false);  // no checkpoint: everything lives in the WAL
    ops = durable.durable_sequence();
    durable.close();
  }
  market::DurableStore durable(dir, "fuzz", durable_options());
  const market::RecoveryReport report = durable.open();
  EXPECT_FALSE(report.manifest_found);
  EXPECT_EQ(report.replayed_records, ops);
  EXPECT_EQ(report.skipped_records, 0u);
  EXPECT_FALSE(report.wal_torn_tail);
  EXPECT_EQ(digest_store(durable.store()), expected);
  durable.store().check_invariants();
}

TEST_F(RecoveryFixture, CheckpointThenReopenLoadsManifestWithoutReplay) {
  const std::uint64_t expected = reference_digest(directory_ / "ref");
  const auto dir = directory_ / "store";
  {
    market::DurableStore durable(dir, "fuzz", durable_options());
    (void)durable.open();
    apply_workload(durable, 0, true);
    const market::CheckpointStats stats = durable.checkpoint();  // cover the tail too
    EXPECT_EQ(stats.sequence, durable.durable_sequence());
    EXPECT_GT(stats.event_rows, 0u);
    durable.close();
  }
  market::DurableStore durable(dir, "fuzz", durable_options());
  const market::RecoveryReport report = durable.open();
  EXPECT_TRUE(report.manifest_found);
  EXPECT_EQ(report.replayed_records, 0u);  // the WAL was retired at the checkpoint
  EXPECT_EQ(digest_store(durable.store()), expected);
  durable.store().check_invariants();
}

TEST_F(RecoveryFixture, CheckpointRetiresOlderArtifactsAndTheWal) {
  const auto dir = directory_ / "store";
  market::DurableStore durable(dir, "fuzz", durable_options());
  (void)durable.open();
  apply_workload(durable, 0, false);
  const market::CheckpointStats first = durable.checkpoint();
  durable.set_has_ads(market::AppId{2}, true);
  const market::CheckpointStats second = durable.checkpoint();
  EXPECT_GT(second.sequence, first.sequence);
  EXPECT_EQ(second.wal_records, 1u);
  const std::string old_tag = std::to_string(first.sequence);
  const std::string new_tag = std::to_string(second.sequence);
  EXPECT_FALSE(fs::exists(dir / ("entities-" + old_tag)));
  EXPECT_FALSE(fs::exists(dir / ("downloads-" + old_tag + ".alsg")));
  EXPECT_TRUE(fs::exists(dir / ("entities-" + new_tag)));
  EXPECT_TRUE(fs::exists(dir / ("downloads-" + new_tag + ".alsg")));
  EXPECT_TRUE(fs::exists(dir / ("comments-" + new_tag + ".alsg")));
  durable.close();
}

TEST_F(RecoveryFixture, RecoveryIgnoresAndRemovesInterruptedCheckpointDebris) {
  const std::uint64_t expected = reference_digest(directory_ / "ref");
  const auto dir = directory_ / "store";
  {
    market::DurableStore durable(dir, "fuzz", durable_options());
    (void)durable.open();
    apply_workload(durable, 0, true);
    durable.close();
  }
  // Fabricate what a crash mid-checkpoint leaves: artifacts tagged with a
  // sequence no manifest ever published, plus AtomicFile staging debris.
  fs::create_directories(dir / "entities-999");
  std::ofstream(dir / "downloads-999.alsg") << "half-written";
  std::ofstream(dir / "MANIFEST.tmp") << "AMAN 1\n";
  market::DurableStore durable(dir, "fuzz", durable_options());
  const market::RecoveryReport report = durable.open();
  EXPECT_TRUE(report.manifest_found);
  EXPECT_EQ(digest_store(durable.store()), expected);
  EXPECT_FALSE(fs::exists(dir / "entities-999"));
  EXPECT_FALSE(fs::exists(dir / "downloads-999.alsg"));
  EXPECT_FALSE(fs::exists(dir / "MANIFEST.tmp"));
  durable.close();
}

TEST_F(RecoveryFixture, InvalidArgumentsNeverReachTheWal) {
  const auto dir = directory_ / "store";
  market::DurableStore durable(dir, "fuzz", durable_options());
  (void)durable.open();
  (void)durable.add_category("games");
  const std::uint64_t before = durable.durable_sequence();
  EXPECT_THROW((void)durable.add_app("ghost", market::DeveloperId{7}, market::CategoryId{0},
                                     market::Pricing::kFree, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(durable.set_price(market::AppId{0}, 100, 0), std::invalid_argument);
  EXPECT_EQ(durable.durable_sequence(), before);
  durable.close();
  // The WAL holds only the valid record; recovery replays it cleanly.
  market::DurableStore reopened(dir, "fuzz", durable_options());
  const market::RecoveryReport report = reopened.open();
  EXPECT_EQ(report.replayed_records, before);
}

TEST_F(RecoveryFixture, CrawlerDatabaseComponentRidesTheManifestBarrier) {
  const auto dir = directory_ / "store";
  crawlersim::CrawlDatabase database;
  {
    crawlersim::AppRecord record;
    record.id = 4;
    record.name = "app-4";
    record.category = "games";
    record.developer = "dev-a";
    record.first_seen = 2;
    crawlersim::AppObservation observation;
    observation.downloads = 17;
    observation.version = 1;
    observation.price_dollars = 0.99;
    database.record(record, 2, observation);
    observation.downloads = 23;
    database.record(record, 3, observation);
  }
  {
    market::DurableStore durable(dir, "fuzz", durable_options());
    durable.attach_component(crawlersim::database_component(database));
    (void)durable.open();
    apply_workload(durable, 0, false);
    (void)durable.checkpoint();
    durable.close();
  }
  crawlersim::CrawlDatabase recovered;
  market::DurableStore durable(dir, "fuzz", durable_options());
  durable.attach_component(crawlersim::database_component(recovered));
  (void)durable.open();
  const auto* record = recovered.find(4);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->name, "app-4");
  ASSERT_EQ(record->by_day.size(), 2u);
  EXPECT_EQ(record->by_day.at(3).downloads, 23u);
  durable.close();
}

// ---- the crash fuzz ----------------------------------------------------------

TEST_F(RecoveryFixture, KillAtAnyWalOffsetRecoversByteIdenticalStore) {
  const std::uint64_t expected = reference_digest(directory_ / "ref");

  // Probe run: measure the total WAL byte stream (headers, recreations at
  // checkpoints, every record) so the fuzz can aim at any byte of it.
  chaos::KillAtOffset probe(std::uint64_t{1} << 60);
  {
    market::DurableStore durable(directory_ / "probe", "fuzz", durable_options(&probe));
    (void)durable.open();
    apply_workload(durable, 0, true);
    durable.close();
  }
  const std::uint64_t total_bytes = probe.consumed();
  ASSERT_GT(total_bytes, 1000u);

  constexpr int kSeeds = 512;
  int torn_tails = 0;
  int mid_stream_kills = 0;
  const auto dir = directory_ / "victim";
  for (int seed = 0; seed < kSeeds; ++seed) {
    fs::remove_all(dir);
    util::Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + 17);
    // Mostly inside the stream (any byte, including mid-record and
    // mid-header), occasionally past the end (no crash at all).
    const std::uint64_t offset = rng.below(total_bytes + total_bytes / 16 + 1);
    chaos::KillAtOffset kill(offset);
    bool crashed = false;
    {
      market::DurableStore durable(dir, "fuzz", durable_options(&kill));
      try {
        (void)durable.open();
        apply_workload(durable, 0, true);
        durable.close();
      } catch (const chaos::InjectedFault&) {
        crashed = true;  // the "process" died here; the directory is the truth
      }
    }
    if (offset < total_bytes) {
      EXPECT_TRUE(crashed) << "seed " << seed << " offset " << offset;
      ++mid_stream_kills;
    }

    market::DurableStore recovered(dir, "fuzz", durable_options());
    market::RecoveryReport report;
    ASSERT_NO_THROW(report = recovered.open()) << "seed " << seed << " offset " << offset;
    if (report.wal_torn_tail) ++torn_tails;
    const std::uint64_t durable_ops = recovered.durable_sequence();
    // Redo the suffix the crash lost — exactly what the ingest pipeline
    // would re-send past its last acknowledged sequence.
    apply_workload(recovered, durable_ops, false);
    EXPECT_EQ(digest_store(recovered.store()), expected)
        << "seed " << seed << " offset " << offset << " durable " << durable_ops;
    recovered.store().check_invariants();
    recovered.close();
  }
  // The sweep must have actually exercised the interesting regimes.
  EXPECT_GT(mid_stream_kills, kSeeds / 2);
  EXPECT_GT(torn_tails, kSeeds / 16);
}

TEST_F(RecoveryFixture, InjectedTornCommitLosesOnlyTheUnappliedRecord) {
  const std::uint64_t expected = reference_digest(directory_ / "ref");
  const auto dir = directory_ / "store";
  chaos::FaultPlan plan;
  plan.seed = 11;
  plan.rules.push_back({chaos::FaultSite::kFileWrite, chaos::FaultKind::kTornWrite, 0.15,
                        std::chrono::milliseconds{0}});
  plan.max_faults_per_key = 1;
  chaos::FaultInjector faults(plan);
  std::uint64_t durable_ops = 0;
  {
    market::DurableOptions options = durable_options();
    options.faults = &faults;
    market::DurableStore durable(dir, "fuzz", options);
    (void)durable.open();
    try {
      apply_workload(durable, 0, true);
      durable.close();
    } catch (const chaos::InjectedFault&) {
    }
  }
  market::DurableStore recovered(dir, "fuzz", durable_options());
  const market::RecoveryReport report = recovered.open();
  (void)report;
  durable_ops = recovered.durable_sequence();
  apply_workload(recovered, durable_ops, false);
  EXPECT_EQ(digest_store(recovered.store()), expected);
  recovered.store().check_invariants();
  recovered.close();
}

// ---- ingest-while-serving during checkpoint (the TSan target) ----------------

TEST_F(RecoveryFixture, ConcurrentSnapshotReadersSurviveCheckpoints) {
  const auto dir = directory_ / "store";
  market::DurableOptions options = durable_options();
  options.live.max_rows = 1u << 14;
  market::DurableStore durable(dir, "concurrent", options);
  (void)durable.open();
  (void)durable.add_category("games");
  (void)durable.add_developer("dev");
  (void)durable.add_users(kUsers);
  for (std::uint32_t i = 0; i < kApps; ++i) {
    (void)durable.add_app("app-" + std::to_string(i), market::DeveloperId{0},
                          market::CategoryId{0}, market::Pricing::kFree, 0, 0);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  const market::AppStore& store = durable.store();
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const events::FrontierSnapshot snapshot = store.download_log();
        std::uint64_t sum = 0;
        for (const std::uint32_t app : snapshot.app()) sum += app;
        // Monotonic frontier + monitoring counter: both must stay readable
        // mid-checkpoint without a lock.
        if (store.total_downloads() >= snapshot.size() && sum != ~0ull) {
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Before each checkpoint, wait until a reader has completed a read since
  // the round began, so every checkpoint round provably overlaps reads no
  // matter how the threads are scheduled. The deadline only catches readers
  // that never make progress.
  constexpr auto kReadDeadline = std::chrono::seconds(60);
  bool reader_stalled = false;
  for (int round = 0; round < 12 && !reader_stalled; ++round) {
    const std::uint64_t reads_at_start = reads.load();
    durable.ingest_downloads(make_download_batch(static_cast<std::uint64_t>(round)));
    durable.ingest_comments(make_comment_batch(static_cast<std::uint64_t>(round)));
    if (round % 3 != 2) continue;
    const auto deadline = std::chrono::steady_clock::now() + kReadDeadline;
    while (reads.load() == reads_at_start && !reader_stalled) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      reader_stalled = std::chrono::steady_clock::now() > deadline;
    }
    if (!reader_stalled) (void)durable.checkpoint();
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  ASSERT_FALSE(reader_stalled) << "no snapshot read completed within "
                               << kReadDeadline.count() << " s of a checkpoint round";
  EXPECT_GT(reads.load(), 0u);
  durable.store().check_invariants();
  durable.close();

  market::DurableStore reopened(dir, "concurrent", options);
  (void)reopened.open();
  EXPECT_EQ(digest_store(reopened.store()), digest_store(durable.store()));
  reopened.close();
}

}  // namespace
}  // namespace appstore
