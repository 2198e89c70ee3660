// Durable EDB tests (DESIGN.md §15): the fact-log format's torn-tail /
// fail-closed policy, the FactLog file lifecycle (including the unwind
// guarantee under injected faults), and whole-service crash recovery —
// answers after restart byte-identical to the uninterrupted service,
// across 1/4-worker pools.

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "durability/durable_edb.h"
#include "durability/fact_log.h"
#include "recovery/fault.h"
#include "service/answer_text.h"
#include "service/edb_recovery.h"
#include "service/query_service.h"

namespace exdl {
namespace {

using durability::DurabilityCounters;
using durability::DurabilityOptions;
using durability::DurableEdb;
using durability::EncodeFactLogHeader;
using durability::EncodeFactRecord;
using durability::FactLog;
using durability::FactLogScan;
using durability::FactRecord;
using durability::ScanFactLog;

std::string MakeTempDir() {
  std::string templ = ::testing::TempDir() + "/durability_test_XXXXXX";
  char* made = mkdtemp(templ.data());
  EXPECT_NE(made, nullptr);
  return templ;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void AppendToFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

constexpr char kQuery[] = "q(X) :- p(X).\n?- q(X).\n";

std::string QueryAnswers(QueryService& service, const std::string& source) {
  QueryRequest request;
  request.source = source;
  request.name = "q.dl";
  QueryService::Ticket ticket = service.Submit(std::move(request));
  QueryResponse response = service.Await(ticket);
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  return RenderAnswerRows(*service.ctx(), response.result.answers);
}

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultPlan::Global().Disarm(); }
  void TearDown() override { FaultPlan::Global().Disarm(); }
};

// ---------------------------------------------------------------------------
// ScanFactLog: the torn-tail vs fail-closed policy.

TEST_F(DurabilityTest, ScanAcceptsEmptyAndBareHeader) {
  Result<FactLogScan> empty = ScanFactLog("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->records.empty());
  EXPECT_EQ(empty->truncated_tail_bytes, 0u);

  Result<FactLogScan> bare = ScanFactLog(EncodeFactLogHeader());
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->records.empty());
  EXPECT_EQ(bare->valid_bytes, durability::kFactLogHeaderSize);
  EXPECT_EQ(bare->truncated_tail_bytes, 0u);
}

TEST_F(DurabilityTest, ScanRoundTripsRecords) {
  std::string log = EncodeFactLogHeader();
  log += EncodeFactRecord(1, "p(a).\n");
  log += EncodeFactRecord(2, "p(b). q(a, b).\n");
  log += EncodeFactRecord(3, "");
  Result<FactLogScan> scan = ScanFactLog(log);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[0], (FactRecord{1, "p(a).\n"}));
  EXPECT_EQ(scan->records[1], (FactRecord{2, "p(b). q(a, b).\n"}));
  EXPECT_EQ(scan->records[2], (FactRecord{3, ""}));
  EXPECT_EQ(scan->valid_bytes, log.size());
  EXPECT_EQ(scan->truncated_tail_bytes, 0u);
}

TEST_F(DurabilityTest, ScanTruncatesEveryPossibleTornTail) {
  const std::string intact = EncodeFactLogHeader() + EncodeFactRecord(1, "p(a).\n");
  const std::string frame = EncodeFactRecord(2, "p(bb).\n");
  // Chop the second record at every byte boundary: each prefix is the
  // shape some interrupted append could leave, and every one must scan as
  // a torn tail with record 1 intact.
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    const std::string log = intact + frame.substr(0, cut);
    Result<FactLogScan> scan = ScanFactLog(log);
    ASSERT_TRUE(scan.ok()) << "cut=" << cut << ": " << scan.status().ToString();
    ASSERT_EQ(scan->records.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(scan->records[0], (FactRecord{1, "p(a).\n"}));
    EXPECT_EQ(scan->valid_bytes, intact.size());
    EXPECT_EQ(scan->truncated_tail_bytes, cut);
  }
}

TEST_F(DurabilityTest, ScanTruncatesPartialHeaderButRejectsWrongBytes) {
  const std::string header = EncodeFactLogHeader();
  for (size_t cut = 1; cut < header.size(); ++cut) {
    Result<FactLogScan> scan = ScanFactLog(header.substr(0, cut));
    ASSERT_TRUE(scan.ok()) << "cut=" << cut;
    EXPECT_EQ(scan->truncated_tail_bytes, cut);
  }
  Result<FactLogScan> bad = ScanFactLog("NOTAFLOG????????");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruptCheckpoint);
}

TEST_F(DurabilityTest, ScanFailsClosedOnCorruption) {
  // A complete record with a flipped payload byte: checksum mismatch.
  std::string log = EncodeFactLogHeader() + EncodeFactRecord(1, "p(a).\n");
  log[log.size() - 2] ^= 0x40;
  Result<FactLogScan> flipped = ScanFactLog(log);
  ASSERT_FALSE(flipped.ok());
  EXPECT_EQ(flipped.status().code(), StatusCode::kCorruptCheckpoint);

  // A bit-flipped length field larger than any real append: corruption,
  // not a tear, even though the "payload" overruns EOF.
  std::string big = EncodeFactLogHeader();
  big += EncodeFactRecord(1, "p(a).\n");
  big[durability::kFactLogHeaderSize + 3] = 0x7f;  // length |= 0x7f000000
  Result<FactLogScan> huge = ScanFactLog(big);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kCorruptCheckpoint);

  // Generations must be strictly increasing.
  std::string reorder = EncodeFactLogHeader();
  reorder += EncodeFactRecord(2, "p(a).\n");
  reorder += EncodeFactRecord(1, "p(b).\n");
  Result<FactLogScan> gap = ScanFactLog(reorder);
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().code(), StatusCode::kCorruptCheckpoint);
}

// ---------------------------------------------------------------------------
// FactLog: the file lifecycle.

TEST_F(DurabilityTest, FactLogAppendsSurviveReopen) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/facts.log";
  {
    FactLog log;
    FactLogScan scan;
    ASSERT_TRUE(log.Open(path, &scan).ok());
    EXPECT_TRUE(scan.records.empty());
    ASSERT_TRUE(log.Append(1, "p(a).\n").ok());
    ASSERT_TRUE(log.Append(2, "p(b).\n").ok());
  }
  FactLog log;
  FactLogScan scan;
  ASSERT_TRUE(log.Open(path, &scan).ok());
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1], (FactRecord{2, "p(b).\n"}));
  EXPECT_EQ(scan.truncated_tail_bytes, 0u);
  // Truncate drops the records but keeps the header.
  ASSERT_TRUE(log.Truncate().ok());
  EXPECT_EQ(log.size_bytes(), durability::kFactLogHeaderSize);
  ASSERT_TRUE(log.Append(3, "p(c).\n").ok());
  FactLog reopened;
  ASSERT_TRUE(reopened.Open(path, &scan).ok());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].generation, 3u);
}

TEST_F(DurabilityTest, FactLogOpenRepairsTornTailInPlace) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/facts.log";
  {
    FactLog log;
    FactLogScan scan;
    ASSERT_TRUE(log.Open(path, &scan).ok());
    ASSERT_TRUE(log.Append(1, "p(a).\n").ok());
  }
  const std::string intact = ReadWholeFile(path);
  const std::string torn = EncodeFactRecord(2, "p(b).\n");
  AppendToFile(path, torn.substr(0, torn.size() - 3));
  FactLog log;
  FactLogScan scan;
  ASSERT_TRUE(log.Open(path, &scan).ok());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.truncated_tail_bytes, torn.size() - 3);
  // The tail is physically gone and appends continue cleanly.
  EXPECT_EQ(ReadWholeFile(path), intact);
  ASSERT_TRUE(log.Append(2, "p(b).\n").ok());
  Result<FactLogScan> rescan = ScanFactLog(ReadWholeFile(path));
  ASSERT_TRUE(rescan.ok());
  EXPECT_EQ(rescan->records.size(), 2u);
}

TEST_F(DurabilityTest, InjectedAppendFailureUnwindsTheFile) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/facts.log";
  FactLog log;
  FactLogScan scan;
  ASSERT_TRUE(log.Open(path, &scan).ok());
  ASSERT_TRUE(log.Append(1, "p(a).\n").ok());
  const std::string before = ReadWholeFile(path);

  for (const char* spec : {"factlog.append:1", "factlog.fsync:1"}) {
    ASSERT_TRUE(FaultPlan::Global().Arm(spec).ok());
    Status failed = log.Append(2, "p(b).\n");
    FaultPlan::Global().Disarm();
    ASSERT_FALSE(failed.ok()) << spec;
    // The half-written frame was truncated away: a retry appends to a
    // clean log and the file stays scannable throughout.
    EXPECT_EQ(ReadWholeFile(path), before) << spec;
  }
  ASSERT_TRUE(log.Append(2, "p(b).\n").ok());
  Result<FactLogScan> rescan = ScanFactLog(ReadWholeFile(path));
  ASSERT_TRUE(rescan.ok());
  ASSERT_EQ(rescan->records.size(), 2u);
  EXPECT_EQ(rescan->records[1], (FactRecord{2, "p(b).\n"}));
}

TEST_F(DurabilityTest, CommittedLogSeedsReencodeToTheSameBytes) {
  // The valid fact-log seeds were written by earlier encoders: rebuilding
  // each from its scanned records must reproduce the file byte-for-byte.
  for (const char* seed : {"one_record", "three_records"}) {
    SCOPED_TRACE(seed);
    const std::string bytes =
        ReadWholeFile(std::string(EXDL_FUZZ_DIR) + "/corpus_factlog/" + seed);
    Result<FactLogScan> scan = ScanFactLog(bytes);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    ASSERT_FALSE(scan->records.empty());
    EXPECT_EQ(scan->truncated_tail_bytes, 0u);
    std::string rebuilt = EncodeFactLogHeader();
    for (const FactRecord& record : scan->records) {
      rebuilt += EncodeFactRecord(record.generation, record.source);
    }
    EXPECT_EQ(rebuilt, bytes);
  }
}

// ---------------------------------------------------------------------------
// DurableEdb + QueryService: crash recovery end to end.

std::string LoadFive(QueryService& service) {
  for (int k = 1; k <= 5; ++k) {
    Status loaded = service.LoadFacts("p(d" + std::to_string(k) + ").\n");
    EXPECT_TRUE(loaded.ok()) << loaded.ToString();
  }
  return QueryAnswers(service, kQuery);
}

ServiceOptions ServiceConfig(uint32_t workers,
                             std::shared_ptr<DurableEdb> durable = nullptr) {
  ServiceOptions options;
  options.num_workers = workers;
  options.durable = std::move(durable);
  return options;
}

TEST_F(DurabilityTest, RecoveryIsByteIdenticalAcrossPools) {
  std::string reference;
  for (uint32_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const std::string dir = MakeTempDir();
    auto edb = std::make_shared<DurableEdb>(DurabilityOptions{dir, 2});
    ASSERT_TRUE(edb->Open().ok());
    std::string live;
    {
      QueryService service(ServiceConfig(workers, edb));
      live = LoadFive(service);
    }
    ASSERT_FALSE(live.empty());
    DurabilityCounters counters = edb->counters();
    EXPECT_EQ(counters.records_appended, 5u);
    EXPECT_EQ(counters.compactions, 2u);  // after loads 2 and 4
    EXPECT_EQ(counters.snapshot_generation, 4u);

    // "Restart": a fresh DurableEdb + service over the same directory.
    auto recovered_edb =
        std::make_shared<DurableEdb>(DurabilityOptions{dir, 2});
    ASSERT_TRUE(recovered_edb->Open().ok());
    EXPECT_EQ(recovered_edb->snapshot_generation(), 4u);
    ASSERT_EQ(recovered_edb->tail().size(), 1u);  // only generation 5
    QueryService recovered(ServiceConfig(workers));
    Status status = RecoverDurableEdb(*recovered_edb, recovered);
    ASSERT_TRUE(status.ok()) << status.ToString();
    recovered.AttachDurability(recovered_edb);
    EXPECT_EQ(recovered_edb->counters().records_replayed, 1u);
    EXPECT_EQ(recovered.snapshot().generation(), 5u);
    EXPECT_EQ(QueryAnswers(recovered, kQuery), live);

    if (reference.empty()) reference = live;
    EXPECT_EQ(live, reference)
        << "answers differ across pool sizes";
  }
}

TEST_F(DurabilityTest, RecoveredServiceKeepsLoadingDurably) {
  const std::string dir = MakeTempDir();
  {
    auto edb = std::make_shared<DurableEdb>(DurabilityOptions{dir, 2});
    ASSERT_TRUE(edb->Open().ok());
    QueryService service(
        ServiceConfig(1, edb));
    LoadFive(service);
  }
  std::string extended;
  {
    auto edb = std::make_shared<DurableEdb>(DurabilityOptions{dir, 2});
    ASSERT_TRUE(edb->Open().ok());
    QueryService service(ServiceConfig(1));
    ASSERT_TRUE(RecoverDurableEdb(*edb, service).ok());
    service.AttachDurability(edb);
    // Generation numbering continues from the recovered state.
    ASSERT_TRUE(service.LoadFacts("p(d6).\n").ok());
    EXPECT_EQ(service.snapshot().generation(), 6u);
    extended = QueryAnswers(service, kQuery);
  }
  auto edb = std::make_shared<DurableEdb>(DurabilityOptions{dir, 2});
  ASSERT_TRUE(edb->Open().ok());
  QueryService service(ServiceConfig(1));
  ASSERT_TRUE(RecoverDurableEdb(*edb, service).ok());
  EXPECT_EQ(QueryAnswers(service, kQuery), extended);
}

TEST_F(DurabilityTest, TornLogTailIsTruncatedOnRecovery) {
  const std::string dir = MakeTempDir();
  std::string live;
  {
    auto edb = std::make_shared<DurableEdb>(DurabilityOptions{dir, 2});
    ASSERT_TRUE(edb->Open().ok());
    QueryService service(ServiceConfig(1, edb));
    live = LoadFive(service);
  }
  // Simulate a crash mid-append: half of generation 6 on disk, unsynced.
  const std::string torn = EncodeFactRecord(6, "p(d6).\n");
  AppendToFile(DurableEdb::LogPathIn(dir), torn.substr(0, torn.size() / 2));

  auto edb = std::make_shared<DurableEdb>(DurabilityOptions{dir, 2});
  ASSERT_TRUE(edb->Open().ok());
  EXPECT_EQ(edb->counters().truncated_tail_bytes, torn.size() / 2);
  QueryService service(ServiceConfig(1));
  ASSERT_TRUE(RecoverDurableEdb(*edb, service).ok());
  // d6 was never acknowledged; everything acknowledged survives.
  EXPECT_EQ(QueryAnswers(service, kQuery), live);
}

TEST_F(DurabilityTest, MidLogCorruptionFailsClosed) {
  const std::string dir = MakeTempDir();
  {
    auto edb = std::make_shared<DurableEdb>(DurabilityOptions{dir, 0});
    ASSERT_TRUE(edb->Open().ok());
    QueryService service(ServiceConfig(1, edb));
    LoadFive(service);
  }
  const std::string path = DurableEdb::LogPathIn(dir);
  std::string bytes = ReadWholeFile(path);
  bytes[bytes.size() - 2] ^= 0x01;  // flip a payload bit in a synced record
  WriteWholeFile(path, bytes);

  DurableEdb edb(DurabilityOptions{dir, 0});
  Status status = edb.Open();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruptCheckpoint);
}

TEST_F(DurabilityTest, GenerationGapFailsClosed) {
  const std::string dir = MakeTempDir();
  WriteWholeFile(DurableEdb::LogPathIn(dir),
                 EncodeFactLogHeader() + EncodeFactRecord(2, "p(a).\n"));
  DurableEdb edb(DurabilityOptions{dir, 0});
  Status status = edb.Open();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruptCheckpoint);
}

TEST_F(DurabilityTest, StaleRecordsBelowSnapshotGenerationAreFiltered) {
  const std::string dir = MakeTempDir();
  std::string live;
  {
    auto edb = std::make_shared<DurableEdb>(DurabilityOptions{dir, 2});
    ASSERT_TRUE(edb->Open().ok());
    QueryService service(ServiceConfig(1, edb));
    live = LoadFive(service);  // snapshot at generation 4, tail = {5}
  }
  // Simulate a crash between the compaction rename and the log truncate:
  // the log still holds records the snapshot already covers.
  WriteWholeFile(DurableEdb::LogPathIn(dir),
                 EncodeFactLogHeader() + EncodeFactRecord(3, "p(d3).\n") +
                     EncodeFactRecord(4, "p(d4).\n") +
                     EncodeFactRecord(5, "p(d5).\n"));
  auto edb = std::make_shared<DurableEdb>(DurabilityOptions{dir, 2});
  ASSERT_TRUE(edb->Open().ok());
  ASSERT_EQ(edb->tail().size(), 1u);  // 3 and 4 filtered, 5 replayed
  EXPECT_EQ(edb->tail()[0].generation, 5u);
  QueryService service(ServiceConfig(1));
  ASSERT_TRUE(RecoverDurableEdb(*edb, service).ok());
  EXPECT_EQ(QueryAnswers(service, kQuery), live);
}

TEST_F(DurabilityTest, FailedAppendNeverPublishesAGeneration) {
  const std::string dir = MakeTempDir();
  auto edb = std::make_shared<DurableEdb>(DurabilityOptions{dir, 0});
  ASSERT_TRUE(edb->Open().ok());
  QueryService service(ServiceConfig(1, edb));
  ASSERT_TRUE(service.LoadFacts("p(a).\n").ok());

  ASSERT_TRUE(FaultPlan::Global().Arm("factlog.fsync:1").ok());
  Status failed = service.LoadFacts("p(b).\n");
  FaultPlan::Global().Disarm();
  ASSERT_FALSE(failed.ok());
  // The failed load is invisible: generation unchanged, fact absent.
  EXPECT_EQ(service.snapshot().generation(), 1u);
  EXPECT_EQ(QueryAnswers(service, kQuery), "a\n");
  // The log unwound, so the retry succeeds and is durable.
  ASSERT_TRUE(service.LoadFacts("p(b).\n").ok());
  EXPECT_EQ(service.snapshot().generation(), 2u);

  auto recovered_edb = std::make_shared<DurableEdb>(DurabilityOptions{dir, 0});
  ASSERT_TRUE(recovered_edb->Open().ok());
  QueryService recovered(ServiceConfig(1));
  ASSERT_TRUE(RecoverDurableEdb(*recovered_edb, recovered).ok());
  EXPECT_EQ(QueryAnswers(recovered, kQuery), "a\nb\n");
}

TEST_F(DurabilityTest, CompactionRacingFreshConstantSubmitsStaysRecoverable) {
  // Compaction encodes the service Context under the publish lock, while
  // SUBMIT compiles intern fresh constants under the compile lock only.
  // Every compacted snapshot must still decode, and a restart must
  // recover answers identical to the live service's.
  const std::string dir = MakeTempDir();
  std::string live;
  int bad_snapshots = 0;
  std::string first_error;
  {
    auto edb = std::make_shared<DurableEdb>(DurabilityOptions{dir, 1});
    ASSERT_TRUE(edb->Open().ok());
    QueryService service(ServiceConfig(4, edb));
    // A wide symbol table makes each compaction's walk over it long.
    std::string base;
    for (int i = 0; i < 4000; ++i) base += "p(b" + std::to_string(i) + ").\n";
    ASSERT_TRUE(service.LoadFacts(base).ok());
    // Pipelined submitters keep compiles (and their interning) queued
    // whenever a load reaches its compaction.
    std::atomic<bool> stop{false};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 2; ++t) {
      submitters.emplace_back([&, t] {
        std::deque<QueryService::Ticket> in_flight;
        for (int i = 0; !stop.load() || !in_flight.empty(); ++i) {
          if (!stop.load()) {
            QueryRequest request;
            request.source = "s(X) :- p(X), r(X).\n";
            for (int j = 0; j < 64; ++j) {
              request.source += "r(f" + std::to_string(t) + "_" +
                                std::to_string(i) + "_" + std::to_string(j) +
                                ").\n";
            }
            request.source += "?- s(X).\n";
            in_flight.push_back(service.Submit(std::move(request)));
          }
          if (in_flight.size() > 8 || stop.load()) {
            EXPECT_TRUE(service.Await(in_flight.front()).status.ok());
            in_flight.pop_front();
          }
        }
      });
    }
    for (int g = 0; g < 60; ++g) {
      EXPECT_TRUE(service.LoadFacts("p(d" + std::to_string(g) + ").\n").ok());
      Result<recovery::Snapshot> snap =
          recovery::ReadSnapshotFile(DurableEdb::SnapshotPathIn(dir));
      if (!snap.ok() && bad_snapshots++ == 0) {
        first_error = snap.status().ToString();
      }
    }
    stop = true;
    for (std::thread& submitter : submitters) submitter.join();
    live = QueryAnswers(service, kQuery);
  }
  EXPECT_EQ(bad_snapshots, 0) << "first: " << first_error;
  auto edb = std::make_shared<DurableEdb>(DurabilityOptions{dir, 1});
  Status opened = edb->Open();
  ASSERT_TRUE(opened.ok()) << opened.ToString();
  QueryService recovered(ServiceConfig(1));
  Status status = RecoverDurableEdb(*edb, recovered);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(QueryAnswers(recovered, kQuery), live);
}

TEST_F(DurabilityTest, RestoreSnapshotRequiresAFreshService) {
  QueryService service;
  ASSERT_TRUE(service.LoadFacts("p(a).\n").ok());
  recovery::Snapshot snapshot;
  Status status = service.RestoreSnapshot(std::move(snapshot), 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace exdl
