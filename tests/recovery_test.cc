// Durable checkpoint/restore (DESIGN.md §11): snapshot round trips,
// loader hardening against corrupt bytes, crash/resume byte-identity in
// serial and parallel evaluation, and the deterministic fault-injection
// plan that drives all of it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/compiled_program.h"
#include "core/session.h"
#include "recovery/atomic_file.h"
#include "recovery/checkpoint.h"
#include "recovery/crc32c_internal.h"
#include "recovery/fault.h"
#include "testing/test_util.h"
#include "util/string_util.h"

namespace exdl {
namespace {

using recovery::Checkpointer;
using recovery::DecodeSnapshot;
using recovery::ReadSnapshotFile;
using recovery::Snapshot;

/// Transitive closure over an n-edge chain: n rounds, O(n^2) tuples.
std::string ChainSource(int n) {
  std::string src =
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Z) :- e(X, Y), tc(Y, Z).\n"
      "?- tc(n0, X).\n";
  for (int i = 0; i < n; ++i) {
    src += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ").\n";
  }
  return src;
}

/// True if the two databases hold exactly the same rows in the same
/// insertion order (insertion order is the semi-naive delta mechanism, so
/// resume correctness requires it, not just set equality).
bool SameDatabase(const Database& a, const Database& b) {
  for (const auto* pair : {&a, &b}) {
    const Database& x = *pair;
    const Database& y = (pair == &a) ? b : a;
    for (const auto& [pred, rel] : x.relations()) {
      const Relation* other = y.Find(pred);
      if (rel.size() == 0 && other == nullptr) continue;
      if (other == nullptr || rel.size() != other->size()) return false;
      for (size_t r = 0; r < rel.size(); ++r) {
        std::span<const Value> ra = rel.view().Scan(r);
        std::span<const Value> rb = other->view().Scan(r);
        if (!std::equal(ra.begin(), ra.end(), rb.begin(), rb.end())) {
          return false;
        }
      }
    }
  }
  return true;
}

/// A fresh directory under the test temp root.
std::string MakeCheckpointDir() {
  std::string templ = ::testing::TempDir() + "/recovery_test_XXXXXX";
  char* made = mkdtemp(templ.data());
  EXPECT_NE(made, nullptr);
  return templ;
}

/// Compiles `source` and evaluates it in a fresh Session; `mutate` adjusts
/// the session options first (checkpoint dir, budget, ...).
struct SessionRun {
  Status status = Status::Ok();   ///< Compile/resume/Run() error, if any.
  EvalResult result;              ///< Valid only when status is OK.
  uint64_t fingerprint = 0;
};

template <typename Fn>
SessionRun RunSession(const std::string& source, Fn mutate,
                      const std::string& resume_path = "") {
  SessionOptions options;
  mutate(options);
  SessionRun out;
  Result<CompiledProgram::Ptr> compiled =
      CompiledProgram::Compile(source, CompileOptions());
  if (!compiled.ok()) {
    out.status = compiled.status();
    return out;
  }
  out.fingerprint = CompiledProgram::Fingerprint(
      (*compiled)->program(), options.eval, (*compiled)->magic_seed());
  Session session(std::move(options));
  session.Bind(*compiled);
  if (!resume_path.empty()) {
    Result<Snapshot> snap = ReadSnapshotFile(resume_path);
    out.status = snap.ok() ? session.ArmResume(std::move(*snap), resume_path)
                           : snap.status();
    if (!out.status.ok()) return out;
  }
  Result<EvalResult> result = session.Run((*compiled)->facts());
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.result = std::move(result).value();
  return out;
}

/// Every test disarms the global fault plan on both ends: a fault armed by
/// a failing test must never leak into the next one.
class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultPlan::Global().Disarm(); }
  void TearDown() override { FaultPlan::Global().Disarm(); }
};

using FaultPlanTest = RecoveryTest;
using SnapshotTest = RecoveryTest;

// ---------------------------------------------------------------------------
// Fault plan

TEST_F(FaultPlanTest, SpecParsing) {
  FaultPlan& plan = FaultPlan::Global();
  EXPECT_EQ(plan.Arm("nope").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.Arm("storage.arena_grow:0").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.Arm("storage.arena_grow:x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.Arm("storage.arena_grow:1:explode").code(),
            StatusCode::kInvalidArgument);
  Status unknown = plan.Arm("no.such.site:1");
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  // The error teaches the registry, so a typo in a sweep script is
  // self-diagnosing.
  EXPECT_NE(unknown.ToString().find("registered"), std::string::npos);
  EXPECT_TRUE(plan.Arm("snapshot.write:3").ok());
  EXPECT_TRUE(plan.armed());
  EXPECT_TRUE(plan.Arm("storage.arena_grow:2:abort").ok());
}

TEST_F(FaultPlanTest, SiteRegistryIsStable) {
  EXPECT_TRUE(FaultPlan::IsSite("storage.arena_grow"));
  EXPECT_TRUE(FaultPlan::IsSite("snapshot.open"));
  EXPECT_TRUE(FaultPlan::IsSite("snapshot.write"));
  EXPECT_TRUE(FaultPlan::IsSite("snapshot.fsync"));
  EXPECT_TRUE(FaultPlan::IsSite("snapshot.rename"));
  EXPECT_TRUE(FaultPlan::IsSite("daemon.accept"));
  EXPECT_TRUE(FaultPlan::IsSite("daemon.read"));
  EXPECT_TRUE(FaultPlan::IsSite("daemon.write"));
  EXPECT_TRUE(FaultPlan::IsSite("daemon.dispatch"));
  EXPECT_TRUE(FaultPlan::IsSite("factlog.append"));
  EXPECT_TRUE(FaultPlan::IsSite("factlog.fsync"));
  EXPECT_TRUE(FaultPlan::IsSite("factlog.compact_rename"));
  EXPECT_TRUE(FaultPlan::IsSite("daemon.recover_replay"));
  EXPECT_FALSE(FaultPlan::IsSite("snapshot.unlink"));
  EXPECT_FALSE(FaultPlan::IsSite("daemon.connect"));
  EXPECT_FALSE(FaultPlan::IsSite("factlog.truncate"));
  EXPECT_EQ(FaultPlan::Sites().size(), 13u);
}

TEST_F(FaultPlanTest, NthHitFiresExactlyOnce) {
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.Arm("snapshot.open:3").ok());
  EXPECT_FALSE(plan.ShouldFail("snapshot.open"));  // hit 1
  EXPECT_FALSE(plan.ShouldFail("snapshot.fsync"));  // other site: no count
  EXPECT_FALSE(plan.ShouldFail("snapshot.open"));  // hit 2
  EXPECT_TRUE(plan.ShouldFail("snapshot.open"));   // hit 3: fires
  EXPECT_FALSE(plan.ShouldFail("snapshot.open"));  // hit 4: spent
  EXPECT_EQ(plan.hits(), 4u);
  plan.Disarm();
  EXPECT_FALSE(plan.armed());
  EXPECT_FALSE(plan.ShouldFail("snapshot.open"));
}

// ---------------------------------------------------------------------------
// Snapshot encode/decode

TEST_F(SnapshotTest, CheckpointFileRoundTrips) {
  const std::string dir = MakeCheckpointDir();
  SessionRun run = RunSession(ChainSource(30), [&](SessionOptions& o) {
    o.checkpoint_directory = dir;
    o.eval.checkpoint_every_rounds = 1;
  });
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();

  Result<Snapshot> snap = ReadSnapshotFile(Checkpointer::PathIn(dir));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  // The final checkpoint is cut at the last completed round: it carries the
  // converged database and the cumulative cursor.
  EXPECT_TRUE(SameDatabase(snap->db, run.result.db));
  EXPECT_EQ(snap->cursor.stats.rounds, run.result.stats.rounds);
  EXPECT_EQ(snap->cursor.stats.tuples_inserted, run.result.stats.tuples_inserted);
  EXPECT_EQ(snap->program_fingerprint, run.fingerprint);
  EXPECT_FALSE(snap->symbols.empty());
  EXPECT_FALSE(snap->preds.empty());
}

TEST_F(SnapshotTest, DefaultCursorEdbSnapshotRoundTrips) {
  // The durable-EDB compaction path (DESIGN.md §15) reuses this format
  // with a default cursor and the generation in the fingerprint field: an
  // encode/decode round trip must preserve the full interning state and
  // database and come back with an untouched cursor.
  Context ctx;
  PredId p = ctx.InternPredicate("p", 1);
  PredId e = ctx.InternPredicate("e", 2);
  Database db;
  for (int i = 0; i < 8; ++i) {
    Value v = ctx.InternSymbol(StrCat("d", std::to_string(i)));
    db.GetOrCreate(p, 1).Insert(std::vector<Value>{v});
    db.GetOrCreate(e, 2).Insert(std::vector<Value>{v, v});
  }
  const std::string bytes =
      recovery::EncodeSnapshot(ctx, db, EvalCursor{}, /*fingerprint=*/42);
  Result<Snapshot> snap = DecodeSnapshot(bytes);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE(SameDatabase(snap->db, db));
  EXPECT_EQ(snap->program_fingerprint, 42u);
  EXPECT_EQ(snap->cursor.stats.rounds, 0u);
  EXPECT_EQ(snap->cursor.stats.tuples_inserted, 0u);
  EXPECT_EQ(snap->symbols.size(), ctx.NumSymbols());
}

TEST_F(SnapshotTest, EveryTruncationIsCorrupt) {
  const std::string dir = MakeCheckpointDir();
  SessionRun run = RunSession(ChainSource(10), [&](SessionOptions& o) {
    o.checkpoint_directory = dir;
  });
  ASSERT_TRUE(run.status.ok());
  Result<std::string> bytes =
      recovery::ReadFileToString(Checkpointer::PathIn(dir));
  ASSERT_TRUE(bytes.ok());
  ASSERT_GT(bytes->size(), 0u);
  for (size_t len = 0; len < bytes->size(); ++len) {
    Result<Snapshot> snap = DecodeSnapshot(std::string_view(*bytes).substr(0, len));
    ASSERT_FALSE(snap.ok()) << "accepted a " << len << "-byte prefix";
    ASSERT_EQ(snap.status().code(), StatusCode::kCorruptCheckpoint)
        << snap.status().ToString();
  }
}

TEST_F(SnapshotTest, EverySingleBitFlipIsCorrupt) {
  const std::string dir = MakeCheckpointDir();
  SessionRun run = RunSession(ChainSource(10), [&](SessionOptions& o) {
    o.checkpoint_directory = dir;
  });
  ASSERT_TRUE(run.status.ok());
  Result<std::string> bytes =
      recovery::ReadFileToString(Checkpointer::PathIn(dir));
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  for (size_t i = 0; i < mutated.size(); ++i) {
    for (int bit : {0, 7}) {
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      Result<Snapshot> snap = DecodeSnapshot(mutated);
      ASSERT_FALSE(snap.ok()) << "accepted flip of bit " << bit << " in byte "
                              << i;
      ASSERT_EQ(snap.status().code(), StatusCode::kCorruptCheckpoint);
      mutated[i] = (*bytes)[i];
    }
  }
}

TEST_F(SnapshotTest, MissingFileIsNotFoundNotCorrupt) {
  Result<Snapshot> snap = ReadSnapshotFile("/nonexistent/checkpoint.exdl");
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotTest, CadenceHonorsEveryNRounds) {
  const std::string dir = MakeCheckpointDir();
  SessionRun run = RunSession(ChainSource(20), [&](SessionOptions& o) {
    o.checkpoint_directory = dir;
    o.eval.checkpoint_every_rounds = 3;
  });
  ASSERT_TRUE(run.status.ok());
  Result<Snapshot> snap = ReadSnapshotFile(Checkpointer::PathIn(dir));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->cursor.stats.rounds % 3, 0u);
  EXPECT_GT(snap->cursor.stats.rounds, 0u);
}

/// Rebuilds a Context and Database from a decoded snapshot — interning its
/// tables in id order, as EDB recovery does — and encodes them again.
std::string Reencode(const Snapshot& snap) {
  Context ctx;
  for (size_t i = 0; i < snap.symbols.size(); ++i) {
    EXPECT_EQ(ctx.InternSymbol(snap.symbols[i]), i);
  }
  for (size_t i = 0; i < snap.preds.size(); ++i) {
    const recovery::SnapshotPred& pred = snap.preds[i];
    Adornment adornment;
    if (!pred.adornment.empty()) adornment = *Adornment::Parse(pred.adornment);
    EXPECT_EQ(ctx.InternPredicate(pred.name, pred.arity, adornment), i);
  }
  return recovery::EncodeSnapshot(ctx, snap.db, snap.cursor,
                                  snap.program_fingerprint);
}

TEST_F(SnapshotTest, CommittedSeedsReencodeToTheSameBytes) {
  // The valid fuzz seeds were written by earlier encoders: re-encoding
  // them byte-for-byte pins the format (every edb.exdl and checkpoint
  // already on disk stays readable and identical when rewritten).
  const std::filesystem::path corpus =
      std::filesystem::path(EXDL_FUZZ_DIR) / "corpus_snapshot";
  int seeds = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().filename().string().rfind("valid_", 0) != 0) continue;
    SCOPED_TRACE(entry.path().string());
    Result<std::string> bytes = recovery::ReadFileToString(entry.path().string());
    ASSERT_TRUE(bytes.ok());
    Result<Snapshot> snap = DecodeSnapshot(*bytes);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    EXPECT_EQ(Reencode(*snap), *bytes);
    ++seeds;
  }
  EXPECT_GE(seeds, 2);
}

TEST_F(SnapshotTest, LargeAdornedSnapshotRoundTripsByteIdentically) {
  Context ctx;
  const PredId e = ctx.InternPredicate("e", 2);
  const PredId tc_bf = ctx.InternPredicate("tc", 2, *Adornment::Parse("bf"));
  const PredId tc_bf1 = ctx.InternPredicate("tc", 1, *Adornment::Parse("bf"));
  Database db;
  std::vector<Value> nodes;
  for (int i = 0; i <= 8192; ++i) {
    nodes.push_back(ctx.InternSymbol(StrCat("n", std::to_string(i))));
  }
  for (int i = 0; i < 8192; ++i) {
    db.GetOrCreate(e, 2).Insert(std::vector<Value>{nodes[i], nodes[i + 1]});
  }
  for (int i = 1; i < 64; ++i) {
    db.GetOrCreate(tc_bf, 2).Insert(std::vector<Value>{nodes[0], nodes[i]});
    db.GetOrCreate(tc_bf1, 1).Insert(std::vector<Value>{nodes[i]});
  }
  EvalCursor cursor;
  cursor.stratum = 1;
  cursor.stats.rounds = 63;
  cursor.stats.eval_seconds = 0.25;
  cursor.delta.Set(tc_bf, 60);
  cursor.delta.Set(tc_bf1, 61);
  cursor.stats.rules_retired = 1;
  cursor.retired_rules = {2};
  const std::string bytes = recovery::EncodeSnapshot(ctx, db, cursor, 7);
  Result<Snapshot> snap = DecodeSnapshot(bytes);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE(SameDatabase(snap->db, db));
  EXPECT_EQ(Reencode(*snap), bytes);
}

TEST_F(SnapshotTest, EncodeWhileAnotherThreadInternsStaysDecodable) {
  // A compaction encodes the service Context while a concurrent compile
  // interns into it. Every snapshot must still be self-consistent: the
  // symbol and predicate counts must match the entries written.
  Context ctx;
  const PredId e = ctx.InternPredicate("e", 2);
  Database db;
  for (int i = 0; i < 4000; ++i) {
    const Value v = ctx.InternSymbol(StrCat("n", std::to_string(i)));
    db.GetOrCreate(e, 2).Insert(std::vector<Value>{v, v});
  }
  // Bounded, so an encoder that chases the growing table still ends.
  std::thread interner([&] {
    for (int i = 0; i < 100000; ++i) {
      ctx.InternSymbol(StrCat("fresh", std::to_string(i)));
      if (i % 8 == 0) ctx.InternPredicate(StrCat("fp", std::to_string(i)), 1);
    }
  });
  int corrupt = 0;
  std::string first_error;
  for (int k = 0; k < 50; ++k) {
    Result<Snapshot> snap =
        DecodeSnapshot(recovery::EncodeSnapshot(ctx, db, EvalCursor{}, k));
    if (!snap.ok() && corrupt++ == 0) first_error = snap.status().ToString();
  }
  interner.join();
  EXPECT_EQ(corrupt, 0) << "first: " << first_error;
}

// ---------------------------------------------------------------------------
// CRC32C

/// Bit-at-a-time reference CRC32C.
uint32_t ReferenceCrc32c(const uint8_t* p, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

using Crc32cFn = uint32_t (*)(const void*, size_t);

TEST(Crc32cTest, KnownAnswers) {
  // RFC 3720 section B.4 test vectors, plus the usual check value.
  std::vector<uint8_t> zeros(32, 0x00);
  std::vector<uint8_t> ones(32, 0xFF);
  std::vector<uint8_t> ascending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
  }
  for (Crc32cFn crc : {&recovery::Crc32c, &recovery::internal::Crc32cPortable}) {
    EXPECT_EQ(crc(zeros.data(), zeros.size()), 0x8A9136AAu);
    EXPECT_EQ(crc(ones.data(), ones.size()), 0x62A8AB43u);
    EXPECT_EQ(crc(ascending.data(), ascending.size()), 0x46DD794Eu);
    EXPECT_EQ(crc("123456789", 9), 0xE3069283u);
    EXPECT_EQ(crc("", 0), 0u);
  }
}

TEST(Crc32cTest, EveryLengthAndOffsetMatchesTheReference) {
  // Lengths 0..67 at start offsets 0..7 cover every head/tail split of
  // the 8-byte inner loops of both implementations.
  std::vector<uint8_t> buffer(8 + 67);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<uint8_t>(i * 167 + 13);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 67; ++len) {
      const uint8_t* p = buffer.data() + offset;
      const uint32_t want = ReferenceCrc32c(p, len);
      ASSERT_EQ(recovery::Crc32c(p, len), want)
          << "offset " << offset << " len " << len;
      ASSERT_EQ(recovery::internal::Crc32cPortable(p, len), want)
          << "offset " << offset << " len " << len;
    }
  }
}

// ---------------------------------------------------------------------------
// Crash + resume

TEST_F(RecoveryTest, SerialCrashResumeIsByteIdentical) {
  SessionRun ref = RunSession(ChainSource(150), [](SessionOptions&) {});
  ASSERT_TRUE(ref.status.ok());

  const std::string dir = MakeCheckpointDir();
  ASSERT_TRUE(FaultPlan::Global().Arm("storage.arena_grow:5").ok());
  SessionRun crashed = RunSession(ChainSource(150), [&](SessionOptions& o) {
    o.checkpoint_directory = dir;
    o.eval.checkpoint_every_rounds = 1;
  });
  // The injected fault is a hard error: no partial result escapes.
  ASSERT_FALSE(crashed.status.ok());
  EXPECT_EQ(crashed.status.code(), StatusCode::kInternal);

  FaultPlan::Global().Disarm();
  SessionRun resumed = RunSession(
      ChainSource(150), [](SessionOptions&) {}, Checkpointer::PathIn(dir));
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_TRUE(SameDatabase(resumed.result.db, ref.result.db));
  EXPECT_EQ(resumed.result.answers, ref.result.answers);
  // Cumulative stats survive the crash: the resumed run reports the whole
  // computation, not just its tail.
  EXPECT_EQ(resumed.result.stats.rounds, ref.result.stats.rounds);
  EXPECT_EQ(resumed.result.stats.tuples_inserted,
            ref.result.stats.tuples_inserted);
  EXPECT_EQ(resumed.result.stats.rule_firings, ref.result.stats.rule_firings);
}

TEST_F(RecoveryTest, StratifiedRetiredRuleResumesAtEveryRound) {
  // programs/unreached.dl runs two strata, and stratum 0's boolean cut
  // retires `linked :- e(X, Y).`, so checkpoints past stratum 0 carry
  // stratum 1 and a retired rule. A crash at every round boundary must
  // resume to the uninterrupted run's database, answers and counters.
  Result<std::string> source = recovery::ReadFileToString(
      std::string(EXDL_PROGRAMS_DIR) + "/unreached.dl");
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  SessionRun ref = RunSession(*source, [](SessionOptions&) {});
  ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
  const EvalStats& want = ref.result.stats;
  ASSERT_GT(want.rules_retired, 0u);

  bool resumed_stratified_retired = false;
  for (uint64_t r = 1; r <= want.rounds; ++r) {
    SCOPED_TRACE("crash in round " + std::to_string(r));
    const std::string dir = MakeCheckpointDir();
    ASSERT_TRUE(FaultPlan::Global()
                    .Arm("storage.arena_grow:" + std::to_string(r))
                    .ok());
    SessionRun crashed = RunSession(*source, [&](SessionOptions& o) {
      o.checkpoint_directory = dir;
      o.eval.checkpoint_every_rounds = 1;
    });
    FaultPlan::Global().Disarm();
    ASSERT_EQ(crashed.status.code(), StatusCode::kInternal);

    // Round r's flush failed, so rounds 1..r-1 are on disk.
    Result<Snapshot> snap = ReadSnapshotFile(Checkpointer::PathIn(dir));
    if (r == 1) {
      EXPECT_EQ(snap.status().code(), StatusCode::kNotFound);
      continue;
    }
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    EXPECT_EQ(snap->cursor.stats.rounds, r - 1);
    if (snap->cursor.stratum >= 1 && !snap->cursor.retired_rules.empty()) {
      resumed_stratified_retired = true;
    }

    SessionRun resumed = RunSession(
        *source, [](SessionOptions&) {}, Checkpointer::PathIn(dir));
    ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
    EXPECT_TRUE(SameDatabase(resumed.result.db, ref.result.db));
    EXPECT_EQ(resumed.result.answers, ref.result.answers);
    const EvalStats& got = resumed.result.stats;
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.rule_firings, want.rule_firings);
    EXPECT_EQ(got.tuples_inserted, want.tuples_inserted);
    EXPECT_EQ(got.duplicate_inserts, want.duplicate_inserts);
    EXPECT_EQ(got.index_probes, want.index_probes);
    EXPECT_EQ(got.rows_matched, want.rows_matched);
    EXPECT_EQ(got.rules_retired, want.rules_retired);
  }
  EXPECT_TRUE(resumed_stratified_retired);
}

TEST_F(RecoveryTest, BitsetKernelCrashResumeIsByteIdentical) {
  // A monadic program (every rule bitset-eligible, DESIGN.md §14): the
  // checkpoints cut mid-run carry arity-1 relations whose dedup bitsets
  // are rebuilt on load. Resuming on the kernels must reach the same
  // converged database as the uninterrupted run.
  auto monadic_source = [](int n) {
    std::string src =
        "reach(Y) :- reach(X), e(X, Y), not blocked(Y).\n"
        "reach(X) :- zero(X).\n"
        "?- reach(X).\n"
        "zero(n0).\n"
        "blocked(n140).\n";
    for (int i = 0; i < n; ++i) {
      src +=
          "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ").\n";
    }
    return src;
  };
  const std::string source = monadic_source(150);
  SessionRun ref = RunSession(source, [](SessionOptions&) {});
  ASSERT_TRUE(ref.status.ok());
  // Every rule ran on the kernels: the zero(X) copy as a projection run,
  // the recursive rule reading blocked's bitset words.
  EXPECT_EQ(ref.result.representation.fallbacks, 0u);
  EXPECT_GT(ref.result.representation.projection_rows, 0u);
  EXPECT_GT(ref.result.representation.words_scanned, 0u);

  const std::string dir = MakeCheckpointDir();
  ASSERT_TRUE(FaultPlan::Global().Arm("storage.arena_grow:40").ok());
  SessionRun crashed = RunSession(source, [&](SessionOptions& o) {
    o.checkpoint_directory = dir;
    o.eval.checkpoint_every_rounds = 1;
  });
  ASSERT_FALSE(crashed.status.ok());
  EXPECT_EQ(crashed.status.code(), StatusCode::kInternal);
  FaultPlan::Global().Disarm();

  // The interrupted run left a mid-fixpoint checkpoint with a non-empty
  // unary `reach` relation in it.
  Result<Snapshot> snap = ReadSnapshotFile(Checkpointer::PathIn(dir));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  bool has_unary_rows = false;
  for (const auto& [pred, rel] : snap->db.relations()) {
    if (rel.arity() == 1 && rel.size() > 0) has_unary_rows = true;
  }
  EXPECT_TRUE(has_unary_rows);

  SessionRun resumed = RunSession(
      source, [](SessionOptions&) {}, Checkpointer::PathIn(dir));
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_TRUE(SameDatabase(resumed.result.db, ref.result.db));
  EXPECT_EQ(resumed.result.answers, ref.result.answers);
  EXPECT_EQ(resumed.result.stats.rounds, ref.result.stats.rounds);
  EXPECT_EQ(resumed.result.stats.tuples_inserted,
            ref.result.stats.tuples_inserted);
  EXPECT_EQ(resumed.result.stats.rule_firings,
            ref.result.stats.rule_firings);
}

TEST_F(RecoveryTest, SnapshotWriteFaultLeavesPreviousCheckpointGood) {
  const std::string dir = MakeCheckpointDir();
  ASSERT_TRUE(FaultPlan::Global().Arm("snapshot.write:3").ok());
  SessionRun crashed = RunSession(ChainSource(60), [&](SessionOptions& o) {
    o.checkpoint_directory = dir;
    o.eval.checkpoint_every_rounds = 1;
  });
  // A sink failure is a hard error (fail-closed), never a silent skip.
  ASSERT_FALSE(crashed.status.ok());

  FaultPlan::Global().Disarm();
  // The torn write went to the temp file; the real checkpoint is the last
  // complete one (round 2 of 3 attempted).
  Result<Snapshot> snap = ReadSnapshotFile(Checkpointer::PathIn(dir));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->cursor.stats.rounds, 2u);

  SessionRun ref = RunSession(ChainSource(60), [](SessionOptions&) {});
  SessionRun resumed = RunSession(
      ChainSource(60), [](SessionOptions&) {}, Checkpointer::PathIn(dir));
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_TRUE(SameDatabase(resumed.result.db, ref.result.db));
}

TEST_F(RecoveryTest, BudgetTrippedRunLeavesResumableCheckpoint) {
  SessionRun ref = RunSession(ChainSource(100), [](SessionOptions&) {});
  ASSERT_TRUE(ref.status.ok());

  const std::string dir = MakeCheckpointDir();
  SessionRun tripped = RunSession(ChainSource(100), [&](SessionOptions& o) {
    o.checkpoint_directory = dir;
    o.eval.budget.max_tuples = 1500;
  });
  // A budget trip is a partial *result*, not an error — and because the
  // checkpoint is cut before the budget check, the trip round itself is
  // on disk and nothing is lost.
  ASSERT_TRUE(tripped.status.ok());
  ASSERT_EQ(tripped.result.termination.code(),
            StatusCode::kResourceExhausted);

  SessionRun resumed = RunSession(
      ChainSource(100), [](SessionOptions&) {}, Checkpointer::PathIn(dir));
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_TRUE(resumed.result.termination.ok());
  EXPECT_TRUE(SameDatabase(resumed.result.db, ref.result.db));
  EXPECT_EQ(resumed.result.answers, ref.result.answers);
}

TEST_F(RecoveryTest, FingerprintMismatchIsRejected) {
  const std::string dir = MakeCheckpointDir();
  SessionRun run = RunSession(ChainSource(10), [&](SessionOptions& o) {
    o.checkpoint_directory = dir;
  });
  ASSERT_TRUE(run.status.ok());

  // Same predicates and symbols would not even matter: the program text
  // differs, so the fingerprint refuses before any id-level check.
  SessionRun other = RunSession(
      "tc(X, Y) :- e(X, Y).\n?- tc(n0, X).\ne(n0, n1).\n",
      [](SessionOptions&) {}, Checkpointer::PathIn(dir));
  ASSERT_FALSE(other.status.ok());
  EXPECT_EQ(other.status.code(), StatusCode::kFailedPrecondition);

  // Same program under different evaluation semantics is also a different
  // computation.
  SessionRun naive = RunSession(
      ChainSource(10), [](SessionOptions& o) { o.eval.seminaive = false; },
      Checkpointer::PathIn(dir));
  ASSERT_FALSE(naive.status.ok());
  EXPECT_EQ(naive.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(RecoveryTest, CheckpointedRunIsByteIdenticalToPlain) {
  // Checkpointing must observe, never perturb: the run with a sink enabled
  // produces exactly the database and stats of the plain run.
  SessionRun plain = RunSession(ChainSource(80), [](SessionOptions&) {});
  ASSERT_TRUE(plain.status.ok());
  const std::string dir = MakeCheckpointDir();
  SessionRun observed = RunSession(ChainSource(80), [&](SessionOptions& o) {
    o.checkpoint_directory = dir;
    o.eval.checkpoint_every_rounds = 1;
  });
  ASSERT_TRUE(observed.status.ok());
  EXPECT_TRUE(SameDatabase(observed.result.db, plain.result.db));
  EXPECT_EQ(observed.result.answers, plain.result.answers);
  EXPECT_EQ(observed.result.stats.rounds, plain.result.stats.rounds);
  EXPECT_EQ(observed.result.stats.tuples_inserted,
            plain.result.stats.tuples_inserted);
  EXPECT_EQ(observed.result.stats.index_probes,
            plain.result.stats.index_probes);
}

TEST_F(RecoveryTest, FaultSweepAlwaysLeavesARecoverablePath) {
  // The in-test edition of tools/fault_sweep.sh: every registered site, two
  // trigger counts. Each injected fault must leave
  // either the correct final result (the fault site was never reached or
  // the failure was absorbed) or a state from which resume — or a plain
  // restart when no checkpoint was ever written — reproduces the reference
  // exactly.
  const std::string source = ChainSource(200);
  SessionRun ref = RunSession(source, [](SessionOptions&) {});
  ASSERT_TRUE(ref.status.ok());

  for (std::string_view site : FaultPlan::Sites()) {
    for (uint64_t trigger : {1u, 2u}) {
      const std::string spec =
          std::string(site) + ":" + std::to_string(trigger);
      SCOPED_TRACE(spec);
      const std::string dir = MakeCheckpointDir();
      ASSERT_TRUE(FaultPlan::Global().Arm(spec).ok());
      SessionRun faulted = RunSession(source, [&](SessionOptions& o) {
        o.checkpoint_directory = dir;
        o.eval.checkpoint_every_rounds = 1;
      });
      FaultPlan::Global().Disarm();

      if (faulted.status.ok()) {
        EXPECT_TRUE(SameDatabase(faulted.result.db, ref.result.db));
        continue;
      }
      const std::string path = Checkpointer::PathIn(dir);
      const bool have_checkpoint = ReadSnapshotFile(path).ok();
      SessionRun recovered = RunSession(
          source, [](SessionOptions&) {}, have_checkpoint ? path : "");
      ASSERT_TRUE(recovered.status.ok()) << recovered.status.ToString();
      EXPECT_TRUE(SameDatabase(recovered.result.db, ref.result.db));
      EXPECT_EQ(recovered.result.answers, ref.result.answers);
    }
  }
}

}  // namespace
}  // namespace exdl
