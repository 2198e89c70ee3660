// Integration test driving the exdlc and exdld binaries end to end (paths
// injected by CMake as EXDLC_PATH and EXDLD_PATH).

#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

namespace {

/// Decodes a pclose()/wait() status into the child's exit code (-1 when it
/// did not exit normally).
int DecodeExitCode(int status) {
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string RunCommand(const std::string& command, int* exit_code) {
  std::string output;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    *exit_code = -1;
    return output;
  }
  std::array<char, 4096> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  *exit_code = pclose(pipe);
  return output;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    program_path_ = ::testing::TempDir() + "/cli_test_tc.dl";
    std::ofstream out(program_path_);
    out << "query(X) :- a(X, Y).\n"
           "a(X, Y) :- p(X, Z), a(Z, Y).\n"
           "a(X, Y) :- p(X, Y).\n"
           "p(n0, n1). p(n1, n2).\n"
           "?- query(X).\n";
  }
  std::string Exdlc() { return std::string(EXDLC_PATH); }
  std::string program_path_;
};

TEST_F(CliTest, OptimizePrintsProjectedProgram) {
  int code = 0;
  std::string out = RunCommand(Exdlc() + " optimize " + program_path_, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("a@nd(X)"), std::string::npos) << out;
  EXPECT_NE(out.find("projection pushing"), std::string::npos) << out;
}

TEST_F(CliTest, RunPrintsAnswers) {
  int code = 0;
  std::string out =
      RunCommand(Exdlc() + " run " + program_path_ + " --optimize", &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("n0"), std::string::npos);
  EXPECT_NE(out.find("n1"), std::string::npos);
  EXPECT_NE(out.find("2 answer(s)"), std::string::npos) << out;
}

TEST_F(CliTest, PlanShowsSteps) {
  int code = 0;
  std::string out = RunCommand(Exdlc() + " plan " + program_path_, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("step 0:"), std::string::npos);
  EXPECT_NE(out.find("emit"), std::string::npos);
}

TEST_F(CliTest, ExplainShowsDerivation) {
  int code = 0;
  std::string out = RunCommand(
      Exdlc() + " explain " + program_path_ + " \"a(n0, n2)\"", &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("[input fact]"), std::string::npos) << out;
}

TEST_F(CliTest, CheckDetectsEquivalence) {
  std::string copy = ::testing::TempDir() + "/cli_test_copy.dl";
  {
    std::ofstream out(copy);
    out << "query(X) :- a(X, Y).\n"
           "a(X, Y) :- a(X, Z), p(Z, Y).\n"  // left-linear variant
           "a(X, Y) :- p(X, Y).\n"
           "?- query(X).\n";
  }
  int code = 0;
  std::string out =
      RunCommand(Exdlc() + " check " + program_path_ + " " + copy, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("no difference"), std::string::npos) << out;
}

TEST_F(CliTest, CheckDetectsDifference) {
  std::string other = ::testing::TempDir() + "/cli_test_other.dl";
  {
    std::ofstream out(other);
    // Genuinely different: sources with an outgoing edge vs targets with
    // an incoming one. (A one-step forward variant would be equivalent:
    // "reaches something" == "has an outgoing edge" — the paper's point!)
    out << "query(X) :- p(Y, X).\n"
           "?- query(X).\n";
  }
  int code = 0;
  std::string out =
      RunCommand(Exdlc() + " check " + program_path_ + " " + other, &code);
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("NOT equivalent"), std::string::npos) << out;
}

TEST_F(CliTest, BadUsageExitsNonZero) {
  int code = 0;
  RunCommand(Exdlc() + " frobnicate", &code);
  EXPECT_NE(code, 0);
  RunCommand(Exdlc() + " run /nonexistent/file.dl", &code);
  EXPECT_NE(code, 0);
}

class CliBudgetTest : public CliTest {
 protected:
  /// Writes an n-edge transitive-closure program (n rounds, O(n^2) tuples).
  std::string WriteChain(int n) {
    std::string path = ::testing::TempDir() + "/cli_test_budget_chain.dl";
    std::ofstream out(path);
    out << "tc(X, Y) :- e(X, Y).\n"
           "tc(X, Z) :- e(X, Y), tc(Y, Z).\n"
           "?- tc(n0, X).\n";
    for (int i = 0; i < n; ++i) {
      out << "e(n" << i << ", n" << i + 1 << ").\n";
    }
    return path;
  }
};

TEST_F(CliBudgetTest, MaxTuplesTripExitsFive) {
  std::string chain = WriteChain(200);
  int status = 0;
  std::string out = RunCommand(
      Exdlc() + " run " + chain + " --max-tuples 1000", &status);
  EXPECT_EQ(DecodeExitCode(status), 5) << out;
  EXPECT_NE(out.find("budget tripped (tuples)"), std::string::npos) << out;
  EXPECT_NE(out.find("consistent partial database"), std::string::npos)
      << out;
  EXPECT_NE(out.find("budget_tripped=tuples"), std::string::npos) << out;
}

TEST_F(CliBudgetTest, MaxBytesTripExitsFive) {
  std::string chain = WriteChain(200);
  int status = 0;
  std::string out =
      RunCommand(Exdlc() + " run " + chain + " --max-bytes 8192", &status);
  EXPECT_EQ(DecodeExitCode(status), 5) << out;
  EXPECT_NE(out.find("budget tripped (arena_bytes)"), std::string::npos)
      << out;
}

TEST_F(CliBudgetTest, DeadlineTripExitsFour) {
  std::string chain = WriteChain(900);
  int status = 0;
  std::string out = RunCommand(
      Exdlc() + " run " + chain + " --deadline-ms 1", &status);
  EXPECT_EQ(DecodeExitCode(status), 4) << out;
  EXPECT_NE(out.find("budget tripped (deadline)"), std::string::npos) << out;
}

TEST_F(CliBudgetTest, BudgetedRunWithoutTripMatchesUngoverned) {
  std::string chain = WriteChain(40);
  int status = 0;
  // Compare stdout only: the stderr stats line carries wall-clock timings.
  // (RunCommand appends its own 2>&1, so discard stderr inside a subshell.)
  std::string plain = RunCommand(
      "( " + Exdlc() + " run " + chain + " 2>/dev/null )", &status);
  EXPECT_EQ(DecodeExitCode(status), 0);
  std::string governed = RunCommand(
      "( " + Exdlc() + " run " + chain +
          " --deadline-ms 60000 --max-tuples 1000000 2>/dev/null )",
      &status);
  EXPECT_EQ(DecodeExitCode(status), 0);
  EXPECT_EQ(plain, governed);
}

TEST_F(CliBudgetTest, SigintCancelsWithExitSix) {
  std::string chain = WriteChain(3000);
  int status = 0;
  // Background the run, interrupt it, and report its exit code. The child
  // stops at a round boundary and exits 6 (cancelled). SIGINT is re-sent
  // until the process exits: background shells spawn children with SIGINT
  // ignored, so a signal landing before exdlc installs its handler (e.g.
  // while a sanitizer runtime boots) would otherwise be silently dropped.
  std::string out = RunCommand(
      Exdlc() + " run " + chain + " > /dev/null 2> /dev/null & pid=$!; " +
          "( sleep 0.3; i=0; while [ $i -lt 300 ]; do "
          "kill -INT $pid 2>/dev/null || break; i=$((i+1)); sleep 0.2; "
          "done ) & wait $pid; echo EXIT_CODE=$?",
      &status);
  EXPECT_NE(out.find("EXIT_CODE=6"), std::string::npos) << out;
}

TEST_F(CliBudgetTest, BadBudgetValueIsUsageError) {
  int status = 0;
  std::string out = RunCommand(
      Exdlc() + " run " + program_path_ + " --max-tuples nope", &status);
  EXPECT_EQ(DecodeExitCode(status), 2) << out;
  out = RunCommand(Exdlc() + " run " + program_path_ + " --deadline-ms",
                   &status);
  EXPECT_EQ(DecodeExitCode(status), 2) << out;
}

class CliObsTest : public CliTest {
 protected:
  static std::string ReadAll(const std::string& path) {
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    return content;
  }
};

TEST_F(CliObsTest, MetricsJsonWritesSchemaDocument) {
  std::string json_path = ::testing::TempDir() + "/cli_test_metrics.json";
  int code = 0;
  std::string out = RunCommand(Exdlc() + " run " + program_path_ +
                                   " --optimize --metrics-json " + json_path,
                               &code);
  EXPECT_EQ(code, 0) << out;
  std::string doc = ReadAll(json_path);
  EXPECT_NE(doc.find("\"schema_version\":1"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"rules\""), std::string::npos);
  EXPECT_NE(doc.find("\"phases\""), std::string::npos);
  EXPECT_NE(doc.find("\"eval.rule.derived\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"projection\""), std::string::npos) << doc;
}

TEST_F(CliObsTest, TracePrintsSpanTree) {
  int code = 0;
  std::string out =
      RunCommand(Exdlc() + " run " + program_path_ + " --trace", &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("eval"), std::string::npos) << out;
  EXPECT_NE(out.find("round:0"), std::string::npos) << out;
  EXPECT_NE(out.find("rule:"), std::string::npos) << out;
}

TEST_F(CliObsTest, UntracedOutputIsByteIdenticalToTraced) {
  int code = 0;
  std::string json_path = ::testing::TempDir() + "/cli_test_identity.json";
  std::string plain = RunCommand(
      "( " + Exdlc() + " run " + program_path_ + " 2>/dev/null )", &code);
  EXPECT_EQ(DecodeExitCode(code), 0);
  std::string traced = RunCommand(
      "( " + Exdlc() + " run " + program_path_ + " --metrics-json " +
          json_path + " 2>/dev/null )",
      &code);
  EXPECT_EQ(DecodeExitCode(code), 0);
  EXPECT_EQ(plain, traced);
}

TEST_F(CliObsTest, OptimizeRejectsBudgetFlags) {
  int status = 0;
  std::string out = RunCommand(
      Exdlc() + " optimize " + program_path_ + " --max-tuples 10", &status);
  EXPECT_EQ(DecodeExitCode(status), 2) << out;
  EXPECT_NE(out.find("not a valid flag for 'optimize'"), std::string::npos)
      << out;
  out = RunCommand(Exdlc() + " optimize " + program_path_ + " --deadline-ms 5",
                   &status);
  EXPECT_EQ(DecodeExitCode(status), 2) << out;
}

TEST_F(CliObsTest, UnknownFlagIsUsageError) {
  int status = 0;
  std::string out =
      RunCommand(Exdlc() + " run " + program_path_ + " --frobnicate", &status);
  EXPECT_EQ(DecodeExitCode(status), 2) << out;
  EXPECT_NE(out.find("unknown flag: --frobnicate"), std::string::npos) << out;
  out = RunCommand(Exdlc() + " run " + program_path_ + " --metrics-json",
                   &status);
  EXPECT_EQ(DecodeExitCode(status), 2) << out;
  EXPECT_NE(out.find("--metrics-json requires a value"), std::string::npos)
      << out;
}

// A value-taking flag followed by another flag has no value: the second
// flag is not taken as the first one's value (which the first-occurrence
// accessors would then read as the flag itself).
TEST_F(CliObsTest, FlagNameIsNotAFlagValue) {
  int status = 0;
  std::string out = RunCommand(
      Exdlc() + " run " + program_path_ + " --metrics-json --deadline-ms",
      &status);
  EXPECT_EQ(DecodeExitCode(status), 2) << out;
  EXPECT_NE(out.find("--metrics-json requires a value"), std::string::npos)
      << out;
  // Without the check this ran and wrote the metrics to a file named
  // "--trace" in the working directory.
  out = RunCommand(Exdlc() + " run " + program_path_ + " --metrics-json --trace",
                   &status);
  EXPECT_EQ(DecodeExitCode(status), 2) << out;
  EXPECT_NE(out.find("--metrics-json requires a value"), std::string::npos)
      << out;
  out = RunCommand(std::string(EXDLD_PATH) + " --policy --optimize", &status);
  EXPECT_EQ(DecodeExitCode(status), 2) << out;
  EXPECT_NE(out.find("--policy requires a value"), std::string::npos) << out;
}

// Retired flags are unknown: there is one executor (no --representation),
// and evaluation is serial (no --threads, in either binary).
TEST_F(CliObsTest, RetiredFlagsAreUsageErrors) {
  int status = 0;
  std::string out = RunCommand(
      Exdlc() + " run " + program_path_ + " --representation bitset", &status);
  EXPECT_EQ(DecodeExitCode(status), 2) << out;
  EXPECT_NE(out.find("unknown flag: --representation"), std::string::npos)
      << out;
  out = RunCommand(Exdlc() + " run " + program_path_ + " --threads 4",
                   &status);
  EXPECT_EQ(DecodeExitCode(status), 2) << out;
  EXPECT_NE(out.find("unknown flag: --threads"), std::string::npos) << out;
  out = RunCommand(std::string(EXDLD_PATH) + " --threads 4", &status);
  EXPECT_EQ(DecodeExitCode(status), 2) << out;
  EXPECT_NE(out.find("unknown flag: --threads"), std::string::npos) << out;
}

class CliRecoveryTest : public CliBudgetTest {
 protected:
  /// Fresh checkpoint directory per test.
  std::string MakeCheckpointDir() {
    std::string templ = ::testing::TempDir() + "/cli_recovery_XXXXXX";
    EXPECT_NE(mkdtemp(templ.data()), nullptr);
    return templ;
  }
  static bool FileExists(const std::string& path) {
    std::ifstream in(path);
    return in.good();
  }
};

TEST_F(CliRecoveryTest, CrashAndResumeIsByteIdentical) {
  std::string chain = WriteChain(120);
  std::string dir = MakeCheckpointDir();
  int status = 0;
  std::string ref = RunCommand(
      "( " + Exdlc() + " run " + chain + " 2>/dev/null )", &status);
  ASSERT_EQ(DecodeExitCode(status), 0);

  // Crash mid-fixpoint via the deterministic fault plan (exit 86 is the
  // injected-crash code), leaving the last round-boundary checkpoint.
  std::string out = RunCommand(
      "EXDL_FAULT_SPEC=storage.arena_grow:20:abort " + Exdlc() + " run " +
          chain + " --checkpoint-dir " + dir + " --checkpoint-every-rounds 1",
      &status);
  EXPECT_EQ(DecodeExitCode(status), 86) << out;
  EXPECT_NE(out.find("injected crash at storage.arena_grow"),
            std::string::npos)
      << out;
  ASSERT_TRUE(FileExists(dir + "/checkpoint.exdl"));

  std::string resumed = RunCommand(
      "( " + Exdlc() + " run " + chain + " --resume " + dir +
          "/checkpoint.exdl 2>/dev/null )",
      &status);
  EXPECT_EQ(DecodeExitCode(status), 0);
  EXPECT_EQ(resumed, ref);
}

// Resume under non-default semantics: the snapshot is stamped with the
// naive/no-cut fingerprint, so the same flags resume it byte-identically
// and dropping --naive is refused as a different computation.
TEST_F(CliRecoveryTest, NaiveNoCutResumeRoundTrips) {
  std::string chain = WriteChain(120);
  std::string dir = MakeCheckpointDir();
  const std::string run = Exdlc() + " run " + chain + " --optimize --no-cut";
  const std::string naive = run + " --naive";
  int status = 0;
  std::string ref = RunCommand("( " + naive + " 2>/dev/null )", &status);
  ASSERT_EQ(DecodeExitCode(status), 0);

  std::string out = RunCommand(
      "EXDL_FAULT_SPEC=storage.arena_grow:20:abort " + naive +
          " --checkpoint-dir " + dir + " --checkpoint-every-rounds 1",
      &status);
  EXPECT_EQ(DecodeExitCode(status), 86) << out;
  ASSERT_TRUE(FileExists(dir + "/checkpoint.exdl"));

  const std::string resume = " --resume " + dir + "/checkpoint.exdl";
  std::string resumed =
      RunCommand("( " + naive + resume + " 2>/dev/null )", &status);
  EXPECT_EQ(DecodeExitCode(status), 0);
  EXPECT_EQ(resumed, ref);

  out = RunCommand(run + resume, &status);
  EXPECT_EQ(DecodeExitCode(status), 1) << out;
  EXPECT_NE(out.find("FailedPrecondition"), std::string::npos) << out;
  EXPECT_NE(out.find("written by a different program or evaluation options"),
            std::string::npos)
      << out;
}

// An unfolded program (s@nd inlined into q@n's rule) checkpoints in one
// process and resumes in another: the resuming process re-derives the same
// fingerprint and interning tables from its own compile, or ArmResume
// would refuse the snapshot.
TEST_F(CliRecoveryTest, UnfoldedProgramResumesInAnotherProcess) {
  const std::string path = ::testing::TempDir() + "/cli_test_unfolded.dl";
  {
    std::ofstream out(path);
    out << "tc(X, Y) :- e(X, Y).\n"
           "tc(X, Z) :- e(X, Y), tc(Y, Z).\n"
           "q(X) :- tc(X, Y), s(Y, _).\n"
           "s(X, Y) :- f(X, Y).\n"
           "?- q(X).\n";
    for (int i = 0; i < 60; ++i) {
      out << "e(n" << i << ", n" << i + 1 << ").\n";
    }
    out << "f(n60, m).\n";
  }
  int status = 0;
  const std::string printed =
      RunCommand(Exdlc() + " optimize " + path, &status);
  ASSERT_EQ(DecodeExitCode(status), 0);
  EXPECT_NE(printed.find("q@n(X) :- tc@nn(X, Y), f(Y, I_0)."),
            std::string::npos)
      << printed;
  EXPECT_NE(printed.find("unfolded 1 predicate(s)"), std::string::npos);

  const std::string run = Exdlc() + " run " + path + " --optimize";
  std::string ref = RunCommand("( " + run + " 2>/dev/null )", &status);
  ASSERT_EQ(DecodeExitCode(status), 0);
  EXPECT_EQ(std::count(ref.begin(), ref.end(), '\n'), 60) << ref;

  std::string dir = MakeCheckpointDir();
  std::string out = RunCommand("EXDL_FAULT_SPEC=storage.arena_grow:20:abort " +
                                   run + " --checkpoint-dir " + dir +
                                   " --checkpoint-every-rounds 1",
                               &status);
  EXPECT_EQ(DecodeExitCode(status), 86) << out;
  ASSERT_TRUE(FileExists(dir + "/checkpoint.exdl"));
  std::string resumed = RunCommand(
      "( " + run + " --resume " + dir + "/checkpoint.exdl 2>/dev/null )",
      &status);
  EXPECT_EQ(DecodeExitCode(status), 0);
  EXPECT_EQ(resumed, ref);
}

TEST_F(CliRecoveryTest, CorruptCheckpointExitsSeven) {
  std::string chain = WriteChain(40);
  std::string dir = MakeCheckpointDir();
  int status = 0;
  RunCommand(Exdlc() + " run " + chain + " --checkpoint-dir " + dir, &status);
  ASSERT_EQ(DecodeExitCode(status), 0);

  // Flip one byte in the middle of the snapshot; the CRC must catch it.
  std::string ckpt = dir + "/checkpoint.exdl";
  RunCommand("printf '\\377' | dd of=" + ckpt +
                 " bs=1 seek=200 count=1 conv=notrunc",
             &status);
  std::string out =
      RunCommand(Exdlc() + " run " + chain + " --resume " + ckpt, &status);
  EXPECT_EQ(DecodeExitCode(status), 7) << out;
  EXPECT_NE(out.find("CorruptCheckpoint"), std::string::npos) << out;
}

TEST_F(CliRecoveryTest, ResumeAgainstDifferentProgramIsRefused) {
  std::string chain = WriteChain(40);
  std::string dir = MakeCheckpointDir();
  int status = 0;
  RunCommand(Exdlc() + " run " + chain + " --checkpoint-dir " + dir, &status);
  ASSERT_EQ(DecodeExitCode(status), 0);
  std::string out = RunCommand(Exdlc() + " run " + program_path_ +
                                   " --resume " + dir + "/checkpoint.exdl",
                               &status);
  EXPECT_EQ(DecodeExitCode(status), 1) << out;
  EXPECT_NE(out.find("FailedPrecondition"), std::string::npos) << out;
}

TEST_F(CliRecoveryTest, BadFaultSpecIsUsageError) {
  int status = 0;
  std::string out = RunCommand(
      "EXDL_FAULT_SPEC=no.such.site:1 " + Exdlc() + " run " + program_path_,
      &status);
  EXPECT_EQ(DecodeExitCode(status), 2) << out;
  EXPECT_NE(out.find("unknown fault site"), std::string::npos) << out;
}

TEST_F(CliRecoveryTest, CheckpointSpanAppearsInTrace) {
  std::string chain = WriteChain(20);
  std::string dir = MakeCheckpointDir();
  int status = 0;
  std::string out = RunCommand(Exdlc() + " run " + chain +
                                   " --checkpoint-dir " + dir + " --trace",
                               &status);
  EXPECT_EQ(DecodeExitCode(status), 0) << out;
  EXPECT_NE(out.find("checkpoint:"), std::string::npos) << out;
}

TEST_F(CliObsTest, MetricsJsonWriteIsAtomic) {
  std::string json_path = ::testing::TempDir() + "/cli_test_atomic.json";
  int code = 0;
  std::string out = RunCommand(
      Exdlc() + " run " + program_path_ + " --metrics-json " + json_path,
      &code);
  EXPECT_EQ(code, 0) << out;
  // The temp file of the atomic protocol must not survive a clean emit,
  // and the document must be complete (closed JSON object).
  std::ifstream tmp(json_path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::string doc = ReadAll(json_path);
  ASSERT_FALSE(doc.empty());
  size_t last = doc.find_last_not_of(" \n\t");
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(doc[last], '}') << doc.substr(doc.size() > 80 ? doc.size() - 80
                                                          : 0);
}

TEST_F(CliTest, ConnectWithoutDaemonExitsEightWithActionableMessage) {
  const std::string missing = ::testing::TempDir() + "/no_such_daemon.sock";
  int status = 0;
  std::string out = RunCommand(Exdlc() + " connect " + program_path_ +
                                   " --socket " + missing + " --retries 1",
                               &status);
  EXPECT_EQ(DecodeExitCode(status), 8) << out;
  EXPECT_NE(out.find("cannot connect to exdld"), std::string::npos) << out;
  EXPECT_NE(out.find("is exdld running?"), std::string::npos) << out;
}

TEST_F(CliTest, FaultSitesListsEverySiteIncludingDaemon) {
  int status = 0;
  std::string out = RunCommand(Exdlc() + " fault-sites", &status);
  EXPECT_EQ(DecodeExitCode(status), 0) << out;
  for (const char* site :
       {"storage.arena_grow", "snapshot.rename", "daemon.accept",
        "daemon.read", "daemon.write", "daemon.dispatch"}) {
    EXPECT_NE(out.find(std::string(site) + "\n"), std::string::npos)
        << "missing site " << site << " in:\n" << out;
  }
}

TEST_F(CliTest, GrammarCommand) {
  std::string chain = ::testing::TempDir() + "/cli_test_chain.dl";
  {
    std::ofstream out(chain);
    out << "tc(X,Y) :- e(X,Y).\n"
           "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
           "?- tc(X,Y).\n";
  }
  int code = 0;
  std::string out = RunCommand(Exdlc() + " grammar " + chain, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("strongly regular: yes"), std::string::npos) << out;
  EXPECT_NE(out.find("monadic"), std::string::npos) << out;
}

}  // namespace
