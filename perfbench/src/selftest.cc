// Tests of the benchmark's own arithmetic: nearest-rank percentiles, the
// tail-percentile rule (at least kMinBeyond samples beyond), span self
// time with nested and overlapping children, and ratio bases. Exits
// non-zero on the first failed check; the checks stay on in every build
// type.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest: line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

void Percentiles() {
  EXPECT(NearestRank(0, 50) == 0);
  EXPECT(NearestRank(1, 50) == 1);
  EXPECT(NearestRank(10, 50) == 5);
  EXPECT(NearestRank(11, 50) == 6);
  EXPECT(NearestRank(1000, 99) == 990);  // Exact product, no round-up.
  EXPECT(NearestRank(1000, 99.9) == 999);
  EXPECT(NearestRank(999, 99) == 990);   // ceil(989.01)
  EXPECT(NearestRank(5, 100) == 5);
  EXPECT(Percentile({}, 50) == 0);
  EXPECT(Percentile(OneTo(100), 99) == 99);
  EXPECT(Percentile(OneTo(100), 90) == 90);
  EXPECT(Median(OneTo(10)) == 5);   // Lower middle of an even sample.
  EXPECT(Median(OneTo(11)) == 6);
  EXPECT(Median({7}) == 7);
}

void TailRule() {
  // 1000 samples: p99 has exactly 10 beyond it; p99.9 only 1.
  Tail t = TailPercentile(OneTo(1000));
  EXPECT(t.pct == 99 && t.value == 990 && t.samples == 1000);
  // 10000 samples: p99.9 has 10 beyond.
  t = TailPercentile(OneTo(10000));
  EXPECT(t.pct == 99.9 && t.value == 9990);
  // 999 samples: p99 has 9 beyond, so p90 (99 beyond) is the tail.
  t = TailPercentile(OneTo(999));
  EXPECT(t.pct == 90 && t.value == 900);
  // 20 samples: only the median has 10 beyond.
  t = TailPercentile(OneTo(20));
  EXPECT(t.pct == 50 && t.value == 10);
  // 19 samples: no candidate has 10 beyond.
  t = TailPercentile(OneTo(19));
  EXPECT(t.pct == 0 && t.value == 0 && t.samples == 19);
}

Span At(const char* name, int64_t start, int64_t end, int64_t parent) {
  Span s;
  s.name = name;
  s.request_id = 7;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void SelfTime() {
  // root [0,100] > a [10,40] > a1 [15,35]; root > b [30,60] overlapping
  // a (parallel children count once); root > c [90,120] sticking out of
  // its parent (clipped).
  std::vector<Span> spans = {
      At("service.root", 0, 100, -1), At("eval.a", 10, 40, 0),
      At("storage.a1", 15, 35, 1),    At("eval.b", 30, 60, 0),
      At("ivm.c", 90, 120, 0),
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT(self[0] == 100 - (60 - 10) - (100 - 90));  // 40
  EXPECT(self[1] == 30 - 20);  // The grandchild leaves root untouched.
  EXPECT(self[2] == 20);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 30);
  const auto layers = LayerSelfUs(spans);
  EXPECT(Near(layers.at("service"), 0.040));
  EXPECT(Near(layers.at("eval"), 0.040));
  EXPECT(Near(layers.at("storage"), 0.020));
  EXPECT(Near(layers.at("ivm"), 0.030));
  EXPECT(LayerOf("durability.append") == "durability");
  EXPECT(LayerOf("nolayer") == "nolayer");

  // The recorder nests scopes and rebases parents when merging.
  Tracer a;
  {
    Tracer::Scope outer(&a, "daemon.request", 1);
    a.Add("daemon.submit", 1, 5, 6);
  }
  EXPECT(a.spans().size() == 2 && a.spans()[1].parent == 0);
  EXPECT(a.spans()[0].end_ns >= a.spans()[0].start_ns);
  Tracer b;
  b.Add("daemon.load", 2, 0, 1);
  b.Merge(a);
  EXPECT(b.spans().size() == 3 && b.spans()[2].parent == 1 &&
         b.spans()[1].parent == -1);
  EXPECT(DurationsUs(b.spans(), "daemon.submit").size() == 1);
}

void Ratios() {
  EXPECT((Ratio{3, 4}.value() == 0.75));
  EXPECT((Ratio{0, 0}.value() == 0));  // No base: 0, and the base says so.
  EXPECT((Ratio{5, 0}.value() == 0));
  EXPECT((Ratio{0, 1000}.value() == 0 && Ratio{0, 1000}.base == 1000));
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::Percentiles();
  perfbench::TailRule();
  perfbench::SelfTime();
  perfbench::Ratios();
  if (perfbench::failures != 0) return 1;
  std::printf("selftest: ok\n");
  return 0;
}
