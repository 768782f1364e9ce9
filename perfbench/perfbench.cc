// gkeys end-to-end benchmark: runs ONE workload per process.
//
// From the workload seed it generates a graph, keys and a stream of delta
// batches, hands the library only their TEXT, and times the public call of
// each layer from outside. One run goes through five phases (README.md has
// the full metric table and the reasons behind each workload):
//
//   1. bring-up   parse base text -> Compile -> Run -> DurableDir::Open ->
//                 first SaveSnapshot, repeated; setup_s is the median.
//   2. match      Compile + Run on the loaded graph after a warm-up,
//                 repeated until its share of --seconds is used.
//   3. commits    closed loop, one client: FastParseDelta -> Apply ->
//                 Patch -> Rematch -> AppendDeltaText (one fsync per
//                 acknowledged batch), snapshot rotated once mid-stream.
//   4. recover    Matcher::Recover on that directory (rotated snapshot +
//                 WAL tail), repeated; recover_s is the median.
//   5. ingest     the same batch texts through Matcher::IngestStream with
//                 queue_depth raised to max_coalesce (see Run::Ingest),
//                 from a fresh bring-up session; the observer appends each
//                 contributing batch to the WAL.
//
// Phases 1, 2, 3 and 5 are interleaved in rounds (see Run::Execute).
//
// Every outcome is checked outside the timed regions: all match repetitions
// yield identical pairs, and the closed-loop final pairs equal a from-scratch
// Compile + Run on the final graph, the ingest pipeline's final pairs and
// the pairs Recover returns.
//
// --trace 0 prints the end-to-end metrics; --trace 1 records a span around
// every public call (kept in memory, written as Chrome trace-event JSON at
// exit) and prints the per-layer metrics derived from them. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/ingest_pipeline.h"
#include "core/matcher.h"
#include "gen/datasets.h"
#include "gen/hostile.h"
#include "io/fast_triples.h"
#include "io/triples.h"
#include "keys/key.h"
#include "storage/durable_dir.h"
#include "storage/mmap_store.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"

#ifndef GKEYS_PERFBENCH_BUILD_TYPE
#define GKEYS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace gkeys {
namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Engine threads for every run. With the ingest pipeline's tokenize
/// thread and the main thread this stays within a 4-core host.
constexpr int kProcessors = 2;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The 95th percentile of `v`, or, when fewer than 10 samples lie beyond
/// it, the highest percentile with 10 samples beyond it (the median when
/// there are too few samples for that). A fixed p95 keeps the tail from
/// moving further out, and getting noisier, as a stream grows. Returns the
/// value and the percentile it sits at.
std::pair<double, double> Tail(std::vector<double> v) {
  if (v.empty()) return {0, 0};
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n < 21) return {Median(v), 50.0};
  // At least 10 samples lie strictly beyond v[idx].
  const size_t idx = std::min(n - 11, (n * 95 + 99) / 100 - 1);
  return {v[idx], 100.0 * static_cast<double>(idx + 1) /
                      static_cast<double>(n)};
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around each public call.
// ---------------------------------------------------------------------------

/// In-memory span recorder. Spans are opened and closed on the main
/// thread only (the ingest observer also runs there), so no locking.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  // seconds since the tracer was made
    double end = 0;
    int parent = -1;
    int commit = -1;  // commit id shared by every span of one commit
  };

  /// Closes its span when it leaves scope; a no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer* t, int id) : t_(t), id_(id) {}
    ~Scope() {
      if (id_ >= 0) t_->Close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; `commit` defaults to
  /// the parent's commit id.
  Scope Open(const char* name, int commit = -1) {
    if (!enabled_) return Scope(this, -1);
    Span s;
    s.name = name;
    s.start = Now();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.commit = commit >= 0 || s.parent < 0 ? commit : spans_[s.parent].commit;
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return Scope(this, id);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in seconds of every span called `name`, in order.
  std::vector<double> Durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end - s.start);
    }
    return out;
  }

  /// Self time of each span: its duration minus its children's.
  std::vector<double> SelfTimes() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end - spans_[i].start;
      if (spans_[i].parent >= 0) {
        self[spans_[i].parent] -= spans_[i].end - spans_[i].start;
      }
    }
    return self;
  }

  /// Writes every span as a Chrome trace-event ("X" complete event).
  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"commit\":%d}}%s\n",
                    s.name.c_str(), LayerOf(s.name).c_str(), s.start * 1e6,
                    (s.end - s.start) * 1e6, i, s.parent, s.commit,
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

  /// "plan.patch" -> "plan"; the benchmark's own spans map to "bench".
  static std::string LayerOf(const std::string& name) {
    size_t dot = name.find('.');
    std::string head = dot == std::string::npos ? name : name.substr(0, dot);
    for (const char* layer :
         {"io", "keys", "graph", "plan", "engine", "ingest", "storage"}) {
      if (head == layer) return head;
    }
    return "bench";
  }

 private:
  double Now() const { return SecondsBetween(origin_, Clock::now()); }
  void Close(int id) {
    spans_[id].end = Now();
    stack_.pop_back();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Workloads: seeded inputs, as text.
// ---------------------------------------------------------------------------

struct Inputs {
  std::string base_text;
  std::string keys_dsl;
  std::vector<std::string> batches;
};

std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    size_t end = nl == std::string_view::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return lines;
}

bool IsTripleLine(std::string_view line) {
  return !line.empty() && line[0] != '#' &&
         line.find(" @exists ") == std::string_view::npos;
}

/// The subject and object tokens of a triple line (object empty when it
/// is a value literal).
std::pair<std::string_view, std::string_view> Endpoints(
    std::string_view line) {
  size_t s_end = line.find(' ');
  std::string_view subj = line.substr(0, s_end);
  size_t o_begin = line.find(' ', s_end + 1) + 1;
  std::string_view obj = line.substr(o_begin);
  while (!obj.empty() && (obj.back() == '\n' || obj.back() == '\r')) {
    obj.remove_suffix(1);
  }
  if (obj.rfind("ent:", 0) != 0) obj = {};
  return {subj, obj};
}

std::string OpLine(char op, std::string_view line) {
  std::string out;
  out += op;
  out += ' ';
  out += line;
  if (out.back() != '\n') out += '\n';
  return out;
}

/// powerlaw_hub_churn: each batch pair removes a few triple lines touching
/// the highest-degree entities and then re-adds them verbatim, so every
/// commit dirties the hub region (Patch-bound) and every removal retracts
/// derivations (DRed).
Inputs MakePowerLawHubChurn(uint64_t seed, double scale, size_t pairs,
                            size_t lines_per_batch, size_t top_hubs) {
  PowerLawConfig config;
  config.seed = seed;
  config.scale = scale;
  SyntheticDataset data = GeneratePowerLaw(config);
  Inputs in;
  in.base_text = SerializeGraph(data.graph);
  in.keys_dsl = ToDsl(data.keys);

  std::vector<std::string_view> lines;
  std::unordered_map<std::string_view, size_t> degree;
  for (std::string_view line : SplitLines(in.base_text)) {
    if (!IsTripleLine(line)) continue;
    lines.push_back(line);
    auto [s, o] = Endpoints(line);
    ++degree[s];
    if (!o.empty()) ++degree[o];
  }
  std::vector<std::pair<size_t, std::string_view>> ranked;
  for (auto& [tok, d] : degree) ranked.emplace_back(d, tok);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::set<std::string_view> hubs;
  for (size_t i = 0; i < std::min(top_hubs, ranked.size()); ++i) {
    hubs.insert(ranked[i].second);
  }
  std::vector<std::string_view> touching;
  for (std::string_view line : lines) {
    auto [s, o] = Endpoints(line);
    if (hubs.count(s) || (!o.empty() && hubs.count(o))) {
      touching.push_back(line);
    }
  }
  Rng rng(seed ^ 0x6875622d636875ULL);
  for (size_t p = 0; p < pairs && !touching.empty(); ++p) {
    std::set<size_t> picked;
    while (picked.size() < std::min(lines_per_batch, touching.size())) {
      picked.insert(rng.Below(touching.size()));
    }
    std::string remove, add;
    for (size_t i : picked) {
      remove += OpLine('-', touching[i]);
      add += OpLine('+', touching[i]);
    }
    in.batches.push_back(std::move(remove));
    in.batches.push_back(std::move(add));
  }
  return in;
}

/// Holds every `stride`-th triple line out of the base text and returns
/// the held-out lines in file order.
std::vector<std::string> HoldOut(std::string_view text, size_t stride,
                                 std::string* base) {
  std::vector<std::string> held;
  base->clear();
  base->reserve(text.size());
  size_t index = 0;
  for (std::string_view line : SplitLines(text)) {
    if (IsTripleLine(line) && ++index % stride == 0) {
      held.emplace_back(line);
    } else {
      base->append(line);
    }
  }
  return held;
}

/// dbpedia_recursive: a few small mixed batches, each adding held-out
/// lines and removing base lines that no other batch touches.
Inputs MakeDBpediaRecursive(uint64_t seed, double scale, size_t num_batches,
                            size_t adds_per_batch, size_t removes_per_batch) {
  DBpediaSimConfig config;
  config.seed = seed;
  config.scale = scale;
  SyntheticDataset data = GenerateDBpediaSim(config);
  Inputs in;
  in.keys_dsl = ToDsl(data.keys);
  const std::string text = SerializeGraph(data.graph);
  std::vector<std::string> held = HoldOut(text, 97, &in.base_text);
  std::vector<std::string_view> base_lines;
  for (std::string_view line : SplitLines(in.base_text)) {
    if (IsTripleLine(line)) base_lines.push_back(line);
  }
  Rng rng(seed ^ 0x646270656469ULL);
  std::set<size_t> removed;
  size_t next_held = 0;
  for (size_t b = 0; b < num_batches; ++b) {
    std::string batch;
    for (size_t i = 0; i < adds_per_batch && next_held < held.size(); ++i) {
      batch += OpLine('+', held[next_held]);
      next_held += held.size() / (num_batches * adds_per_batch) + 1;
    }
    for (size_t i = 0; i < removes_per_batch; ++i) {
      size_t pick = rng.Below(base_lines.size());
      if (!removed.insert(pick).second) continue;
      batch += OpLine('-', base_lines[pick]);
    }
    in.batches.push_back(std::move(batch));
  }
  return in;
}

/// google_stream: every `stride`-th triple line held out of the base text
/// and streamed back as 2-line addition batches.
Inputs MakeGoogleStream(uint64_t seed, double scale, size_t stride,
                        size_t batch_lines) {
  GoogleSimConfig config;
  config.seed = seed;
  config.scale = scale;
  SyntheticDataset data = GenerateGoogleSim(config);
  Inputs in;
  in.keys_dsl = ToDsl(data.keys);
  std::vector<std::string> held =
      HoldOut(SerializeGraph(data.graph), stride, &in.base_text);
  std::string batch;
  size_t in_batch = 0;
  for (const std::string& line : held) {
    batch += OpLine('+', line);
    if (++in_batch == batch_lines) {
      in.batches.push_back(std::move(batch));
      batch.clear();
      in_batch = 0;
    }
  }
  if (!batch.empty()) in.batches.push_back(std::move(batch));
  return in;
}

struct Workload {
  const char* name;
  Algorithm algorithm;
  /// Interleaved rounds; each brings up one session for the pipelined
  /// ingest, runs its share of the match repetitions and its slice of the
  /// closed-loop commits. setup_s is the median of rounds + 2 bring-ups.
  int rounds;
  /// Minimum match repetitions after the warm-up, over all rounds.
  int min_match_reps;
  /// Share of --seconds the match repetitions may use beyond the minimum.
  double match_share;
  int recover_reps;
  /// Batches left in the WAL after the mid-stream snapshot rotation.
  size_t wal_tail;
  Inputs (*make)(uint64_t seed);
};

const Workload kWorkloads[] = {
    {"powerlaw_hub_churn", Algorithm::kEmOptVc, 5, 10, 0.15, 5, 12,
     [](uint64_t seed) {
       return MakePowerLawHubChurn(seed, /*scale=*/40, /*pairs=*/40,
                                   /*lines_per_batch=*/3, /*top_hubs=*/4);
     }},
    {"dbpedia_recursive", Algorithm::kEmOptVc, 4, 8, 0.3, 3, 12,
     [](uint64_t seed) {
       return MakeDBpediaRecursive(seed, /*scale=*/150, /*num_batches=*/40,
                                   /*adds_per_batch=*/2,
                                   /*removes_per_batch=*/1);
     }},
    {"google_stream", Algorithm::kEmOptMr, 8, 12, 0.25, 9, 100,
     [](uint64_t seed) {
       return MakeGoogleStream(seed, /*scale=*/100, /*stride=*/50,
                               /*batch_lines=*/2);
     }},
};

uint64_t Fnv1a(uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h ^ 0xff;  // separator between the hashed texts
}

uint64_t HashInputs(const Inputs& in) {
  uint64_t h = 14695981039346656037ULL;
  h = Fnv1a(h, in.base_text);
  h = Fnv1a(h, in.keys_dsl);
  for (const std::string& b : in.batches) h = Fnv1a(h, b);
  return h;
}

// ---------------------------------------------------------------------------
// Host noise record.
// ---------------------------------------------------------------------------

struct CpuTimes {
  double steal = 0;
  double busy = 0;  // everything but idle and iowait
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[10] = {};
  if (in >> cpu && cpu == "cpu") {
    for (double& x : v) in >> x;
    t.steal = v[7];
    t.busy = v[0] + v[1] + v[2] + v[5] + v[6] + v[7];
  }
  return t;
}

std::string FilesystemType(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

double PeakRssMiB() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

/// One live matching session. The plan references the key set and the
/// graph, so both sit behind stable pointers.
struct Session {
  std::unique_ptr<KeySet> keys;
  std::unique_ptr<LoadedGraph> lg;
  MatchPlan plan;
  MatchResult result;
  std::unique_ptr<storage::DurableDir> dd;
};

using Pairs = std::vector<std::pair<NodeId, NodeId>>;

class Run {
 public:
  Run(const Workload& w, const Inputs& in, double seconds, bool trace,
      std::string work_dir)
      : w_(w),
        in_(in),
        seconds_(seconds),
        tracer_(trace),
        work_dir_(std::move(work_dir)) {
    matcher_.algorithm(w.algorithm).processors(kProcessors);
  }

  /// Runs every phase. The repeated phases are interleaved in rounds so
  /// each metric's samples spread over the whole run instead of one slice
  /// of it: a burst of host noise then hits a few samples of every metric
  /// rather than all samples of one. Session A advances through the
  /// closed-loop commits, session B stays at the base graph for the match
  /// repetitions, and every round brings up one more session that the
  /// pipelined ingest consumes.
  void Execute() {
    std::optional<Session> a = BringUp();
    if (!a) return;
    base_stats_ = a->result.stats;
    base_pairs_ = a->result.pairs;
    base_triples_ = a->lg->graph.NumTriples();
    std::error_code ec;
    snapshot_bytes_ =
        fs::file_size(a->dd->SnapshotPath(a->dd->generation()), ec);
    Check(!ec, "snapshot file missing after SaveSnapshot");
    std::optional<Session> b = BringUp();
    if (!b) return;
    const size_t n = in_.batches.size();
    for (int r = 0; r < w_.rounds; ++r) {
      std::optional<Session> t = BringUp();
      if (!t) return;
      Ingest(*t);
      if (!Match(*b, r)) return;
      if (!Commits(*a, n * r / w_.rounds, n * (r + 1) / w_.rounds)) return;
    }
    if (!FinalChecks(*a)) return;
    Recover(*a);
  }

  /// Prints the human-readable record and the final JSON line; true when
  /// every operation succeeded and every check held.
  bool Report(double steal_frac, const std::string& trace_path) const;

  bool WriteTrace(const std::string& path) const {
    return tracer_.WriteChromeTrace(path);
  }

 private:
  /// Counts one attempted operation; a non-OK status counts as failed.
  bool Ok(const Status& st, const char* what) {
    ++attempted_;
    if (st.ok()) return true;
    ++failed_;
    std::printf("# FAILED %s: %s\n", what, st.ToString().c_str());
    return false;
  }
  /// Records a correctness check; a mismatch fails the run.
  void Check(bool holds, const char* what) {
    if (holds) return;
    correct_ = false;
    ++failed_;
    std::printf("# MISMATCH %s\n", what);
  }

  std::optional<Session> BringUp();
  bool Match(const Session& s, int round);
  bool Commits(Session& s, size_t begin, size_t end);
  bool FinalChecks(const Session& s);
  void Recover(const Session& s);
  void Ingest(Session& s);

  const Workload& w_;
  const Inputs& in_;
  double seconds_;
  Tracer tracer_;
  std::string work_dir_;
  Matcher matcher_;
  int sessions_made_ = 0;

  size_t attempted_ = 0;
  size_t failed_ = 0;
  bool correct_ = true;

  // Samples and figures of each phase.
  std::vector<double> setup_s_, match_s_, commit_s_, recover_s_, ingest_tps_;
  std::vector<IngestStats> ingest_stats_;
  std::vector<double> ingest_wal_s_;
  std::vector<Pairs> ingest_pairs_;
  EmStats base_stats_;
  Pairs base_pairs_;
  size_t base_triples_ = 0;
  uint64_t snapshot_bytes_ = 0;
  uint64_t wal_bytes_ = 0;
  uint64_t wal_triples_ = 0;
  size_t batches_replayed_ = 0;
  double load_s_ = 0;
  std::vector<double> dirty_frac_, retracted_;
  size_t fallback_commits_ = 0;
  Pairs final_pairs_;
};

std::optional<Session> Run::BringUp() {
  const std::string dir =
      work_dir_ + "/session" + std::to_string(sessions_made_++);
  std::error_code ec;
  fs::remove_all(dir, ec);
  Session s;
  auto rep_span = tracer_.Open("bringup");
  const auto t0 = Clock::now();
  s.keys = std::make_unique<KeySet>();
  {
    auto span = tracer_.Open("keys.parse");
    if (!Ok(s.keys->AddFromDsl(in_.keys_dsl), "keys parse")) {
      return std::nullopt;
    }
  }
  {
    auto span = tracer_.Open("io.parse_base");
    auto lg = FastDeserializeGraphWithNames(in_.base_text);
    if (!Ok(lg.status(), "base parse")) return std::nullopt;
    s.lg = std::make_unique<LoadedGraph>(*std::move(lg));
  }
  {
    auto span = tracer_.Open("plan.compile");
    auto plan = Matcher::Compile(s.lg->graph, *s.keys,
                                 PlanOptions::For(w_.algorithm, kProcessors));
    if (!Ok(plan.status(), "compile")) return std::nullopt;
    s.plan = *std::move(plan);
  }
  {
    auto span = tracer_.Open("engine.run");
    auto r = matcher_.Run(s.plan);
    if (!Ok(r.status(), "run")) return std::nullopt;
    s.result = *std::move(r);
  }
  {
    auto span = tracer_.Open("storage.open");
    auto dd = storage::DurableDir::Open(dir);
    if (!Ok(dd.status(), "durable open")) return std::nullopt;
    s.dd = std::make_unique<storage::DurableDir>(std::move(*dd));
  }
  {
    auto span = tracer_.Open("storage.save");
    if (!Ok(s.dd->SaveSnapshot(s.lg->graph, *s.keys, s.plan, s.result,
                               w_.algorithm, &s.lg->entities),
            "save snapshot")) {
      return std::nullopt;
    }
  }
  setup_s_.push_back(SecondsBetween(t0, Clock::now()));
  if (sessions_made_ > 1) {
    Check(s.result.pairs == base_pairs_,
          "bring-up repetitions disagree on pairs");
  }
  return s;
}

bool Run::Match(const Session& s, int round) {
  auto phase = tracer_.Open("phase.match");
  const auto start = Clock::now();
  const double budget = seconds_ * w_.match_share / w_.rounds;
  const int min_reps = (w_.min_match_reps + w_.rounds - 1) / w_.rounds;
  // The very first repetition is a warm-up: checked, not timed.
  for (int rep = round == 0 ? -1 : 0;
       rep < min_reps || SecondsBetween(start, Clock::now()) < budget;
       ++rep) {
    auto span = tracer_.Open("match");
    const auto t0 = Clock::now();
    StatusOr<MatchPlan> plan = [&] {
      auto c = tracer_.Open("plan.compile");
      return Matcher::Compile(s.lg->graph, *s.keys,
                              PlanOptions::For(w_.algorithm, kProcessors));
    }();
    if (!Ok(plan.status(), "compile")) return false;
    StatusOr<MatchResult> r = [&] {
      auto c = tracer_.Open("engine.run");
      return matcher_.Run(*plan);
    }();
    if (!Ok(r.status(), "run")) return false;
    const double secs = SecondsBetween(t0, Clock::now());
    if (rep >= 0) match_s_.push_back(secs);
    Check(r->pairs == s.result.pairs, "match repetition pairs differ");
  }
  return true;
}

bool Run::Commits(Session& s, size_t begin, size_t end) {
  auto phase = tracer_.Open("phase.commits");
  const size_t n = in_.batches.size();
  const size_t rotate_at = n > w_.wal_tail ? n - w_.wal_tail : 0;
  for (size_t i = begin; i < end; ++i) {
    if (i == rotate_at) {
      auto span = tracer_.Open("storage.save");
      if (!Ok(s.dd->SaveSnapshot(s.lg->graph, *s.keys, s.plan, s.result,
                                 w_.algorithm, &s.lg->entities),
              "rotate snapshot")) {
        return false;
      }
    }
    const std::string& text = in_.batches[i];
    auto commit = tracer_.Open("commit", static_cast<int>(i));
    const auto t0 = Clock::now();
    std::unordered_map<std::string, NodeId> bindings;
    StatusOr<GraphDelta> delta = [&] {
      auto span = tracer_.Open("io.parse_delta");
      return FastParseDelta(text, s.lg->graph, s.lg->entities, &bindings);
    }();
    if (!Ok(delta.status(), "delta parse")) return false;
    {
      auto span = tracer_.Open("graph.apply");
      if (!Ok(s.lg->graph.Apply(*delta).status(), "apply")) return false;
    }
    StatusOr<MatchPlan> patched = [&] {
      auto span = tracer_.Open("plan.patch");
      return s.plan.Patch(*delta);
    }();
    if (!Ok(patched.status(), "patch")) return false;
    StatusOr<MatchResult> r = [&] {
      auto span = tracer_.Open("engine.rematch");
      return matcher_.Rematch(*patched, s.result, *delta);
    }();
    if (!Ok(r.status(), "rematch")) return false;
    // Advancing the session frees the previous plan and result; users
    // pay for that on every commit, so it is traced with its layer.
    {
      auto span = tracer_.Open("plan.release");
      s.plan = *std::move(patched);
    }
    {
      auto span = tracer_.Open("engine.release");
      s.result = *std::move(r);
    }
    for (auto& [tok, id] : bindings) s.lg->entities.emplace(tok, id);
    {
      auto span = tracer_.Open("storage.append");
      if (!Ok(s.dd->AppendDeltaText(text), "wal append")) return false;
    }
    commit_s_.push_back(SecondsBetween(t0, Clock::now()));
    const size_t cands = s.plan.num_candidates();
    dirty_frac_.push_back(
        cands == 0 ? 0.0
                   : static_cast<double>(s.plan.dirty_candidates().size()) /
                         static_cast<double>(cands));
    retracted_.push_back(
        static_cast<double>(s.result.stats.derivations_retracted));
    fallback_commits_ += s.result.stats.rematch_fallback;
  }
  return true;
}

bool Run::FinalChecks(const Session& s) {
  final_pairs_ = s.result.pairs;
  // Incremental == from scratch, on the final graph.
  auto plan = Matcher::Compile(s.lg->graph, *s.keys,
                               PlanOptions::For(w_.algorithm, kProcessors));
  if (!Ok(plan.status(), "final compile")) return false;
  auto r = matcher_.Run(*plan);
  if (!Ok(r.status(), "final run")) return false;
  Check(r->pairs == final_pairs_,
        "closed-loop pairs differ from a from-scratch run");
  for (const Pairs& p : ingest_pairs_) {
    Check(p == final_pairs_,
          "ingest pipeline pairs differ from the closed-loop pairs");
  }
  return true;
}

void Run::Recover(const Session& s) {
  auto phase = tracer_.Open("phase.recover");
  const std::string& dir = s.dd->dir();
  if (tracer_.enabled()) {
    // The load alone, for storage.replay_ms_per_batch.
    auto span = tracer_.Open("storage.load");
    const auto t0 = Clock::now();
    auto store =
        storage::MmapStore::Open(s.dd->SnapshotPath(s.dd->generation()));
    if (!Ok(store.status(), "snapshot open")) return;
    auto snap = storage::Snapshot::Load(**store);
    if (!Ok(snap.status(), "snapshot load")) return;
    load_s_ = SecondsBetween(t0, Clock::now());
  }
  for (int rep = 0; rep < w_.recover_reps; ++rep) {
    const auto t0 = Clock::now();
    StatusOr<storage::RecoveredSession> rs = [&] {
      auto span = tracer_.Open("storage.recover");
      return matcher_.Recover(dir);
    }();
    const double secs = SecondsBetween(t0, Clock::now());
    if (!Ok(rs.status(), "recover")) return;
    recover_s_.push_back(secs);
    batches_replayed_ = rs->report.batches_replayed;
    Check(rs->snapshot.result().pairs == final_pairs_,
          "recovered pairs differ from the closed-loop pairs");
    Check(rs->report.batches_replayed ==
                  std::min(w_.wal_tail, in_.batches.size()) &&
              rs->report.batches_truncated == 0,
          "recovery replayed an unexpected WAL tail");
  }
}

void Run::Ingest(Session& s) {
  auto phase = tracer_.Open("phase.ingest");
  IngestSession session;
  session.graph = &s.lg->graph;
  session.plan = &s.plan;
  session.result = &s.result;
  session.entity_names = &s.lg->entities;
  // Called from the pipeline's tokenize thread: touches only `next`.
  size_t next = 0;
  IngestSource source = [&]() -> std::optional<std::string> {
    if (next >= in_.batches.size()) return std::nullopt;
    return in_.batches[next++];
  };
  // Called on this thread after each commit.
  double wal_s = 0;
  IngestObserver observer = [&](const IngestBatch& b) -> Status {
    if (!b.contributed) return Status::OK();
    auto span = tracer_.Open("storage.append", static_cast<int>(b.index));
    const auto t0 = Clock::now();
    Status st = s.dd->AppendDeltaText(*b.text);
    wal_s += SecondsBetween(t0, Clock::now());
    return st;
  };
  // With the default queue_depth (4) below max_coalesce (8), a group holds
  // 4 or 8 batches depending on whether the tokenize thread wakes while
  // the engine drains the queue, so the commit count, and with it the
  // throughput, flipped between two modes from run to run. A queue as deep
  // as a group has a full group waiting at every pop.
  IngestOptions opts;
  opts.queue_depth = opts.max_coalesce;
  const auto t0 = Clock::now();
  IngestStats stats = [&] {
    auto span = tracer_.Open("ingest.stream");
    return matcher_.IngestStream(session, source, opts, observer);
  }();
  const double secs = SecondsBetween(t0, Clock::now());
  // On a failed stream the counters still describe the committed prefix.
  const uint64_t triples = stats.added_triples + stats.removed_triples;
  ingest_tps_.push_back(static_cast<double>(triples) / secs);
  ingest_wal_s_.push_back(wal_s);
  Ok(stats.status, "ingest stream");
  Check(stats.batches == in_.batches.size(),
        "ingest committed fewer batches than the stream holds");
  // The WAL holds exactly the contributing batches the stream committed.
  std::error_code ec;
  wal_bytes_ = fs::file_size(s.dd->WalPath(s.dd->generation()), ec);
  Check(!ec, "WAL file missing after ingest");
  wal_triples_ = triples;
  ingest_stats_.push_back(std::move(stats));
  ingest_pairs_.push_back(s.result.pairs);
  fs::remove_all(s.dd->dir(), ec);
}

/// One JSON metric entry, value printed with every digit.
void Metric(std::string* out, const char* name, double value,
            const char* unit) {
  if (!std::isfinite(value)) value = 0;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out->empty() ? "" : ", ", name, value, unit);
  *out += buf;
}

bool Run::Report(double steal_frac, const std::string& trace_path) const {
  const auto [tail_s, tail_pct] = Tail(commit_s_);
  const double peak_rss = PeakRssMiB();
  auto per_ingest = [&](auto field) {
    std::vector<double> v;
    for (const IngestStats& st : ingest_stats_) v.push_back(field(st));
    return Median(v);
  };
  const double batches_per_commit = per_ingest([](const IngestStats& st) {
    return st.commits ? static_cast<double>(st.batches) /
                            static_cast<double>(st.commits)
                      : 0.0;
  });

  std::printf("# samples: setup=%zu match=%zu commits=%zu recover=%zu "
              "ingest=%zu (batches/commit %.2f)\n",
              setup_s_.size(), match_s_.size(), commit_s_.size(),
              recover_s_.size(), ingest_tps_.size(), batches_per_commit);
  std::printf("# commit_tail_ms is p%.1f of %zu closed-loop commits; "
              "one fsync per acknowledged batch\n",
              tail_pct, commit_s_.size());
  std::printf("# graph: triples=%zu pairs=%zu final_pairs=%zu "
              "wal_batches_replayed=%zu\n",
              base_triples_, base_pairs_.size(), final_pairs_.size(),
              batches_replayed_);
  // End-to-end figures are printed in both modes; the traced run's minus
  // the untraced run's is the tracing overhead.
  std::printf("# e2e%s: setup_s=%.6f match_s=%.6f commit_p50_ms=%.4f "
              "commit_tail_ms=%.4f ingest_triples_per_s=%.2f "
              "recover_s=%.6f peak_rss_mb=%.2f\n",
              tracer_.enabled() ? " (traced)" : "", Median(setup_s_),
              Median(match_s_), Median(commit_s_) * 1e3, tail_s * 1e3,
              Median(ingest_tps_), Median(recover_s_), peak_rss);

  std::string metrics;
  if (!tracer_.enabled()) {
    Metric(&metrics, "setup_s", Median(setup_s_), "s");
    Metric(&metrics, "match_s", Median(match_s_), "s");
    Metric(&metrics, "commit_p50_ms", Median(commit_s_) * 1e3, "ms");
    Metric(&metrics, "commit_tail_ms", tail_s * 1e3, "ms");
    Metric(&metrics, "ingest_triples_per_s", Median(ingest_tps_), "1/s");
    Metric(&metrics, "recover_s", Median(recover_s_), "s");
    Metric(&metrics, "peak_rss_mb", peak_rss, "MiB");
    Metric(&metrics, "snapshot_bytes_per_triple",
           base_triples_ ? static_cast<double>(snapshot_bytes_) /
                               static_cast<double>(base_triples_)
                         : 0,
           "B");
    Metric(&metrics, "wal_bytes_per_triple",
           wal_triples_ ? static_cast<double>(wal_bytes_) /
                              static_cast<double>(wal_triples_)
                        : 0,
           "B");
  } else {
    const Tracer& t = tracer_;
    auto ms = [](std::vector<double> v) {
      for (double& x : v) x *= 1e3;
      return v;
    };
    auto count = [](size_t v) { return static_cast<double>(v); };
    Metric(&metrics, "io.parse_base_s", Median(t.Durations("io.parse_base")),
           "s");
    Metric(&metrics, "io.parse_delta_ms",
           Median(ms(t.Durations("io.parse_delta"))), "ms");
    Metric(&metrics, "graph.apply_ms", Median(ms(t.Durations("graph.apply"))),
           "ms");
    Metric(&metrics, "plan.compile_s", Median(t.Durations("plan.compile")),
           "s");
    Metric(&metrics, "plan.patch_ms", Median(ms(t.Durations("plan.patch"))),
           "ms");
    Metric(&metrics, "plan.patch_tail_ms",
           Tail(ms(t.Durations("plan.patch"))).first, "ms");
    Metric(&metrics, "plan.release_ms",
           Median(ms(t.Durations("plan.release"))), "ms");
    Metric(&metrics, "plan.dirty_frac", Median(dirty_frac_), "ratio");
    Metric(&metrics, "plan.candidates", count(base_stats_.candidates),
           "count");
    Metric(&metrics, "plan.blocked", count(base_stats_.candidates_blocked),
           "count");
    Metric(&metrics, "plan.bytes", count(base_stats_.plan_bytes), "B");
    Metric(&metrics, "engine.run_s", Median(t.Durations("engine.run")), "s");
    Metric(&metrics, "engine.rounds", count(base_stats_.rounds), "count");
    Metric(&metrics, "engine.iso_checks", count(base_stats_.iso_checks),
           "count");
    Metric(&metrics, "engine.messages", count(base_stats_.messages), "count");
    Metric(&metrics, "engine.pairs_per_check",
           base_stats_.iso_checks ? count(base_pairs_.size()) /
                                        count(base_stats_.iso_checks)
                                  : 0,
           "ratio");
    Metric(&metrics, "engine.rematch_ms",
           Median(ms(t.Durations("engine.rematch"))), "ms");
    Metric(&metrics, "engine.retracted_per_commit", Mean(retracted_), "count");
    Metric(&metrics, "engine.fallback_commits", count(fallback_commits_),
           "count");
    Metric(&metrics, "ingest.parse_s",
           per_ingest([](const IngestStats& st) { return st.seconds.parse; }),
           "s");
    Metric(&metrics, "ingest.bind_s",
           per_ingest([](const IngestStats& st) { return st.seconds.bind; }),
           "s");
    Metric(&metrics, "ingest.apply_s",
           per_ingest([](const IngestStats& st) { return st.seconds.apply; }),
           "s");
    Metric(&metrics, "ingest.patch_s",
           per_ingest([](const IngestStats& st) { return st.seconds.patch; }),
           "s");
    Metric(&metrics, "ingest.rematch_s",
           per_ingest([](const IngestStats& st) {
             return st.seconds.rematch;
           }),
           "s");
    Metric(&metrics, "ingest.wal_s", Median(ingest_wal_s_), "s");
    Metric(&metrics, "ingest.batches_per_commit", batches_per_commit,
           "ratio");
    // Closed-loop appends only; the pipeline's appends are ingest.wal_s.
    std::vector<double> append;
    for (const Tracer::Span& s : t.spans()) {
      if (s.name == "storage.append" && s.parent >= 0 &&
          t.spans()[s.parent].name == "commit") {
        append.push_back((s.end - s.start) * 1e3);
      }
    }
    Metric(&metrics, "storage.append_ms", Median(append), "ms");
    Metric(&metrics, "storage.append_tail_ms", Tail(append).first, "ms");
    Metric(&metrics, "storage.save_s", Median(t.Durations("storage.save")),
           "s");
    Metric(&metrics, "storage.load_s", load_s_, "s");
    Metric(&metrics, "storage.replay_ms_per_batch",
           batches_replayed_ ? (Median(recover_s_) - load_s_) * 1e3 /
                                   count(batches_replayed_)
                             : 0,
           "ms");

    // Self time by layer within the closed-loop commits and the match
    // repetitions: each layer's share of the time users wait.
    const std::vector<double> self = t.SelfTimes();
    std::map<std::string, double> commit_self, match_self, run_self;
    double commit_total = 0, match_total = 0;
    for (size_t i = 0; i < t.spans().size(); ++i) {
      const Tracer::Span& s = t.spans()[i];
      run_self[Tracer::LayerOf(s.name)] += self[i];
      if (s.name == "commit") commit_total += s.end - s.start;
      if (s.name == "match") match_total += s.end - s.start;
      if (s.parent < 0) continue;
      const std::string& parent = t.spans()[s.parent].name;
      if (parent == "commit") commit_self[Tracer::LayerOf(s.name)] += self[i];
      if (parent == "match") match_self[Tracer::LayerOf(s.name)] += self[i];
    }
    auto share = [](double part, double whole) {
      return whole > 0 ? part / whole : 0.0;
    };
    for (const char* layer : {"io", "graph", "plan", "engine", "storage"}) {
      const std::string name = std::string("commit.") + layer + "_share";
      Metric(&metrics, name.c_str(), share(commit_self[layer], commit_total),
             "ratio");
    }
    Metric(&metrics, "match.engine_share",
           share(match_self["engine"], match_total), "ratio");
    Metric(&metrics, "host.steal_frac", steal_frac, "ratio");

    std::printf("# self time by layer, whole run:");
    for (const auto& [layer, secs] : run_self) {
      std::printf(" %s=%.4fs", layer.c_str(), secs);
    }
    std::printf("\n# commit share by layer:");
    for (const auto& [layer, secs] : commit_self) {
      std::printf(" %s=%.3f", layer.c_str(), share(secs, commit_total));
    }
    std::printf("\n# trace: %zu spans -> %s\n", t.spans().size(),
                trace_path.c_str());
  }
  const bool ok = correct_ && failed_ == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              ok ? "true" : "false", attempted_, failed_, metrics.c_str());
  return ok;
}

int Usage() {
  std::fprintf(stderr,
               "usage: gkeys_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --dir <work dir> "
               "[--trace-out <file>]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  if (argc % 2 == 0) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "dir"}) {
    if (!args.count(required)) return Usage();
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args["workload"] == cand.name) w = &cand;
  }
  if (w == nullptr) return Usage();
  char* end = nullptr;
  const uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage();
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0)) return Usage();
  const bool trace = args["trace"] == "1";
  if (!trace && args["trace"] != "0") return Usage();
  const std::string work_dir = args["dir"];
  const std::string trace_path = args.count("trace-out")
                                     ? args["trace-out"]
                                     : work_dir + "-trace.json";

  // The work directory is removed at exit, so it must be new or empty.
  std::error_code ec;
  fs::create_directories(work_dir, ec);
  if (ec || !fs::is_empty(work_dir, ec)) {
    std::fprintf(stderr, "%s: cannot create, or not empty\n",
                 work_dir.c_str());
    return 1;
  }

  const Inputs inputs = w->make(seed);
  size_t batch_bytes = 0;
  for (const std::string& b : inputs.batches) batch_bytes += b.size();
  std::printf("# workload=%s seed=%" PRIu64 " inputs_fnv1a=%016" PRIx64
              " base_bytes=%zu batches=%zu batch_bytes=%zu algorithm=%s\n",
              w->name, seed, HashInputs(inputs), inputs.base_text.size(),
              inputs.batches.size(), batch_bytes,
              AlgorithmName(w->algorithm).c_str());

  const std::string build_type = GKEYS_PERFBENCH_BUILD_TYPE;
  const std::string fs_type = FilesystemType(work_dir);
  const CpuTimes cpu0 = ReadCpuTimes();
  Run run(*w, inputs, seconds, trace, work_dir);
  run.Execute();
  const CpuTimes cpu1 = ReadCpuTimes();
  const double busy = cpu1.busy - cpu0.busy;
  const double steal_frac = busy > 0 ? (cpu1.steal - cpu0.steal) / busy : 0;

  std::printf("# noise: host.steal_frac=%.4f nproc=%ld processors=%d "
              "fs=%s build=%s%s%s\n",
              steal_frac, sysconf(_SC_NPROCESSORS_ONLN), kProcessors,
              fs_type.c_str(), build_type.c_str(),
              build_type == "Debug" ? " WARNING:debug-build" : "",
              fs_type == "tmpfs" ? " WARNING:tmpfs-makes-fsync-free" : "");
  std::string written = trace_path;
  if (trace && !run.WriteTrace(trace_path)) written = "(write failed)";
  fs::remove_all(work_dir, ec);
  return run.Report(steal_frac, written) ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace gkeys

int main(int argc, char** argv) { return gkeys::perfbench::Main(argc, argv); }
