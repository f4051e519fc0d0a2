// TPC-H benchmark driver: loads SF 0.1 into a fresh database, runs one named
// workload as a closed loop with a single client and a fixed number of
// operations, checks the answers and prints the raw measurements as one JSON
// object on stdout. perfbench/run.py builds this binary, runs it and turns
// the raw measurements into the benchmark's metrics (see perfbench/README.md).
//
//   perfbench_driver --workload power|refresh|out_of_core --seed N
//                    --seconds S --trace 0|1 --workdir DIR --answers FILE
//                    [--spans FILE]
//   perfbench_driver --write-answers FILE --workdir DIR
//
// Layers are measured from outside, around the driver's own calls into the
// engine's public API. With --trace 1 the driver additionally records spans
// (name, start, end, parent, query) and the per-operator profile of every
// timed query in memory and writes them to --spans when the run ends.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/json.h"
#include "common/rng.h"
#include "expr/primitive_profiler.h"
#include "planner/plan_verifier.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace vwise::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr double kScaleFactor = 0.1;
constexpr int kQueries = 22;
// Set-up repetitions per run; setup_s is their median.
constexpr int kSetups = 3;
// RF1 batch: 0.1% of the orders, as in the TPC-H refresh functions.
constexpr int64_t kBatchOrders = 150;
// RF2 deletes the batch appended this many rounds earlier.
constexpr int kWindowRounds = 4;
// Value-preserving modifies: hot lineitem rows spread over every stripe. One
// untimed commit modifies all of them; after that every RF1/RF2 commit
// re-modifies one of kHotSlices slices, so the PDT stays at a steady size.
constexpr int64_t kHotRows = 24576;
constexpr int kHotSlices = 4 * kQueries;
constexpr uint32_t kQuantityCol = 4;
constexpr uint32_t kDiscountCol = 6;
// RF1/RF2 pairs of the commit probe on workloads without refresh, spread
// evenly over the gaps after the passes.
constexpr int kProbeRounds = 100;
// Relative tolerance for doubles in spilled results: partition merges can
// reorder floating-point sums (the RowsEquivalent rule of bench_tpch_power).
constexpr double kSpillDoubleTolerance = 1e-9;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  size_t buffer_pool_bytes;
  size_t query_memory_budget_bytes;  // 0 = unlimited
  bool refresh;                      // RF1/RF2 commits around every query
  // Nominal seconds per pass on the reference machine; --seconds fixes the
  // pass count from it, so the operation count never depends on the clock.
  double nominal_pass_s;
};

const Workload kWorkloads[] = {
    {"power", 256ull << 20, 0, false, 0.7},
    {"refresh", 256ull << 20, 0, true, 1.6},
    {"out_of_core", 8ull << 20, 2ull << 20, false, 1.9},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Config MakeConfig(const Workload& w) {
  Config cfg;
  cfg.buffer_pool_bytes = w.buffer_pool_bytes;
  cfg.query_memory_budget_bytes = w.query_memory_budget_bytes;
  // Pin every knob whose default can come from the environment.
  cfg.total_memory_budget_bytes = 0;
  cfg.check_contracts = false;
  cfg.verify_plans = false;
  cfg.profile = false;
  cfg.enable_encoded_exec = true;
  cfg.wal_sync_on_commit = false;
  cfg.num_threads = 1;
  // One client: one runner thread, so every query runs on the same thread
  // (and malloc arena) and peak memory does not depend on which runner
  // picked a query up.
  cfg.max_concurrent_queries = 1;
  return cfg;
}

// ---------------------------------------------------------------------------
// In-memory trace: spans plus per-operator profile records
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_ns_(NowNs()) {}

  bool enabled() const { return enabled_; }

  // Records a finished span; returns its id (0 when tracing is off).
  int64_t Span(const std::string& name, int64_t start_ns, int64_t end_ns,
               int64_t parent, int64_t query = 0, Json attrs = Json::Object()) {
    if (!enabled_) return 0;
    Json s = Json::Object();
    int64_t id = next_id_++;
    s.Set("id", Json::Int(id));
    s.Set("name", Json::Str(name));
    s.Set("start_ns", Json::Int(start_ns - origin_ns_));
    s.Set("end_ns", Json::Int(end_ns - origin_ns_));
    s.Set("parent", Json::Int(parent));
    s.Set("query", Json::Int(query));
    s.Set("attrs", std::move(attrs));
    lines_.push_back(s.ToString(0));
    return id;
  }

  // Operator records: the profiling wrappers measure durations, not
  // intervals, so each record carries its inclusive Open and Next time and
  // its parent record; self time is inclusive minus the children.
  void Operators(const std::vector<PlanNodeProfile>& nodes, int64_t exec_span,
                 int64_t query) {
    if (!enabled_) return;
    std::vector<int64_t> stack;  // record id per depth
    for (const PlanNodeProfile& n : nodes) {
      int64_t id = next_id_++;
      stack.resize(n.depth);
      int64_t parent = n.depth == 0 ? exec_span : stack[n.depth - 1];
      stack.push_back(id);
      Json r = Json::Object();
      r.Set("id", Json::Int(id));
      r.Set("name", Json::Str("exec.op"));
      r.Set("kind", Json::Str(OperatorKind(n.op)));
      r.Set("parent", Json::Int(parent));
      r.Set("query", Json::Int(query));
      r.Set("open_ns", Json::Int(std::llround(n.open_ms * 1e6)));
      r.Set("next_ns", Json::Int(std::llround(n.next_ms * 1e6)));
      r.Set("rows", Json::Int(static_cast<int64_t>(n.rows_out)));
      int64_t dict = 0, rle = 0, flat = 0;
      if (ParseRepr(n.repr, &dict, &rle, &flat)) {
        Json repr = Json::Object();
        repr.Set("dict", Json::Int(dict));
        repr.Set("rle", Json::Int(rle));
        repr.Set("flat", Json::Int(flat));
        r.Set("repr", std::move(repr));
      }
      lines_.push_back(r.ToString(0));
    }
  }

  void Write(const std::string& path) const {
    if (!enabled_ || path.empty()) return;
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& l : lines_) out << l << '\n';
    if (!out.good()) Die("cannot write span file " + path);
  }

 private:
  static std::string OperatorKind(const std::string& op) {
    static const std::pair<const char*, const char*> kKinds[] = {
        {"Scan ", "scan"},         {"Select ", "select"},
        {"Project ", "project"},   {"HashJoin ", "hash_join"},
        {"HashAgg ", "hash_agg"},  {"Sort ", "sort"},
    };
    for (const auto& [prefix, kind] : kKinds) {
      if (op.rfind(prefix, 0) == 0) return kind;
    }
    return "other";
  }

  // " repr=dict:N/rle:N/flat:N" as rendered for scans by CollectPlanProfile.
  static bool ParseRepr(const std::string& s, int64_t* dict, int64_t* rle,
                        int64_t* flat) {
    size_t at = s.find("repr=dict:");
    if (at == std::string::npos) return false;
    long long d = 0, r = 0, f = 0;
    if (std::sscanf(s.c_str() + at, "repr=dict:%lld/rle:%lld/flat:%lld", &d,
                    &r, &f) != 3) {
      return false;
    }
    *dict = d;
    *rle = r;
    *flat = f;
    return true;
  }

  bool enabled_;
  int64_t origin_ns_;
  int64_t next_id_ = 1;
  std::vector<std::string> lines_;
};

// ---------------------------------------------------------------------------
// Answer digests
// ---------------------------------------------------------------------------

// A query answer reduced to its row count, a hash of every non-double value
// in row order, and the doubles themselves (few: the 22 SF 0.1 answers hold
// about 420), so spilled results can be compared with a tolerance.
struct Digest {
  size_t rows = 0;
  uint64_t hash = 0;
  std::vector<double> doubles;
};

Digest MakeDigest(const QueryResult& r) {
  Digest d;
  d.rows = r.rows.size();
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; i++) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& row : r.rows) {
    const unsigned char row_mark = 0xff;
    mix(&row_mark, 1);
    for (const Value& v : row) {
      auto kind = static_cast<unsigned char>(v.kind());
      mix(&kind, 1);
      switch (v.kind()) {
        case Value::Kind::kInt: {
          int64_t i = v.AsInt();
          mix(&i, sizeof(i));
          break;
        }
        case Value::Kind::kString: {
          const std::string& s = v.AsString();
          uint64_t len = s.size();
          mix(&len, sizeof(len));
          mix(s.data(), s.size());
          break;
        }
        case Value::Kind::kDouble:
          d.doubles.push_back(v.AsDouble());
          break;
        case Value::Kind::kNull:
          break;
      }
    }
  }
  d.hash = h;
  return d;
}

bool DigestsMatch(const Digest& want, const Digest& got, bool tolerant) {
  if (want.rows != got.rows || want.hash != got.hash ||
      want.doubles.size() != got.doubles.size()) {
    return false;
  }
  for (size_t i = 0; i < want.doubles.size(); i++) {
    double a = want.doubles[i], b = got.doubles[i];
    if (!tolerant) {
      if (std::memcmp(&a, &b, sizeof(a)) != 0) return false;
      continue;
    }
    double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
    if (std::fabs(a - b) > kSpillDoubleTolerance * scale) return false;
  }
  return true;
}

// File format, one line per query ('#' starts a comment):
//   <q> <rows> <hash, 16 hex digits> <n doubles> <double %.17g>...
std::string FormatDigest(int q, const Digest& d) {
  std::string line = std::to_string(q) + " " + std::to_string(d.rows) + " ";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 " %zu", d.hash,
                d.doubles.size());
  line += buf;
  for (double x : d.doubles) {
    std::snprintf(buf, sizeof(buf), " %.17g", x);
    line += buf;
  }
  return line;
}

std::vector<Digest> ReadDigests(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read answer digests " + path);
  std::vector<Digest> out(kQueries + 1);
  std::vector<bool> seen(kQueries + 1, false);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    int q = 0;
    std::string hash;
    size_t n = 0;
    Digest d;
    if (!(ls >> q >> d.rows >> hash >> n) || q < 1 || q > kQueries ||
        hash.size() != 16) {
      Die("malformed digest line: " + line);
    }
    d.hash = std::strtoull(hash.c_str(), nullptr, 16);
    d.doubles.resize(n);
    for (double& x : d.doubles) {
      std::string tok;
      if (!(ls >> tok)) Die("short digest line: " + line);
      x = std::strtod(tok.c_str(), nullptr);
    }
    out[q] = std::move(d);
    seen[q] = true;
  }
  for (int q = 1; q <= kQueries; q++) {
    if (!seen[q]) Die("answer digests lack query " + std::to_string(q));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Set-up: Database::Open + generator + bulk load of the 8 tables
// ---------------------------------------------------------------------------

struct SetupStats {
  double setup_s = 0;
  // Traced set-up only: the raw value bytes handed to the table writers.
  uint64_t user_bytes = 0;
};

uint64_t UserBytes(const std::vector<Value>& row) {
  uint64_t n = 0;
  for (const Value& v : row) {
    n += v.kind() == Value::Kind::kString ? v.AsString().size() : 8;
  }
  return n;
}

std::unique_ptr<Database> Setup(const std::string& dir, const Config& cfg,
                                Tracer* tracer, SetupStats* stats) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  const bool traced = tracer->enabled();
  int64_t t0 = NowNs();
  auto opened = Database::Open(dir, cfg);
  if (!opened.ok()) Die("Database::Open: " + opened.status().ToString());
  std::unique_ptr<Database> db = std::move(opened.value());
  struct TableLoad {
    std::string table;
    int64_t load_start, load_end, fill_start, fill_end, append_ns;
  };
  std::vector<TableLoad> loads;  // traced: spans emitted once the root exists

  tpch::Generator gen(kScaleFactor);
  using Gen = std::function<Status(const tpch::Generator::RowSink&)>;
  auto load = [&](const TableSchema& schema, const Gen& generate) {
    Status s = db->CreateTable(schema, ColumnGroups::Dsm(schema.num_columns()));
    if (!s.ok()) Die("CreateTable " + schema.name() + ": " + s.ToString());
    int64_t append_ns = 0, fill_start = 0, fill_end = 0;
    int64_t b0 = NowNs();
    s = db->BulkLoad(schema.name(), [&](TableWriter* w) {
      fill_start = NowNs();
      Status st;
      if (traced) {
        st = generate([&](const std::vector<Value>& row) {
          stats->user_bytes += UserBytes(row);
          int64_t a = NowNs();
          Status r = w->AppendRow(row);
          append_ns += NowNs() - a;
          return r;
        });
      } else {
        st = generate([w](const std::vector<Value>& row) {
          return w->AppendRow(row);
        });
      }
      fill_end = NowNs();
      return st;
    });
    int64_t b1 = NowNs();
    if (!s.ok()) Die("BulkLoad " + schema.name() + ": " + s.ToString());
    if (traced) {
      loads.push_back({schema.name(), b0, b1, fill_start, fill_end, append_ns});
    }
  };
  auto none = [](const std::vector<Value>&) { return Status::OK(); };
  load(tpch::RegionSchema(), [&](const auto& s) { return gen.Region(s); });
  load(tpch::NationSchema(), [&](const auto& s) { return gen.Nation(s); });
  load(tpch::SupplierSchema(), [&](const auto& s) { return gen.Supplier(s); });
  load(tpch::PartSchema(), [&](const auto& s) { return gen.Part(s); });
  load(tpch::PartsuppSchema(), [&](const auto& s) { return gen.Partsupp(s); });
  load(tpch::CustomerSchema(), [&](const auto& s) { return gen.Customer(s); });
  // Orders and lineitem come from one generator pass each, as in LoadAll.
  load(tpch::OrdersSchema(),
       [&](const auto& s) { return gen.OrdersAndLineitem(s, none); });
  load(tpch::LineitemSchema(),
       [&](const auto& s) { return gen.OrdersAndLineitem(none, s); });
  int64_t t1 = NowNs();
  stats->setup_s = (t1 - t0) * 1e-9;

  // tpch.generate spans the fill callback; the TableWriter appends inside it
  // (append_ns) belong to the bulk load, so generator self time is the span
  // minus append_ns.
  int64_t root = tracer->Span("bench.setup", t0, t1, 0);
  for (const TableLoad& l : loads) {
    Json attrs = Json::Object();
    attrs.Set("table", Json::Str(l.table));
    int64_t bl = tracer->Span("storage.bulk_load", l.load_start, l.load_end,
                              root, 0, std::move(attrs));
    Json gattrs = Json::Object();
    gattrs.Set("append_ns", Json::Int(l.append_ns));
    tracer->Span("tpch.generate", l.fill_start, l.fill_end, bl, 0,
                 std::move(gattrs));
  }
  return db;
}

// Bytes of all regular files under `dir` (tables, WAL, catalog, spill).
uint64_t DirBytes(const std::string& dir, const char* only_prefix = nullptr) {
  uint64_t n = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (only_prefix != nullptr &&
        it->path().filename().string().rfind(only_prefix, 0) != 0) {
      continue;
    }
    n += it->file_size(ec);
  }
  return n;
}

uint64_t TableBytes(Database* db, const std::string& dir) {
  uint64_t n = 0;
  for (const std::string& t : db->Internals().tm->TableNames()) {
    n += DirBytes(dir, (t + ".v").c_str());
  }
  return n;
}

// Peak resident set since the last ResetPeakRss(), in KiB.
int64_t PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoll(line.c_str() + 6, nullptr, 10);
  }
  return -1;
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

// ---------------------------------------------------------------------------
// The run: one client issuing queries and commits in a closed loop
// ---------------------------------------------------------------------------

struct QuerySample {
  int q = 0;
  int pass = 0;
  int64_t latency_ns = 0;
  bool ok = false;
};

// Latencies of the RF1 and RF2 commits of a phase.
struct Commits {
  std::vector<int64_t> rf1_ns;
  std::vector<int64_t> rf2_ns;
};

struct Phase {
  int64_t wall_ns = 0;
  std::vector<QuerySample> queries;
  Commits commits;
};

class Runner {
 public:
  Runner(const Workload& w, uint64_t seed, int passes, Database* db,
         std::string dir, const std::vector<Digest>* digests, Tracer* tracer)
      : w_(w), seed_(seed), passes_(passes), db_(db), dir_(std::move(dir)),
        digests_(digests), tracer_(tracer), session_(db->Connect()),
        round_(static_cast<int>(Rng(seed ^ 0x5eedULL).Next() % 997) * 4096) {
    TransactionManager* tm = db->Internals().tm;
    auto lineitem = tm->GetSnapshot("lineitem");
    auto orders = tm->GetSnapshot("orders");
    if (!lineitem.ok() || !orders.ok()) Die("snapshot of the refresh tables");
    stable_lines_ = lineitem->stable->row_count();
    stable_orders_ = orders->stable->row_count();
  }

  // Turns spans and the per-operator profile on for what follows.
  void set_traced(bool traced) { traced_ = traced; }

  // Picks the refresh hot set, reads its current values (value-preserving
  // modifies write them back unchanged) and modifies all of it in one commit.
  void PrepareHotSet() {
    Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + 17);
    // Stratified sample: one row from each of kHotRows equal strata, so the
    // hot set covers every stripe of the table.
    std::vector<uint64_t> rids;
    for (int64_t i = 0; i < kHotRows; i++) {
      uint64_t lo = stable_lines_ * i / kHotRows;
      uint64_t hi = stable_lines_ * (i + 1) / kHotRows;
      rids.push_back(lo + rng.Next() % (hi - lo));
    }
    PlanBuilder plan = session_->NewPlan();
    Status scan = plan.Scan("lineitem", {kQuantityCol, kDiscountCol});
    if (!scan.ok()) Die("hot-set scan: " + scan.ToString());
    auto all = session_->Query(&plan);
    if (!all.ok()) Die("hot-set scan: " + all.status().ToString());
    for (uint64_t rid : rids) {
      const auto& row = all->rows[rid];
      hot_.push_back({rid, row[0], row[1]});
    }
    auto txn = db_->Begin();
    for (int i = 0; i < kHotSlices; i++) ModifySlice(txn.get());
    Commit(txn.get(), "hot-set");
  }

  // Untimed pass in query order: fills caches and the refresh window, and
  // checks power/out_of_core answers against the digests.
  void WarmUp() {
    Phase ignored;
    for (int q = 1; q <= kQueries; q++) Step(q, /*pass=*/-1, &ignored);
  }

  // `passes_` passes over the 22 queries, each in a seeded order (TPC-H
  // streams permute the queries the same way). Workloads without refresh run
  // a share of the commit probe after each pass, outside the timed wall
  // time, so commit latency is sampled over the whole phase like the
  // queries. Each probe round appends a batch and deletes it again, so the
  // next pass sees an empty PDT, as before.
  Phase Timed() {
    Phase phase;
    BufferManager::Stats b0 = db_->Internals().buffers->stats();
    uint64_t wal0 = WalBytes();
    std::vector<PrimitiveCounters> p0 = PrimitiveProfiler::Snapshot();
    spill_written_ = spill_read_ = 0;
    peak_reserved_ = 0;
    PrimitiveProfiler::ScopedEnable prims(traced_);
    const int probe_rounds = w_.refresh ? 0 : (kProbeRounds + passes_ - 1) / passes_;
    int64_t t0 = NowNs();
    for (int pass = 0; pass < passes_; pass++) {
      int64_t pass_start = NowNs();
      for (int q : PassOrder(pass)) Step(q, pass, &phase);
      phase.wall_ns += NowNs() - pass_start;
      for (int i = 0; i < probe_rounds; i++) {
        phase.commits.rf1_ns.push_back(Rf1(/*with_modifies=*/false));
        phase.commits.rf2_ns.push_back(Rf2(/*delete_batch=*/true, /*with_modifies=*/false));
      }
    }
    int64_t t1 = NowNs();
    if (!traced_) return phase;

    BufferManager::Stats b1 = db_->Internals().buffers->stats();
    std::vector<PrimitiveCounters> p1 = PrimitiveProfiler::Snapshot();
    uint64_t tuples = 0, cycles = 0;
    for (size_t i = 0; i < p1.size(); i++) {
      tuples += p1[i].tuples - p0[i].tuples;
      cycles += p1[i].cycles - p0[i].cycles;
    }
    auto i64 = [](uint64_t v) { return Json::Int(static_cast<int64_t>(v)); };
    Json a = Json::Object();
    a.Set("passes", Json::Int(passes_));
    a.Set("buffer_hits", i64(b1.hits - b0.hits));
    a.Set("buffer_misses", i64(b1.misses - b0.misses));
    a.Set("buffer_evictions", i64(b1.evictions - b0.evictions));
    a.Set("read_retries", i64(b1.read_retries - b0.read_retries));
    a.Set("spill_written", i64(spill_written_));
    a.Set("spill_read", i64(spill_read_));
    a.Set("peak_reserved", i64(peak_reserved_));
    a.Set("primitive_tuples", i64(tuples));
    a.Set("primitive_cycles", i64(cycles));
    a.Set("pdt_delta_records", i64(DeltaRecords()));
    a.Set("wal_bytes", i64(WalBytes() - wal0));
    a.Set("commits", i64(phase.commits.rf1_ns.size() + phase.commits.rf2_ns.size()));
    tracer_->Span("bench.timed", t0, t1, 0, 0, std::move(a));
    return phase;
  }

  // Refresh: deletes every live RF1 batch, which returns the tables to the
  // loaded content (the hot-set modifies never changed a value).
  void Drain() {
    while (!live_.empty()) Rf2(/*delete_batch=*/true, /*with_modifies=*/false);
  }

  // Runs the 22 queries in order and checks them against the digests.
  void Verify() {
    for (int q = 1; q <= kQueries; q++) RunQuery(q, -1, /*check=*/true, nullptr);
  }

  void Checkpoint() {
    Json a = Json::Object();
    a.Set("delta_records", Json::Int(static_cast<int64_t>(DeltaRecords())));
    int64_t t0 = NowNs();
    Status s = db_->Checkpoint();
    int64_t t1 = NowNs();
    Account(s, "checkpoint");
    a.Set("ok", Json::Bool(s.ok()));
    tracer_->Span("txn.checkpoint", t0, t1, 0, 0, std::move(a));
  }

  uint64_t DeltaRecords() const {
    uint64_t n = 0;
    TransactionManager* tm = db_->Internals().tm;
    for (const std::string& t : tm->TableNames()) {
      auto snap = tm->GetSnapshot(t);
      if (snap.ok() && snap->deltas != nullptr) n += snap->deltas->record_count();
    }
    return n;
  }

  uint64_t WalBytes() const {
    std::error_code ec;
    uintmax_t n = fs::file_size(dir_ + "/wal.log", ec);
    return ec ? 0 : n;
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  struct HotRow {
    uint64_t rid;
    Value quantity;
    Value discount;
  };
  struct Batch {
    int64_t orders = 0;
    int64_t lines = 0;
  };

  std::vector<int> PassOrder(int pass) const {
    std::vector<int> order;
    for (int q = 1; q <= kQueries; q++) order.push_back(q);
    Rng rng(seed_ * 1000003ULL + static_cast<uint64_t>(pass));
    for (int i = kQueries - 1; i > 0; i--) {
      std::swap(order[i], order[rng.Next() % static_cast<uint64_t>(i + 1)]);
    }
    return order;
  }

  // One operation of the closed loop: the query, and on refresh an RF1
  // commit before it and an RF2 commit after it.
  void Step(int q, int pass, Phase* phase) {
    if (!w_.refresh) {
      RunQuery(q, pass, /*check=*/true, phase);
      return;
    }
    phase->commits.rf1_ns.push_back(Rf1(/*with_modifies=*/true));
    RunQuery(q, pass, /*check=*/false, phase);
    bool delete_batch = static_cast<int>(live_.size()) > kWindowRounds;
    phase->commits.rf2_ns.push_back(Rf2(delete_batch, /*with_modifies=*/true));
  }

  // Counts an operation; a failed one is logged and counted as failed.
  void Account(const Status& s, const std::string& what) {
    attempted_++;
    if (s.ok()) return;
    failed_++;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
                 s.ToString().c_str());
  }

  // Adds the next hot-set slice's value-preserving modifies to `txn`.
  void ModifySlice(Transaction* txn) {
    size_t slice = static_cast<size_t>(slice_++ % kHotSlices);
    for (size_t i = slice; i < hot_.size(); i += kHotSlices) {
      const HotRow& h = hot_[i];
      Status s = txn->Modify("lineitem", h.rid, kQuantityCol, h.quantity);
      if (s.ok()) s = txn->Modify("lineitem", h.rid, kDiscountCol, h.discount);
      if (!s.ok()) Die("hot-set modify: " + s.ToString());
    }
  }

  int64_t Commit(Transaction* txn, const char* what) {
    uint64_t wal0 = traced_ ? WalBytes() : 0;
    int64_t t0 = NowNs();
    Status s = db_->Commit(txn);
    int64_t t1 = NowNs();
    Account(s, std::string(what) + " commit");
    if (traced_) {
      Json a = Json::Object();
      a.Set("kind", Json::Str(what));
      a.Set("ok", Json::Bool(s.ok()));
      a.Set("wal_bytes", Json::Int(static_cast<int64_t>(WalBytes() - wal0)));
      tracer_->Span("txn.commit", t0, t1, 0, 0, std::move(a));
    }
    return t1 - t0;
  }

  // RF1: appends the next round's orders and lineitems; returns the commit
  // latency.
  int64_t Rf1(bool with_modifies) {
    auto txn = db_->Begin();
    tpch::Generator gen(kScaleFactor);
    Batch b;
    Status s = gen.RefreshOrders(
        round_++, kBatchOrders,
        [&](const std::vector<Value>& row) {
          b.orders++;
          return txn->Append("orders", row);
        },
        [&](const std::vector<Value>& row) {
          b.lines++;
          return txn->Append("lineitem", row);
        });
    if (!s.ok()) Die("RF1: " + s.ToString());
    if (with_modifies) ModifySlice(txn.get());
    int64_t ns = Commit(txn.get(), "rf1");
    live_.push_back(b);
    return ns;
  }

  // RF2: deletes the oldest live batch (when `delete_batch`), which sits
  // right after the stable rows of both tables; returns the commit latency.
  int64_t Rf2(bool delete_batch, bool with_modifies) {
    auto txn = db_->Begin();
    if (delete_batch && !live_.empty()) {
      Batch b = live_.front();
      live_.erase(live_.begin());
      for (int64_t i = b.orders - 1; i >= 0; i--) {
        Status s = txn->Delete("orders", stable_orders_ + static_cast<uint64_t>(i));
        if (!s.ok()) Die("RF2 orders: " + s.ToString());
      }
      for (int64_t i = b.lines - 1; i >= 0; i--) {
        Status s = txn->Delete("lineitem", stable_lines_ + static_cast<uint64_t>(i));
        if (!s.ok()) Die("RF2 lineitem: " + s.ToString());
      }
    }
    if (with_modifies) ModifySlice(txn.get());
    return Commit(txn.get(), "rf2");
  }

  // Prepare (plan build + bind to the session, the body of
  // tpch::PrepareQuery, kept apart so the traced run can read the operator
  // profile) -> Execute -> Wait. Samples go to `phase` when it is non-null.
  void RunQuery(int q, int pass, bool check, Phase* phase) {
    Config build_cfg = session_->config();
    build_cfg.profile = traced_;
    int64_t t0 = NowNs();
    tpch::QueryInfo info;
    auto built = tpch::BuildQuery(q, db_->Internals().tm, build_cfg, &info);
    std::unique_ptr<PreparedQuery> prepared;
    Operator* root = nullptr;
    if (built.ok()) {
      root = built->get();
      prepared = session_->PrepareRoot(std::move(built.value()), info.column_names);
    }
    int64_t t1 = NowNs();
    std::unique_ptr<QueryHandle> handle;
    const QueryResult* result = nullptr;
    Status status = built.status();
    if (prepared != nullptr) {
      handle = prepared->Execute();
      const Result<QueryResult>& r = handle->Wait();
      status = r.status();
      if (r.ok()) result = &r.value();
    }
    int64_t t2 = NowNs();
    std::string what = "Q";
    what += std::to_string(q);
    if (status.ok() && check) {
      bool spilled = result->spill_bytes_written > 0;
      if (!DigestsMatch((*digests_)[q], MakeDigest(*result), spilled)) {
        status = Status::Internal("answer does not match its digest");
      }
    }
    Account(status, what);
    if (phase == nullptr) return;

    QuerySample sample{q, pass, t2 - t0, status.ok()};
    phase->queries.push_back(sample);
    if (result != nullptr) {
      spill_written_ += result->spill_bytes_written;
      spill_read_ += result->spill_bytes_read;
      peak_reserved_ = std::max(peak_reserved_, result->peak_reserved_bytes);
    }
    if (!traced_ || pass < 0) return;

    int64_t id = ++query_seq_;
    Json qa = Json::Object();
    qa.Set("q", Json::Int(q));
    qa.Set("pass", Json::Int(pass));
    qa.Set("ok", Json::Bool(status.ok()));
    int64_t qspan = tracer_->Span("bench.query", t0, t2, 0, id, std::move(qa));
    tracer_->Span("planner.prepare", t0, t1, qspan, id);
    int64_t admitted = t1 + (handle != nullptr ? handle->admission_wait_ns() : 0);
    tracer_->Span("service.admission", t1, admitted, qspan, id);
    Json ea = Json::Object();
    if (result != nullptr) {
      auto i64 = [](uint64_t v) { return Json::Int(static_cast<int64_t>(v)); };
      ea.Set("rows", i64(result->rows.size()));
      ea.Set("spill_written", i64(result->spill_bytes_written));
      ea.Set("spill_read", i64(result->spill_bytes_read));
      ea.Set("peak_reserved", i64(result->peak_reserved_bytes));
    }
    int64_t espan = tracer_->Span("exec.execute", admitted, t2, qspan, id, std::move(ea));
    if (root != nullptr && result != nullptr) {
      tracer_->Operators(CollectPlanProfile(*root), espan, id);
    }
  }

  const Workload& w_;
  uint64_t seed_;
  int passes_;
  Database* db_;
  std::string dir_;
  const std::vector<Digest>* digests_;
  Tracer* tracer_;
  std::unique_ptr<Session> session_;

  int round_;
  uint64_t stable_lines_ = 0;
  uint64_t stable_orders_ = 0;
  std::vector<HotRow> hot_;
  std::vector<Batch> live_;
  int slice_ = 0;

  bool traced_ = false;
  int64_t query_seq_ = 0;
  uint64_t spill_written_ = 0;
  uint64_t spill_read_ = 0;
  size_t peak_reserved_ = 0;

  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

Json IntArray(const std::vector<int64_t>& v) {
  Json a = Json::Array();
  for (int64_t x : v) a.Append(Json::Int(x));
  return a;
}

Json CommitsJson(const Commits& c) {
  Json j = Json::Object();
  j.Set("rf1_ns", IntArray(c.rf1_ns));
  j.Set("rf2_ns", IntArray(c.rf2_ns));
  return j;
}

Json PhaseJson(const Phase& p) {
  Json j = Json::Object();
  j.Set("wall_ns", Json::Int(p.wall_ns));
  Json qs = Json::Array();
  for (const QuerySample& s : p.queries) {
    Json o = Json::Object();
    o.Set("q", Json::Int(s.q));
    o.Set("pass", Json::Int(s.pass));
    o.Set("latency_ns", Json::Int(s.latency_ns));
    o.Set("ok", Json::Bool(s.ok));
    qs.Append(std::move(o));
  }
  j.Set("queries", std::move(qs));
  j.Set("commits", CommitsJson(p.commits));
  return j;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string answers;
  std::string spans;
  std::string write_answers;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    std::string k = argv[i];
    if (i + 1 >= argc) Die("missing value for " + k);
    std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--answers") a.answers = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--write-answers") a.write_answers = v;
    else Die("unknown argument " + k);
  }
  if (a.workdir.empty()) Die("--workdir is required");
  return a;
}

// Regenerates the digest file from an unbudgeted in-memory run.
int WriteAnswers(const Args& args) {
  Tracer tracer(false);
  SetupStats st;
  std::string dir = args.workdir + "/db";
  auto db = Setup(dir, MakeConfig(kWorkloads[0]), &tracer, &st);
  auto session = db->Connect();
  std::ofstream out(args.write_answers, std::ios::trunc);
  out << "# Answer digests of the 22 TPC-H queries on the generator's SF "
         "0.1 image.\n# <q> <rows> <FNV-1a of non-double values> <n doubles> "
         "<doubles>\n";
  for (int q = 1; q <= kQueries; q++) {
    auto r = tpch::RunQuery(q, session.get(), db->Internals().tm, db->config());
    if (!r.ok()) Die("Q" + std::to_string(q) + ": " + r.status().ToString());
    out << FormatDigest(q, MakeDigest(*r)) << '\n';
  }
  db.reset();
  fs::remove_all(dir);
  return out.good() ? 0 : 2;
}

int Run(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) Die("unknown workload '" + args.workload + "'");
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  int passes = std::max(
      2, static_cast<int>(std::lround(args.seconds / w->nominal_pass_s)));
  std::vector<Digest> digests = ReadDigests(args.answers);
  Config cfg = MakeConfig(*w);
  Tracer tracer(args.trace);

  // Set-up kSetups times; the last database stays for the run.
  Json setups = Json::Array();
  SetupStats stats;
  std::unique_ptr<Database> db;
  std::string dir;
  for (int i = 0; i < kSetups; i++) {
    db.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = args.workdir + "/db" + std::to_string(i);
    stats = SetupStats();
    db = Setup(dir, cfg, &tracer, &stats);
    setups.Append(Json::Double(stats.setup_s));
  }
  uint64_t table_bytes = TableBytes(db.get(), dir);

  Runner runner(*w, args.seed, passes, db.get(), dir, &digests, &tracer);
  if (w->refresh) runner.PrepareHotSet();
  ResetPeakRss();
  runner.WarmUp();

  // The untraced timed phase gives the end-to-end numbers. A traced run
  // repeats it with tracing on; the ratio of the two is the overhead.
  Phase timed = runner.Timed();
  int64_t peak_rss_kb = PeakRssKb();
  Phase traced;
  if (args.trace) {
    runner.set_traced(true);
    traced = runner.Timed();
  }
  if (w->refresh) {
    runner.set_traced(false);
    runner.Drain();
    runner.Verify();
  }
  uint64_t disk_bytes = DirBytes(dir);
  uint64_t wal_bytes = runner.WalBytes();
  if (args.trace) {
    // One checkpoint of the PDT the run leaves, then the answers once more
    // against the merged tables.
    runner.Checkpoint();
    runner.Verify();
  }

  Json out = Json::Object();
  out.Set("workload", Json::Str(w->name));
  out.Set("seed", Json::Int(static_cast<int64_t>(args.seed)));
  out.Set("passes", Json::Int(passes));
  out.Set("setup_s", std::move(setups));
  out.Set("timed", PhaseJson(timed));
  if (args.trace) out.Set("traced", PhaseJson(traced));
  out.Set("commits", CommitsJson(timed.commits));
  out.Set("disk_bytes", Json::Int(static_cast<int64_t>(disk_bytes)));
  out.Set("peak_rss_kb", Json::Int(peak_rss_kb));
  out.Set("attempted", Json::Int(runner.attempted()));
  out.Set("failed", Json::Int(runner.failed()));
  if (args.trace) {
    Json t = Json::Object();
    t.Set("user_bytes", Json::Int(static_cast<int64_t>(stats.user_bytes)));
    t.Set("table_bytes", Json::Int(static_cast<int64_t>(table_bytes)));
    t.Set("wal_bytes", Json::Int(static_cast<int64_t>(wal_bytes)));
    out.Set("layers", std::move(t));
  }
  tracer.Write(args.spans);

  db.reset();
  fs::remove_all(dir);
  std::printf("%s\n", out.ToString(0).c_str());
  return 0;
}

}  // namespace
}  // namespace vwise::perfbench

int main(int argc, char** argv) {
  using namespace vwise::perfbench;
  Args args = ParseArgs(argc, argv);
  if (!args.write_answers.empty()) return WriteAnswers(args);
  return Run(args);
}
