// kqbench: the in-process half of the KumQuat benchmark (perfbench/run.py
// is the other half and the only entry point).
//
//   kqbench gen <scan|aggregate|catalog> <seed> <scale> <dir>
//       Writes the workload's seeded inputs into <dir> plus
//       <dir>/manifest.tsv ("bytes<TAB>input<TAB>name<TAB>pipeline" per
//       line; catalog also writes its VFS fixtures under <dir>/fs). Prints
//       one JSON object with the input properties.
//   kqbench pass <dir>
//       One catalog pass: every manifest pipeline is parsed, compiled with
//       a fresh synth::SynthesisCache (as each CLI call pays), lowered and
//       run through kq::Executor at the default parallelism and at k=1.
//       Prints one JSON line per pipeline.
//   kqbench trace <dir> <seconds> <spans.json>
//       The traced run: replays every pipeline as explicit calls into each
//       layer's public functions, with spans recorded around the calls,
//       then measures each layer on the workload's own input. Prints one
//       JSON object with the per-layer metrics.
//
// Outputs are checked against <dir>/ref/<i>, the GNU reference run.py
// writes at set-up; a pipeline without a reference is unverified.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/catalog.h"
#include "compile/optimize.h"
#include "compile/plan.h"
#include "dsl/eval.h"
#include "exec/executor.h"
#include "exec/splitter.h"
#include "exec/thread_pool.h"
#include "io/engine.h"
#include "regex/regex.h"
#include "stream/block_reader.h"
#include "stream/channel.h"
#include "stream/spill.h"
#include "synth/synthesize.h"
#include "unixcmd/registry.h"
#include "unixcmd/sort_cmd.h"
#include "vfs/vfs.h"

namespace fs = std::filesystem;
using namespace kq;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::size_t kBlock = 1 << 20;            // runtime default block
constexpr std::size_t kShardSlice = 2 * kBlock;    // default shard slice
constexpr std::size_t kSpillThreshold = 64 << 20;  // default --spill-threshold
constexpr std::size_t kLayerInputCap = 8 << 20;    // per-layer input prefix

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void die(const std::string& message) {
  std::cerr << "kqbench: " << message << "\n";
  std::exit(2);
}

int open_read(const fs::path& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) die("cannot open " + path.string());
  return fd;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot read " + path.string());
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void write_file(const fs::path& path, std::string_view bytes) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) die("cannot write " + path.string());
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ------------------------------------------------------------ generators --

// splitmix64: a fixed, platform-independent stream for a given seed.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return next() % n; }
};

const char* const kProseWords[] = {
    "the", "of", "and", "to", "in", "a", "is", "that", "for", "it", "as",
    "was", "with", "be", "by", "on", "not", "he", "I", "this", "are", "or",
    "his", "from", "at", "which", "but", "have", "an", "they", "you", "were",
    "her", "she", "there", "would", "their", "we", "him", "been", "has",
    "when", "who", "will", "more", "no", "if", "out", "so", "said", "what",
    "up", "its", "about", "into", "than", "them", "can", "only", "other",
    "new", "some", "could", "time", "these", "two", "may", "then", "do",
    "first", "any", "my", "now", "such", "like", "our", "over", "man", "me",
    "even", "most", "made", "after", "also", "did", "many", "before", "must",
    "through", "back", "years", "where", "much", "your", "way", "well",
    "down", "should", "because", "each", "just", "those", "people", "Mr",
    "how", "too", "little", "state", "good", "very", "make", "world",
    "still", "own", "see", "men", "work", "long", "get", "here", "between",
    "both", "life", "being", "under", "never", "day", "same", "another",
    "know", "while", "last", "might", "us", "great", "old", "year", "off",
    "come", "since", "against", "go", "came", "right", "used", "take",
    "three", "apple", "Apple", "APPLE", "Fig", "fig", "figure", "pineapple",
    "orchard", "Orchard", "harvest", "cider", "branch", "Branch"};

// Prose-like lines of 4..14 words; three in ten capitalized and ending in a
// period. "apple" and "Fig" occur in a few percent of lines.
std::string gen_scan(std::size_t bytes, std::uint64_t seed,
                     std::string* props) {
  Rng rng{seed};
  constexpr std::size_t kWords = sizeof(kProseWords) / sizeof(*kProseWords);
  std::string out;
  out.reserve(bytes + 256);
  std::size_t lines = 0;
  while (out.size() < bytes) {
    std::size_t n = 4 + rng.below(11);
    std::size_t start = out.size();
    for (std::size_t w = 0; w < n; ++w) {
      if (w) out.push_back(' ');
      out += kProseWords[rng.below(kWords)];
    }
    if (rng.below(10) < 3) {
      out[start] = static_cast<char>(std::toupper(
          static_cast<unsigned char>(out[start])));
      out.push_back('.');
    }
    out.push_back('\n');
    ++lines;
  }
  *props = "{\"bytes\": " + std::to_string(out.size()) +
           ", \"lines\": " + std::to_string(lines) +
           ", \"words_per_line\": \"4-14\", \"vocabulary\": " +
           std::to_string(kWords) + "}";
  return out;
}

// Keyed lines "u<r%97> k<r> <fruit><r*7%1000>" whose rank r is drawn from a
// Zipf(1.5) law over 200000 ranks, each emitted as a run of 1 + Exp(6)
// identical lines. Rank 0 is a third of all lines: after `sort` its run is
// far longer than one shard slice and its count passes 10^6.
std::string gen_aggregate(std::size_t bytes, std::uint64_t seed,
                          std::string* props) {
  constexpr std::size_t kRanks = 200000;
  constexpr double kSkew = 1.5;
  constexpr double kMeanRun = 6.0;
  static const char* const kFruit[] = {"apple", "banana", "cherry", "date",
                                       "elder", "fig",    "grape",  "honey",
                                       "kiwi",  "lemon"};
  std::vector<double> cum(kRanks);
  double total = 0;
  for (std::size_t r = 0; r < kRanks; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kSkew);
    cum[r] = total;
  }
  Rng rng{seed};
  std::string out;
  out.reserve(bytes + 4096);
  std::size_t lines = 0, runs = 0, top_lines = 0;
  std::set<std::size_t> distinct;
  while (out.size() < bytes) {
    std::size_t r = static_cast<std::size_t>(
        std::lower_bound(cum.begin(), cum.end(), rng.unit() * total) -
        cum.begin());
    if (r >= kRanks) r = kRanks - 1;
    std::string line = "u";
    line += std::to_string(r % 97);
    line += " k";
    line += std::to_string(r);
    line += ' ';
    line += kFruit[r % 10];
    line += std::to_string(r * 7 % 1000);
    line += '\n';
    std::size_t run =
        1 + static_cast<std::size_t>(-std::log(1.0 - rng.unit()) * kMeanRun);
    for (std::size_t i = 0; i < run; ++i) out += line;
    lines += run;
    ++runs;
    if (r == 0) top_lines += run;
    distinct.insert(r);
  }
  *props = "{\"bytes\": " + std::to_string(out.size()) +
           ", \"lines\": " + std::to_string(lines) +
           ", \"distinct_keys\": " + std::to_string(distinct.size()) +
           ", \"zipf_skew\": " + json_num(kSkew) +
           ", \"top_key_share\": " +
           json_num(static_cast<double>(top_lines) /
                    static_cast<double>(lines)) +
           ", \"mean_run_length\": " +
           json_num(static_cast<double>(lines) / static_cast<double>(runs)) +
           "}";
  return out;
}

const std::vector<std::string> kScanPipelines = {
    "wc -l",
    "grep apple",
    "grep -v Fig | wc -w",
    "tr A-Z a-z | cut -d ' ' -f 2-4",
    "sed 's/apple/APPLE/g'",
};

const std::vector<std::string> kAggregatePipelines = {
    "uniq",
    "sort",
    "sort | uniq -c",
    "cut -d ' ' -f 2 | sort | uniq -c | sort -rn | head -n 5",
};

struct Entry {
  std::size_t bytes = 0;
  std::string input;  // relative to the workload directory
  std::string name;
  std::string pipeline;
};

void write_manifest(const fs::path& dir, const std::vector<Entry>& entries) {
  std::string text;
  for (const Entry& e : entries)
    text += std::to_string(e.bytes) + "\t" + e.input + "\t" + e.name + "\t" +
            e.pipeline + "\n";
  write_file(dir / "manifest.tsv", text);
}

std::vector<Entry> read_manifest(const fs::path& dir) {
  std::vector<Entry> entries;
  std::istringstream in(read_file(dir / "manifest.tsv"));
  std::string line;
  while (std::getline(in, line)) {
    Entry e;
    std::size_t a = line.find('\t');
    std::size_t b = line.find('\t', a + 1);
    std::size_t c = line.find('\t', b + 1);
    if (c == std::string::npos) die("malformed manifest line: " + line);
    e.bytes = std::stoull(line.substr(0, a));
    e.input = line.substr(a + 1, b - a - 1);
    e.name = line.substr(b + 1, c - b - 1);
    e.pipeline = line.substr(c + 1);
    entries.push_back(std::move(e));
  }
  return entries;
}

int cmd_gen(const std::string& workload, std::uint64_t seed, double scale,
            const fs::path& dir) {
  fs::create_directories(dir);
  std::string props;
  std::vector<Entry> entries;
  if (workload == "scan" || workload == "aggregate") {
    bool scan = workload == "scan";
    std::size_t bytes = static_cast<std::size_t>(
        (scan ? 32.0 : 72.0) * kMiB * scale);
    std::string input = scan ? gen_scan(bytes, seed, &props)
                             : gen_aggregate(bytes, seed, &props);
    write_file(dir / "input.txt", input);
    for (const std::string& p : scan ? kScanPipelines : kAggregatePipelines)
      entries.push_back({input.size(), "input.txt", p, p});
  } else if (workload == "catalog") {
    const std::size_t fixture =
        std::max<std::size_t>(1024, static_cast<std::size_t>(32768 * scale));
    vfs::Vfs vfs;
    std::size_t stdin_total = 0, i = 0;
    for (const kq::bench::Script& script : kq::bench::all_scripts()) {
      std::string input = kq::bench::prepare_input(script, fixture, seed, vfs);
      std::string in_name = "in/" + std::to_string(i++) + ".txt";
      write_file(dir / in_name, input);
      stdin_total += input.size();
      for (const std::string& p : script.pipelines) {
        // Input size: stdin plus the fixture files a stdin name list points
        // xargs at (the poets scripts read their books that way).
        std::size_t bytes = input.size();
        if (p.find("xargs") != std::string::npos) {
          std::istringstream names(input);
          std::string n;
          while (std::getline(names, n)) {
            auto f = vfs.read(n);
            if (!f) f = vfs.read("pg/" + n);
            if (f) bytes += f->size();
          }
        }
        entries.push_back({bytes, in_name, script.suite + "/" + script.name,
                           p});
      }
    }
    std::size_t fixture_total = 0;
    for (const std::string& name : vfs.names()) {
      std::string contents = *vfs.read(name);
      fixture_total += contents.size();
      write_file(dir / "fs" / name, contents);
    }
    props = "{\"scripts\": " + std::to_string(i) + ", \"pipelines\": " +
            std::to_string(entries.size()) +
            ", \"fixture_bytes_per_script\": " + std::to_string(fixture) +
            ", \"stdin_bytes\": " +
            std::to_string(stdin_total) + ", \"vfs_files\": " +
            std::to_string(vfs.names().size()) + ", \"vfs_bytes\": " +
            std::to_string(fixture_total) + "}";
  } else {
    die("unknown workload " + workload);
  }
  write_manifest(dir, entries);
  std::cout << props << "\n";
  return 0;
}

// Loads <dir>/fs into a VFS (the catalog's xargs/comm fixtures).
void load_vfs(const fs::path& dir, vfs::Vfs& vfs) {
  fs::path root = dir / "fs";
  if (!fs::exists(root)) return;
  for (const auto& f : fs::recursive_directory_iterator(root))
    if (f.is_regular_file())
      vfs.write(fs::relative(f.path(), root).string(), read_file(f.path()));
}

std::optional<std::string> read_ref(const fs::path& dir, std::size_t i) {
  fs::path p = dir / "ref" / std::to_string(i);
  if (!fs::exists(p)) return std::nullopt;
  return read_file(p);
}

struct Compiled {
  std::unique_ptr<synth::SynthesisCache> cache;  // plan points into it
  compile::Plan plan;
  std::vector<exec::ExecStage> stages;
};

// The CLI's planning (cli/kumquat_main.cpp compile_line) with the
// workload's VFS: compile, top-N rewrite, combiner elimination.
compile::Plan plan_like_cli(const compile::ParsedPipeline& parsed,
                            synth::SynthesisCache& cache,
                            const vfs::Vfs& vfs) {
  compile::Plan plan = compile::compile_pipeline(parsed, cache, {}, &vfs);
  compile::rewrite_bounded_windows(plan);
  compile::eliminate_intermediate_combiners(plan);
  return plan;
}

// Parse, plan and lower with a fresh synthesis cache, as each CLI run pays.
std::optional<Compiled> compile_like_cli(const std::string& pipeline,
                                         const vfs::Vfs& vfs) {
  auto parsed = compile::parse_pipeline(pipeline);
  if (!parsed) return std::nullopt;
  Compiled c;
  c.cache = std::make_unique<synth::SynthesisCache>();
  c.plan = plan_like_cli(*parsed, *c.cache, vfs);
  c.stages = compile::lower_plan(c.plan);
  return c;
}

// ------------------------------------------------------------------ pass --

int cmd_pass(const fs::path& dir) {
  vfs::Vfs vfs;
  load_vfs(dir, vfs);
  std::vector<Entry> entries = read_manifest(dir);
  kq::ExecOptions options;
  kq::Executor exec_n(options);
  options.parallelism = 1;
  kq::Executor exec_1(options);
  std::map<std::string, std::string> inputs;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    auto [it, fresh] = inputs.try_emplace(e.input);
    if (fresh) it->second = read_file(dir / e.input);
    const std::string& input = it->second;
    std::optional<std::string> ref = read_ref(dir, i);

    auto t0 = Clock::now();
    std::optional<Compiled> c = compile_like_cli(e.pipeline, vfs);
    double compile_s = since(t0);
    std::string line = "{\"i\": " + std::to_string(i) +
                       ", \"compile_s\": " + json_num(compile_s);
    if (!c) {
      line += ", \"ok\": false, \"ok_k1\": false, \"run_s\": 0, "
              "\"run_k1_s\": 0}";
      std::cout << line << "\n";
      continue;
    }
    auto run = [&](kq::Executor& ex, const std::string& suffix) {
      auto t = Clock::now();
      kq::ExecResult r = ex.run_collect(c->stages, input);
      double s = since(t);
      bool match = ref && r.ok && r.output == *ref;
      line += ", \"run" + suffix + "_s\": " + json_num(s) + ", \"ok" +
              suffix + "\": " + (r.ok ? "true" : "false") + ", \"match" +
              suffix + "\": " + (ref ? (match ? "true" : "false") : "null");
      if (r.batch_fallback)
        line += ", \"batch_fallback" + suffix + "\": true";
    };
    run(exec_n, "");
    run(exec_1, "_k1");
    std::cout << line << "}\n";
  }
  return 0;
}

// ----------------------------------------------------------------- spans --

// In-memory span recorder: name, layer, start, end, parent and the trace
// id shared by all spans of one pipeline. Written out once at the end.
// When off, a scope reads no clock.
class Spans {
 public:
  struct Rec {
    std::string name;
    std::string layer;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int trace = 0;
  };

  class Scope {
   public:
    Scope(Spans* s, std::string name, const char* layer) : s_(s) {
      if (!s_->on_) return;
      idx_ = static_cast<int>(s_->recs_.size());
      s_->recs_.push_back({std::move(name), layer, now(), 0,
                           s_->stack_.empty() ? -1 : s_->stack_.back(),
                           s_->trace_});
      s_->stack_.push_back(idx_);
    }
    ~Scope() {
      if (idx_ < 0) return;
      s_->recs_[static_cast<std::size_t>(idx_)].end_ns = now();
      s_->stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* s_;
    int idx_ = -1;
  };

  void set_on(bool on) { on_ = on; }
  void set_trace(int id) { trace_ = id; }
  Scope scope(std::string name, const char* layer) {
    return Scope(this, std::move(name), layer);
  }
  const std::vector<Rec>& recs() const { return recs_; }

  // Self time per layer: a span's duration minus its children's.
  std::map<std::string, double> self_seconds(std::size_t from) const {
    std::vector<std::int64_t> child(recs_.size(), 0);
    for (std::size_t i = from; i < recs_.size(); ++i)
      if (recs_[i].parent >= 0)
        child[static_cast<std::size_t>(recs_[i].parent)] +=
            recs_[i].end_ns - recs_[i].start_ns;
    std::map<std::string, double> self;
    for (std::size_t i = from; i < recs_.size(); ++i)
      self[recs_[i].layer] +=
          static_cast<double>(recs_[i].end_ns - recs_[i].start_ns -
                              child[i]) / 1e9;
    return self;
  }

  void write_json(const fs::path& path) const {
    std::string out = "[\n";
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      const Rec& r = recs_[i];
      out += "{\"id\": " + std::to_string(i) + ", \"trace\": " +
             std::to_string(r.trace) + ", \"parent\": " +
             std::to_string(r.parent) + ", \"layer\": " + json_str(r.layer) +
             ", \"name\": " + json_str(r.name) + ", \"start_ns\": " +
             std::to_string(r.start_ns) + ", \"end_ns\": " +
             std::to_string(r.end_ns) + "}";
      out += i + 1 < recs_.size() ? ",\n" : "\n";
    }
    out += "]\n";
    write_file(path, out);
  }

 private:
  static std::int64_t now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  bool on_ = false;
  int trace_ = 0;
  std::vector<Rec> recs_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------- kernels --

// Record-aligned blocks of about `block` bytes.
std::vector<std::string_view> blocks_of(std::string_view in,
                                        std::size_t block) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos < in.size()) {
    std::size_t end = std::min(in.size(), pos + block);
    if (end < in.size()) {
      std::size_t nl = in.find('\n', end);
      end = nl == std::string_view::npos ? in.size() : nl + 1;
    }
    out.push_back(in.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

// Runs a command over `in` through whichever interface it offers:
// stream_processor()->process, window_processor()->push/finish, else
// execute(). *consumed receives the input bytes actually fed (a prefix
// command stops early).
std::string run_kernel(const cmd::Command& c, std::string_view in,
                       std::size_t* consumed = nullptr) {
  std::string out;
  std::size_t fed = 0;
  if (auto p = c.stream_processor()) {
    for (std::string_view b : blocks_of(in, kBlock)) {
      fed += b.size();
      if (!p->process(b, &out)) break;
    }
    p->finish(&out);
  } else if (auto w = c.window_processor()) {
    for (std::string_view b : blocks_of(in, kBlock)) {
      fed += b.size();
      w->push(b, &out);
    }
    w->finish([&out](std::string_view piece) {
      out.append(piece);
      return true;
    });
  } else {
    fed = in.size();
    out = c.run(in);
  }
  if (consumed) *consumed = fed;
  return out;
}

// Every command of the scan and aggregate pipelines, by metric key.
const std::vector<std::pair<std::string, std::string>> kKernels = {
    {"wc_l", "wc -l"},
    {"grep", "grep apple"},
    {"grep_v", "grep -v Fig"},
    {"wc_w", "wc -w"},
    {"tr", "tr A-Z a-z"},
    {"cut_f2_4", "cut -d ' ' -f 2-4"},
    {"sed", "sed s/apple/APPLE/g"},
    {"uniq", "uniq"},
    {"uniq_c", "uniq -c"},
    {"sort", "sort"},
    {"cut_f2", "cut -d ' ' -f 2"},
    {"sort_rn", "sort -rn"},
    {"head", "head -n 5"},
};

// Repeats `fn` (returning bytes handled) until `min_s` has elapsed; MiB/s.
template <typename Fn>
double mibps(Fn fn, double min_s = 0.05) {
  std::size_t bytes = 0;
  auto t0 = Clock::now();
  double s = 0;
  do {
    bytes += fn();
    s = since(t0);
  } while (s < min_s);
  return static_cast<double>(bytes) / kMiB / s;
}

// ---------------------------------------------------------------- replay --

struct ReplayStats {
  std::vector<double> synth_ms;        // first synthesis of each command
  std::size_t synth_observations = 0;
  std::size_t synth_attempted = 0, synth_succeeded = 0;
  std::vector<double> plan_ms, lower_ms;
  std::size_t folds = 0, undefined = 0, fold_bytes = 0;
  double fold_s = 0;
  std::size_t attempted = 0, failed = 0;
  bool silent_mismatch = false;  // a run exited 0 with the wrong output
  std::vector<std::string> mismatched;
};

struct Workload {
  fs::path dir;
  std::vector<Entry> entries;
  std::map<std::string, std::string> inputs;  // by input path
  std::vector<std::optional<std::string>> refs;
  vfs::Vfs vfs;
  int k = 1;
};

// Replays one pipeline as explicit layer calls, modelling the sharded
// runtime serially: read the input in blocks, synthesize each stage
// (fresh cache, as every CLI run pays), plan and lower, then per stage
// either run the kernel over record-aligned shard slices and fold the
// shard outputs with the stage's combiner (spilling sorted parts through
// SpillMerger for merge-combined stages), or run it over the whole stream.
void replay_pipeline(Workload& w, std::size_t i, Spans& spans,
                     ReplayStats& st, std::set<std::string>& synthesized,
                     std::vector<Compiled>* keep) {
  const Entry& e = w.entries[i];
  spans.set_trace(static_cast<int>(i));
  auto root = spans.scope("pipeline " + e.pipeline, "bench");

  std::string data;
  {
    auto s = spans.scope("BlockReader " + e.input, "stream");
    int fd = open_read(w.dir / e.input);
    std::unique_ptr<io::Engine> engine = io::make_engine();
    stream::BlockReader reader(fd, engine.get());
    while (auto b = reader.next()) data += *b;
    ::close(fd);
  }

  auto parsed = compile::parse_pipeline(e.pipeline);
  if (!parsed) die("cannot parse " + e.pipeline);
  Compiled c;
  c.cache = std::make_unique<synth::SynthesisCache>();
  for (const compile::ParsedStage& stage : parsed->stages) {
    cmd::CommandPtr command = cmd::make_command(stage.argv, nullptr, &w.vfs);
    if (!command) continue;
    auto t0 = Clock::now();
    const synth::SynthesisResult* r;
    {
      auto s = spans.scope("synthesize " + stage.display, "synth");
      r = &c.cache->get_or_synthesize(*command, stage.argv, {}, &w.vfs);
    }
    if (synthesized.insert(command->display_name()).second) {
      st.synth_ms.push_back(since(t0) * 1e3);
      st.synth_observations += r->observation_count;
      ++st.synth_attempted;
      if (r->success) ++st.synth_succeeded;
    }
  }
  {
    auto t0 = Clock::now();
    auto s = spans.scope("compile_pipeline", "compile");
    c.plan = plan_like_cli(*parsed, *c.cache, w.vfs);
    st.plan_ms.push_back(since(t0) * 1e3);
  }
  {
    auto t0 = Clock::now();
    auto s = spans.scope("lower_plan", "compile");
    c.stages = compile::lower_plan(c.plan);
    st.lower_ms.push_back(since(t0) * 1e3);
  }

  for (std::size_t si = 0; si < c.stages.size(); ++si) {
    const exec::ExecStage& stage = c.stages[si];
    const compile::PlannedStage& planned = c.plan.stages[si];
    const cmd::Command& command = *stage.command;
    const std::string& name = command.display_name();
    std::string next;
    if (stage.parallel && stage.combine) {
      std::vector<std::string_view> slices;
      {
        auto s = spans.scope("split_stream", "exec");
        int n = static_cast<int>(std::max<std::size_t>(
            static_cast<std::size_t>(w.k),
            (data.size() + kShardSlice - 1) / kShardSlice));
        slices = exec::split_stream(data, n);
      }
      std::vector<std::string> outs;
      for (std::string_view slice : slices) {
        auto s = spans.scope("kernel " + name, "unixcmd");
        outs.push_back(run_kernel(command, slice));
      }
      if (stage.memory_class == exec::MemoryClass::kSortableSpill &&
          stage.sort_spec) {
        stream::SpillMerger merger(stage.sort_spec,
                                   stream::SpillMerger::Input::kSortedParts,
                                   kSpillThreshold);
        {
          auto s = spans.scope("spill-write " + name, "spill");
          for (std::string& o : outs)
            if (!merger.add(std::move(o))) die("spill: " + merger.error());
        }
        auto s = spans.scope("spill-merge " + name, "spill");
        if (!merger.finish(
                [&next](std::string&& piece) {
                  next += piece;
                  return true;
                },
                kBlock))
          die("spill merge: " + merger.error());
      } else {
        const synth::CompositeCombiner& combiner =
            planned.synthesis->combiner;
        dsl::EvalContext ctx{&command};
        bool defined = true;
        {
          auto s = spans.scope("combine " + name, "combine");
          auto t0 = Clock::now();
          next = std::move(outs.front());
          for (std::size_t j = 1; j < outs.size() && defined; ++j) {
            st.fold_bytes += next.size() + outs[j].size();
            ++st.folds;
            std::optional<std::string> r = combiner.apply(next, outs[j], ctx);
            if (r) {
              next = std::move(*r);
            } else {
              ++st.undefined;
              defined = false;
            }
          }
          st.fold_s += since(t0);
        }
        if (!defined) {
          // The batch runner's fallback: rerun the stage over its whole
          // input.
          auto s = spans.scope("kernel " + name + " (rerun)", "unixcmd");
          next = run_kernel(command, data);
        }
      }
    } else if (stage.memory_class == exec::MemoryClass::kSortableSpill &&
               stage.sort_spec && !command.window_processor()) {
      stream::SpillMerger merger(stage.sort_spec,
                                 stream::SpillMerger::Input::kUnsortedBlocks,
                                 kSpillThreshold);
      {
        auto s = spans.scope("spill-write " + name, "spill");
        for (std::string_view b : blocks_of(data, kBlock))
          if (!merger.add(std::string(b))) die("spill: " + merger.error());
      }
      auto s = spans.scope("spill-merge " + name, "spill");
      if (!merger.finish(
              [&next](std::string&& piece) {
                next += piece;
                return true;
              },
              kBlock))
        die("spill merge: " + merger.error());
    } else {
      auto s = spans.scope("kernel " + name, "unixcmd");
      next = run_kernel(command, data);
    }
    data = std::move(next);
  }

  if (w.refs[i]) {
    ++st.attempted;
    if (data != *w.refs[i]) {
      ++st.failed;
      st.mismatched.push_back("replay: " + e.pipeline);
    }
  }
  if (keep) keep->push_back(std::move(c));
}

// --------------------------------------------------------------- layers --

struct Metrics {
  std::vector<std::pair<std::string, double>> values;  // in print order
  void set(const std::string& name, double v) { values.emplace_back(name, v); }
};

// Direct per-layer measurements over (a prefix of) the workload input.
void measure_layers(Workload& w, Metrics& m) {
  // The workload's own bytes: the scan/aggregate input file, or the
  // catalog's script inputs back to back.
  std::string all;
  for (const auto& [path, bytes] : w.inputs) all += bytes;
  std::string_view prefix = all;
  if (prefix.size() > kLayerInputCap) {
    std::size_t cut = prefix.find('\n', kLayerInputCap);
    if (cut != std::string_view::npos) prefix = prefix.substr(0, cut + 1);
  }

  for (const auto& [key, line] : kKernels) {
    cmd::CommandPtr c = cmd::make_command_line(line, nullptr, &w.vfs);
    if (!c) die("cannot build kernel " + line);
    m.set("kernel." + key + ".mbps", mibps([&] {
            std::size_t fed = 0;
            run_kernel(*c, prefix, &fed);
            return fed;
          }));
  }

  {
    auto re = regex::Regex::compile("apple");
    if (!re) die("cannot compile regex");
    std::vector<std::string_view> lines;
    for (std::size_t pos = 0; pos < prefix.size();) {
      std::size_t nl = prefix.find('\n', pos);
      if (nl == std::string_view::npos) nl = prefix.size();
      lines.push_back(prefix.substr(pos, nl - pos));
      pos = nl + 1;
    }
    std::size_t hits = 0;
    m.set("regex.search_mbps", mibps([&] {
            for (std::string_view l : lines) hits += re->search(l);
            return prefix.size();
          }));
    (void)hits;
  }

  // Reads of the input file through the engine and through BlockReader.
  const fs::path input_path = w.dir / w.entries.front().input;
  std::vector<char> buf(kBlock);
  m.set("io.read_mbps", mibps([&] {
          // The engine dereferences every control field.
          std::atomic<bool> cancel{false}, idle{false}, time_waits{false};
          std::atomic<std::uint64_t> wait_ns{0};
          int error = 0;
          const io::SourceCtl ctl{&cancel, &idle, &time_waits, &wait_ns,
                                  &error};
          int fd = open_read(input_path);
          std::unique_ptr<io::Engine> engine = io::make_engine();
          std::size_t total = 0;
          while (std::size_t n =
                     engine->read_source(fd, buf.data(), buf.size(), ctl))
            total += n;
          ::close(fd);
          if (error != 0) die("engine read failed");
          return total;
        }));
  m.set("stream.block_read_mbps", mibps([&] {
          int fd = open_read(input_path);
          std::unique_ptr<io::Engine> engine = io::make_engine();
          stream::BlockReader reader(fd, engine.get());
          std::size_t total = 0;
          while (auto b = reader.next()) total += b->size();
          ::close(fd);
          return total;
        }));

  // Channel push-to-pop latency per 1 MiB block, producer and consumer on
  // their own threads as in the runtime.
  {
    constexpr std::size_t kHops = 512;
    std::vector<std::string_view> blocks = blocks_of(prefix, kBlock);
    std::vector<Clock::time_point> pushed(kHops), popped(kHops);
    stream::Channel channel(4);
    std::thread consumer([&] {
      while (auto chunk = channel.pop())
        popped[chunk->index] = Clock::now();
    });
    for (std::size_t h = 0; h < kHops; ++h) {
      stream::Chunk chunk{h, std::string(blocks[h % blocks.size()])};
      pushed[h] = Clock::now();
      channel.push(std::move(chunk));
    }
    channel.close();
    consumer.join();
    std::vector<double> us;
    for (std::size_t h = 0; h < kHops; ++h)
      us.push_back(
          std::chrono::duration<double, std::micro>(popped[h] - pushed[h])
              .count());
    m.set("stream.channel_hop_us", median(us));
  }

  // Spill writes and the external merge of sorted runs.
  std::vector<std::string_view> blocks = blocks_of(prefix, kBlock);
  m.set("spill.write_mbps", mibps([&] {
          stream::SpillFile file;
          if (!file.valid()) die("spill file: " + file.error());
          for (std::string_view b : blocks)
            if (!file.append(b)) die("spill append: " + file.error());
          return file.size();
        }));
  {
    cmd::CommandPtr sort = cmd::make_command_line("sort");
    std::shared_ptr<const cmd::SortSpec> spec = cmd::sort_spec_of(*sort);
    std::size_t bytes = 0;
    double merge_s = 0;
    auto t0 = Clock::now();
    do {
      stream::SpillMerger merger(
          spec, stream::SpillMerger::Input::kUnsortedBlocks,
          std::max<std::size_t>(prefix.size() / 4, 1));
      for (std::string_view b : blocks)
        if (!merger.add(std::string(b))) die("spill: " + merger.error());
      auto t = Clock::now();
      if (!merger.finish([](std::string&&) { return true; }, kBlock))
        die("spill merge: " + merger.error());
      merge_s += since(t);
      bytes += prefix.size();
    } while (since(t0) < 0.05);
    m.set("spill.merge_mbps", static_cast<double>(bytes) / kMiB / merge_s);
  }

  // Cutting record-aligned shard slices and copying each into the chunk
  // a shard worker receives, as the sharded feeder does.
  m.set("exec.split_mbps", mibps([&] {
          const int slices = std::max<int>(
              w.k, static_cast<int>(prefix.size() / kShardSlice) + 1);
          std::size_t bytes = 0;
          for (std::string_view slice : exec::split_stream(prefix, slices))
            bytes += stream::Chunk{0, std::string(slice)}.bytes.size();
          return bytes;
        }));

  {
    exec::ThreadPool pool(w.k);
    std::vector<double> us;
    for (int t = 0; t < 2000; ++t) {
      auto t0 = Clock::now();
      pool.submit([] {}).wait();
      us.push_back(std::chrono::duration<double, std::micro>(Clock::now() -
                                                             t0)
                       .count());
    }
    m.set("exec.pool_task_us", median(us));
  }
}

// In-process Executor runs (the workload's own mode: fd source for the CLI
// workloads, string source for the catalog) for the exec/stream counters.
void measure_executor(Workload& w, const std::vector<Compiled>& compiled,
                      bool from_fd, Metrics& m, ReplayStats& st) {
  kq::ExecOptions options;
  options.stats = true;
  kq::Executor executor(options);
  double busy_ns = 0, wall_k_ns = 0, blocked_ns = 0;
  std::size_t spilled = 0, peak_inflight = 0;
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    const Entry& e = w.entries[i];
    kq::ExecResult r;
    if (from_fd) {
      int fd = open_read(w.dir / e.input);
      std::string out;
      r = executor.run(compiled[i].stages, kq::Source::from_fd(fd),
                       [&out](std::string_view piece) {
                         out.append(piece);
                         return true;
                       });
      ::close(fd);
      r.output = std::move(out);
    } else {
      r = executor.run_collect(compiled[i].stages, w.inputs.at(e.input));
    }
    for (const stream::NodeMetrics& n : r.nodes) {
      busy_ns += static_cast<double>(n.worker_busy_ns);
      blocked_ns += static_cast<double>(n.send_blocked_ns + n.recv_blocked_ns);
    }
    wall_k_ns += r.seconds * 1e9 * w.k;
    spilled += r.spilled_bytes;
    peak_inflight = std::max(peak_inflight, r.peak_inflight_bytes);
    if (w.refs[i]) {
      ++st.attempted;
      if (!r.ok || r.output != *w.refs[i]) {
        ++st.failed;
        st.mismatched.push_back(
            "executor: " + e.pipeline +
            (r.ok ? std::string(" (output differs)") : ": " + r.error));
      }
      if (r.ok && r.output != *w.refs[i]) st.silent_mismatch = true;
    }
  }
  m.set("exec.worker_busy_ratio", wall_k_ns > 0 ? busy_ns / wall_k_ns : 0);
  m.set("exec.blocked_ms", blocked_ns / 1e6);
  m.set("spill.bytes", static_cast<double>(spilled));
  m.set("stream.peak_inflight_mb", static_cast<double>(peak_inflight) / kMiB);
}

int cmd_trace(const fs::path& dir, double seconds, const fs::path& out) {
  auto t_start = Clock::now();
  Workload w;
  w.dir = dir;
  w.entries = read_manifest(dir);
  w.k = kq::default_parallelism();
  load_vfs(dir, w.vfs);
  for (std::size_t i = 0; i < w.entries.size(); ++i) {
    auto [it, fresh] = w.inputs.try_emplace(w.entries[i].input);
    if (fresh) it->second = read_file(dir / w.entries[i].input);
    w.refs.push_back(read_ref(dir, i));
  }
  const bool from_fd = !fs::exists(dir / "fs");

  // The direct layer measurements run first: they also warm the page
  // cache and the allocator, which would otherwise bill the first replay.
  Metrics m;
  measure_layers(w, m);

  // Pairs of an untraced and a traced replay: one pair, then more while
  // another fits before the deadline. The first traced replay's statistics
  // are reported; the traced/untraced wall-time ratio is the tracing
  // overhead.
  Spans spans;
  std::vector<double> traced_s, untraced_s;
  std::vector<std::map<std::string, double>> shares;
  std::map<std::string, double> self_s;  // first traced replay, per layer
  ReplayStats first;
  std::vector<Compiled> compiled;
  double pair_s = 0;
  for (int round = 0; round == 0 || since(t_start) + pair_s <= seconds;
       ++round) {
    auto pair_start = Clock::now();
    for (bool traced : {false, true}) {
      spans.set_on(traced);
      std::size_t from = spans.recs().size();
      ReplayStats st;
      std::set<std::string> synthesized;
      bool keep = traced && round == 0;
      auto t0 = Clock::now();
      for (std::size_t i = 0; i < w.entries.size(); ++i)
        replay_pipeline(w, i, spans, st, synthesized,
                        keep ? &compiled : nullptr);
      double s = since(t0);
      (traced ? traced_s : untraced_s).push_back(s);
      if (traced) {
        std::map<std::string, double> self = spans.self_seconds(from);
        if (self_s.empty()) self_s = self;
        double total = 0;
        for (const auto& [layer, v] : self) total += v;
        for (auto& [layer, v] : self) v /= total;
        shares.push_back(std::move(self));
      }
      if (keep) first = std::move(st);
    }
    pair_s = since(pair_start);
  }

  m.set("synth.p50_ms", median(first.synth_ms));
  m.set("synth.max_ms",
        first.synth_ms.empty()
            ? 0
            : *std::max_element(first.synth_ms.begin(), first.synth_ms.end()));
  m.set("synth.observations", static_cast<double>(first.synth_observations));
  m.set("synth.success_ratio",
        first.synth_attempted
            ? static_cast<double>(first.synth_succeeded) /
                  static_cast<double>(first.synth_attempted)
            : 0);
  m.set("compile.plan_ms", median(first.plan_ms));
  m.set("compile.lower_ms", median(first.lower_ms));
  m.set("combine.folds", static_cast<double>(first.folds));
  m.set("combine.mbps", first.fold_s > 0 ? static_cast<double>(
                                               first.fold_bytes) /
                                               kMiB / first.fold_s
                                         : 0);
  m.set("combine.undefined", static_cast<double>(first.undefined));
  for (const char* layer : {"bench", "stream", "synth", "compile", "exec",
                            "unixcmd", "combine", "spill"}) {
    std::vector<double> v;
    for (const auto& s : shares) {
      auto it = s.find(layer);
      v.push_back(it == s.end() ? 0 : it->second);
    }
    m.set(std::string("share.") + layer, median(v));
  }
  m.set("trace.overhead_ratio", median(traced_s) / median(untraced_s));

  measure_executor(w, compiled, from_fd, m, first);
  spans.write_json(out);

  std::string metrics;
  for (const auto& [name, v] : m.values)
    metrics += (metrics.empty() ? "" : ", ") + json_str(name) + ": " +
               json_num(v);
  std::string layers;
  for (const auto& [layer, v] : self_s)
    layers += (layers.empty() ? "" : ", ") + json_str(layer) + ": " +
              json_num(v);
  std::string notes;
  for (const std::string& s : first.mismatched)
    notes += (notes.empty() ? "" : ", ") + json_str(s);
  std::cout << "{\"correct\": " << (first.silent_mismatch ? "false" : "true")
            << ", \"attempted\": " << first.attempted
            << ", \"failed\": " << first.failed << ", \"failures\": ["
            << notes << "], \"spans\": " << spans.recs().size()
            << ", \"replays\": " << traced_s.size()
            << ", \"self_seconds\": {" << layers << "}, \"metrics\": {"
            << metrics << "}}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> a(argv + 1, argv + argc);
  if (a.size() == 5 && a[0] == "gen")
    return cmd_gen(a[1], std::stoull(a[2]), std::stod(a[3]), a[4]);
  if (a.size() == 2 && a[0] == "pass") return cmd_pass(a[1]);
  if (a.size() == 4 && a[0] == "trace")
    return cmd_trace(a[1], std::stod(a[2]), a[3]);
  std::cerr << "usage: kqbench gen <scan|aggregate|catalog> <seed> <scale> "
               "<dir>\n"
               "       kqbench pass <dir>\n"
               "       kqbench trace <dir> <seconds> <spans.json>\n";
  return 2;
}
