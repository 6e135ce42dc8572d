// End-to-end layer ledger for one workload (see NOTES.md).
//
//   e2e_ledger --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// One process drives the deliverable path through the public function of
// each layer — spec::parse_spec, the tiling::TilingModel constructor,
// codegen::generate_program — then compiles the emitted source with the
// host compiler and runs the binary at the workload's ranks x threads with
// tracing off, alternating with the serial oracle.  With --trace 1 it also
// runs the binary at 1x1 and once with --report= for the per-layer split
// of execution time.  All timing is taken here, around calls and
// child processes (wait4 gives wall, CPU and max RSS); nothing is added
// inside the program.  Every execution is checked against the ledger's own
// serial oracle (oracle.hpp).
//
// stdout: the human-readable ledger, a CONTEXT line, and as the last line
// one JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/generator.hpp"
#include "oracle.hpp"
#include "problems/problems.hpp"
#include "spec/parser.hpp"
#include "support/json.hpp"
#include "tiling/model.hpp"

using namespace dpgen;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "e2e_ledger: %s\n", msg.c_str());
  std::exit(1);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) die("cannot write " + path);
}

long long file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<long long>(st.st_size)
                                        : -1;
}

/// First line of a shell command's output ("" when it fails).
std::string command_line(const std::string& cmd) {
  FILE* pipe = ::popen((cmd + " 2>/dev/null").c_str(), "r");
  if (!pipe) return "";
  char buf[512] = {0};
  std::string out = std::fgets(buf, sizeof buf, pipe) ? buf : "";
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out;
}

std::string first_line_of(const std::string& path) {
  std::string s = read_file(path);
  return s.substr(0, s.find('\n'));
}

// ---- child processes ----------------------------------------------------

struct Exec {
  pid_t pid = -1;
  Clock::time_point ended;
  double wall_s = 0.0;    ///< set by the caller, which knows the start
  double cpu_s = 0.0;     ///< user + sys
  double maxrss_mb = 0.0;
  int status = -1;        ///< raw wait status
  bool ok() const { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }
};

/// Starts argv with stdout/stderr sent to files and TMPDIR pointed inside
/// the work directory (the compiler's scratch files stay there too).
pid_t spawn(const std::vector<std::string>& argv, const std::string& out,
            const std::string& err, const std::string& tmpdir) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    int fo = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int fe = ::open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fo < 0 || fe < 0) ::_exit(126);
    ::dup2(fo, 1);
    ::dup2(fe, 2);
    ::close(fo);
    ::close(fe);
    ::setenv("TMPDIR", tmpdir.c_str(), 1);
    ::execvp(args[0], args.data());
    ::_exit(127);
  }
  return pid;
}

/// Waits for child `pid`, or for whichever child exits first when `pid` is
/// -1.  ru_maxrss survives exec, so a child's figure is max(this process's
/// RSS at fork, the program's own peak); the ledger keeps its RSS small
/// and checks that it stayed below the programs' peaks.
Exec reap(pid_t pid) {
  Exec e;
  struct rusage ru {};
  while ((e.pid = ::wait4(pid, &e.status, 0, &ru)) < 0) {
    if (errno != EINTR) die("wait4 failed");
  }
  e.ended = Clock::now();
  e.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  e.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return e;
}

/// Runs argv to completion.
Exec run_child(const std::vector<std::string>& argv, const std::string& out,
               const std::string& err, const std::string& tmpdir) {
  const auto t0 = Clock::now();
  Exec e = reap(spawn(argv, out, err, tmpdir));
  e.wall_s = std::chrono::duration<double>(e.ended - t0).count();
  return e;
}

/// This process's resident set (VmRSS) in MB.
double self_rss_mb() {
  std::istringstream in(read_file("/proc/self/status"));
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmRSS:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

// ---- workloads ----------------------------------------------------------

struct Instance {
  std::string name;
  int ranks = 1, threads = 1;
  problems::Problem problem;
  IntVec params;
  codegen::GenOptions gen;
  bool use_max = false;        ///< objective is the MAX line (track_max)
  long long cells = 0;         ///< iteration-space points (STATS total_work)
  std::function<double()> serial;  ///< oracle and serial baseline
};

Instance make_instance(const std::string& name, unsigned seed) {
  Instance w;
  w.name = name;
  if (name == "bandit2_omp") {
    // bandit2 has no random input: the seed does not change it.
    const Int n = 240;
    w.ranks = 1;
    w.threads = 4;
    w.problem = problems::bandit2(8);
    w.params = {n};
    w.cells = (n + 1) * (n + 2) * (n + 3) * (n + 4) / 24;
    w.serial = [n] { return e2e::bandit2_serial(n); };
  } else if (name == "lcs_fine" || name == "sw_mpi4") {
    const bool lcs = name == "lcs_fine";
    const std::size_t len = lcs ? 6000 : 16000;
    const std::string a = problems::random_dna(len, seed);
    const std::string b = problems::random_dna(len, seed + 1000003u);
    w.params = problems::sequence_params({a, b});
    w.cells = (w.params[0] + 1) * (w.params[1] + 1);
    if (lcs) {
      w.ranks = 1;
      w.threads = 4;
      w.problem = problems::lcs({a, b}, 16);
      w.serial = [a, b] { return e2e::lcs_serial(a, b); };
    } else {
      w.ranks = 4;
      w.threads = 1;
      w.problem = problems::smith_waterman(a, b, 2.0, -1.0, -1.0, 64);
      w.gen.track_max = true;
      w.use_max = true;
      w.serial = [a, b] { return e2e::sw_serial(a, b, 2.0, -1.0, -1.0); };
    }
  } else {
    die("unknown workload '" + name +
        "' (bandit2_omp | lcs_fine | sw_mpi4)");
  }
  return w;
}

// ---- program output -----------------------------------------------------

struct ProgramOutput {
  bool have_value = false;
  double value = 0.0;  ///< RESULT at the objective, or the MAX value
  bool have_stats = false;
  long long tiles = 0, total_work = 0, remote_edges = 0, peak_edges = 0;
  unsigned long long bytes = 0;
  double init_scan_s = 0.0;
};

ProgramOutput parse_output(const std::string& text, const Instance& w) {
  ProgramOutput p;
  std::string key;
  if (w.use_max) {
    key = "\nMAX (";
  } else {
    key = "\nRESULT (";
    for (std::size_t i = 0; i < w.problem.objective.size(); ++i)
      key += (i ? ", " : "") + std::to_string(w.problem.objective[i]);
    key += ") = ";
  }
  const std::string padded = "\n" + text;
  auto pos = padded.find(key);
  if (pos != std::string::npos) {
    auto eq = padded.find(") = ", pos);
    if (eq != std::string::npos) {
      p.value = std::strtod(padded.c_str() + eq + 4, nullptr);
      p.have_value = true;
    }
  }
  pos = padded.find("\nSTATS ");
  if (pos != std::string::npos) {
    p.have_stats =
        std::sscanf(padded.c_str() + pos + 1,
                    "STATS tiles=%lld total_work=%lld remote_edges=%lld "
                    "bytes=%llu peak_edges=%lld init_scan_s=%lf",
                    &p.tiles, &p.total_work, &p.remote_edges, &p.bytes,
                    &p.peak_edges, &p.init_scan_s) == 6;
  }
  return p;
}

// ---- the ledger ---------------------------------------------------------

struct Args {
  std::string workload, workdir;
  unsigned seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = static_cast<unsigned>(std::stoul(v));
        have_seed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
        have_seconds = true;
      } else if (k == "--trace") {
        a.trace = std::stoi(v);
        have_trace = true;
      } else if (k == "--workdir") {
        a.workdir = v;
      } else {
        die("unknown argument " + k);
      }
    } catch (const std::logic_error&) {  // std::sto* rejected the value
      die("bad value for " + k + ": " + v);
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || a.workdir.empty() ||
      !have_seed || !have_seconds || !have_trace ||
      (a.trace != 0 && a.trace != 1) || !(a.seconds > 0))
    die("usage: e2e_ledger --workload NAME --seed N --seconds S "
        "--trace 0|1 --workdir DIR");
  return a;
}

struct Metric {
  std::string name, unit;
  double value;
};

class Ledger {
 public:
  Ledger(Args args, Instance w) : a_(std::move(args)), w_(std::move(w)) {
    tmp_ = a_.workdir + "/tmp";
    ::mkdir(a_.workdir.c_str(), 0755);
    ::mkdir(tmp_.c_str(), 0755);
  }

  int run() {
    const std::string load_start = first_line_of("/proc/loadavg");
    setup();
    measure();
    // The 1x1 baseline and the traced run feed only per-layer metrics.
    if (a_.trace) {
      for (int k = 0; k < kOneCoreRuns; ++k)
        one_core_s_.push_back(execute(program_argv(1, 1), nullptr).wall_s);
      traced();
    }
    self_checks();
    print_ledger();
    print_context(load_start);
    print_result();
    return correct() ? 0 : 1;
  }

 private:
  static constexpr int kSetups = 3;
  static constexpr int kOneCoreRuns = 3;
  static constexpr std::size_t kMinSamples = 3;

  // Layer timings per setup repetition.
  struct SetupSample {
    double parse_s, model_s, emit_s, compile_s, total_s;
  };

  /// The setup repetitions' sources and binaries live in rep<k>/ under
  /// the same file names, so all repetitions compile identical inputs.
  std::string rep_dir(int k) const {
    return a_.workdir + "/rep" + std::to_string(k);
  }
  std::string src_path(int k) const {
    return rep_dir(k) + "/" + w_.name + ".gen.cpp";
  }
  std::string bin_path(int k) const {
    return rep_dir(k) + "/" + w_.name + ".solver";
  }

  /// Each repetition parses, models and emits in this process, then starts
  /// its host compile and moves on, so the repetitions' compiles run
  /// concurrently, one per core.  On a 4-core host three concurrent
  /// compiles each took about 4% longer than one alone; running them one
  /// after another would triple the set-up share of every run.
  void setup() {
    const std::string text = w_.problem.spec.to_text();
    std::vector<Clock::time_point> started(kSetups), spawned(kSetups);
    std::map<pid_t, int> compiling;  // pid -> repetition
    setups_.assign(kSetups, SetupSample{});
    std::string first_src;
    for (int k = 0; k < kSetups; ++k) {
      ::mkdir(rep_dir(k).c_str(), 0755);
      SetupSample& s = setups_[static_cast<std::size_t>(k)];
      started[k] = Clock::now();
      spec::ProblemSpec parsed = spec::parse_spec(text);
      s.parse_s = seconds_since(started[k]);
      auto t = Clock::now();
      tiling::TilingModel model(std::move(parsed));
      s.model_s = seconds_since(t);
      t = Clock::now();
      const std::string src = codegen::generate_program(model, w_.gen);
      write_file(src_path(k), src);
      s.emit_s = seconds_since(t);
      spawned[k] = Clock::now();
      compiling[spawn(compile_argv(k), rep_dir(k) + "/compile.out",
                      rep_dir(k) + "/compile.err", tmp_)] = k;
      ++attempted_;
      if (k == 0)
        first_src = src;
      else if (src != first_src)
        check_failed("codegen emits different source on repeated calls");
      src_bytes_ = static_cast<long long>(src.size());
    }
    bool compiled = true;
    while (!compiling.empty()) {
      const Exec e = reap(-1);
      const auto it = compiling.find(e.pid);
      if (it == compiling.end()) continue;
      const int k = it->second;
      compiling.erase(it);
      SetupSample& s = setups_[static_cast<std::size_t>(k)];
      s.compile_s = std::chrono::duration<double>(e.ended - spawned[k]).count();
      s.total_s = std::chrono::duration<double>(e.ended - started[k]).count();
      if (!e.ok()) {
        std::fputs(read_file(rep_dir(k) + "/compile.err").c_str(), stderr);
        compiled = false;
      }
    }
    if (!compiled) die("host compile of the generated program failed");
    bin_ = bin_path(0);
    binary_bytes_ = file_bytes(bin_);
  }

  std::vector<std::string> compile_argv(int k) const {
    std::vector<std::string> argv{E2E_CXX};
    std::istringstream flags(E2E_GEN_FLAGS);
    for (std::string f; flags >> f;) argv.push_back(f);
    argv.insert(argv.end(),
                {"-I" E2E_SRC_DIR, src_path(k), E2E_LIB_RUNTIME,
                 E2E_LIB_MINIMPI, E2E_LIB_OBS, E2E_LIB_SUPPORT, "-lpthread",
                 "-o", bin_path(k)});
    return argv;
  }

  std::vector<std::string> program_argv(int ranks, int threads) const {
    std::vector<std::string> argv{bin_};
    for (Int p : w_.params) argv.push_back(std::to_string(p));
    argv.push_back("--ranks=" + std::to_string(ranks));
    argv.push_back("--threads=" + std::to_string(threads));
    return argv;
  }

  /// Runs the program, checks it against the oracle and the deterministic
  /// counts, and returns its measurements.  `at_shape`: the run uses the
  /// workload's ranks x threads (remote edges depend on the rank count).
  Exec execute(const std::vector<std::string>& argv, ProgramOutput* out_stats,
               bool at_shape = false) {
    const std::string out = a_.workdir + "/run.out";
    driver_rss_mb_ = std::max(driver_rss_mb_, self_rss_mb());
    const Exec e = run_child(argv, out, a_.workdir + "/run.err", tmp_);
    ++attempted_;
    const ProgramOutput p = parse_output(read_file(out), w_);
    std::string why;
    if (!e.ok())
      why = "nonzero exit";
    else if (!p.have_value || !p.have_stats)
      why = "missing RESULT/MAX or STATS line";
    else if (!same_value(p.value, oracle_))
      why = "value differs from the serial oracle";
    else if (p.total_work != w_.cells)
      why = "STATS total_work differs from the cell count";
    else if (tiles_ >= 0 && p.tiles != tiles_)
      why = "STATS tiles differs between runs";
    else if (at_shape && remote_ >= 0 && p.remote_edges != remote_)
      why = "STATS remote_edges differs between runs";
    if (!why.empty()) {
      ++failed_;
      std::fprintf(stderr, "e2e_ledger: FAILED execution (%s): %s\n",
                   why.c_str(), read_file(a_.workdir + "/run.err").c_str());
    } else {
      tiles_ = p.tiles;
      if (at_shape) remote_ = p.remote_edges;
    }
    if (out_stats) *out_stats = p;
    return e;
  }

  static bool same_value(double got, double want) {
    return std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want));
  }

  double run_serial() {
    const auto t0 = Clock::now();
    const double v = w_.serial();
    serial_s_.push_back(seconds_since(t0));
    if (v != oracle_) check_failed("serial oracle is not deterministic");
    return serial_s_.back();
  }

  void measure() {
    oracle_ = w_.serial();  // also warms the oracle's code and pages
    // One untimed warm-up execution: page cache, dynamic loader.
    execute(program_argv(w_.ranks, w_.threads), nullptr, true);
    // The window gives the program and the serial baseline about equal
    // time, alternating between them, so host drift within the window
    // lands on both sides of speedup_vs_serial.
    double prog_total = 0.0, serial_total = 0.0;
    const auto t0 = Clock::now();
    while (run_s_.size() < kMinSamples || serial_s_.size() < kMinSamples ||
           seconds_since(t0) < a_.seconds) {
      if (prog_total > serial_total) {
        serial_total += run_serial();
        continue;
      }
      ProgramOutput p;
      const Exec e = execute(program_argv(w_.ranks, w_.threads), &p, true);
      prog_total += e.wall_s;
      run_s_.push_back(e.wall_s);
      cpu_s_.push_back(e.cpu_s);
      rss_mb_.push_back(e.maxrss_mb);
      init_scan_s_.push_back(p.init_scan_s);
      peak_edges_.push_back(static_cast<double>(p.peak_edges));
      bytes_ = p.bytes;
    }
    measure_s_ = seconds_since(t0);
  }

  void traced() {
    const std::string report = a_.workdir + "/report.json";
    std::vector<std::string> argv = program_argv(w_.ranks, w_.threads);
    argv.push_back("--report=" + report);
    ProgramOutput p;
    const Exec e = execute(argv, &p, true);
    traced_wall_s_ = e.wall_s;
    traced_tiles_ = p.tiles;
    if (!e.ok()) return;
    const json::ValuePtr doc = json::parse(read_file(report));
    if (doc->at("schema").as_string() != "dpgen.report.v1")
      check_failed("report schema is not dpgen.report.v1");
    spans_dropped_ = doc->at("spans_dropped").as_number();
    const json::Value& cp = doc->at("critical_path");
    cp_length_ = cp.at("length").as_number();
    for (const auto& [k, v] : cp.at("attribution_seconds").fields)
      cp_phase_[k] = v->as_number();
    const json::Value& lb = doc->at("load_balance");
    predicted_imbalance_ = lb.at("predicted_imbalance").as_number();
    measured_imbalance_ = lb.at("measured_imbalance").as_number();
    for (const auto& r : lb.at("ranks").as_array()) {
      const double ts = r->at("thread_seconds").as_number();
      double sum = 0.0;
      for (const auto& [k, v] : r->at("phases_seconds").fields) {
        phase_s_[k] += v->as_number();
        sum += v->as_number();
      }
      thread_s_ += ts;
      report_tiles_ += static_cast<long long>(r->at("tiles").as_number());
      if (std::fabs(sum - ts) > 1e-3 * ts + 1e-6)
        check_failed("rank " + std::to_string(static_cast<int>(
                                   r->at("rank").as_number())) +
                     ": phases sum to " + std::to_string(sum) +
                     " s, thread_seconds is " + std::to_string(ts));
    }
  }

  void self_checks() {
    for (const SetupSample& s : setups_) {
      const double sum = s.parse_s + s.model_s + s.emit_s + s.compile_s;
      if (std::fabs(sum - s.total_s) > 0.05 * s.total_s)
        check_failed("setup layers sum to " + std::to_string(sum) +
                     " s, setup wall is " + std::to_string(s.total_s));
    }
    if (driver_rss_mb_ >= median(rss_mb_))
      check_failed("driver RSS " + std::to_string(driver_rss_mb_) +
                   " MB reaches the programs' peak; peak_rss_mb would "
                   "measure the driver");
    if (!a_.trace) return;
    if (traced_tiles_ != tiles_)
      check_failed("traced STATS tiles differs from the untraced runs");
    // With dropped spans the report sees only part of the run; its tile
    // count and phase split are then partial and reported as such.
    if (spans_dropped_ == 0 && report_tiles_ != tiles_)
      check_failed("report tiles " + std::to_string(report_tiles_) +
                   " != STATS tiles " + std::to_string(tiles_));
  }

  void check_failed(const std::string& what) {
    std::fprintf(stderr, "e2e_ledger: SELF-CHECK FAILED: %s\n", what.c_str());
    checks_ok_ = false;
  }

  bool correct() const { return failed_ == 0 && checks_ok_; }

  std::vector<double> setup_field(double SetupSample::*field) const {
    std::vector<double> v;
    for (const SetupSample& s : setups_) v.push_back(s.*field);
    return v;
  }
  double setup_median(double SetupSample::*field) const {
    return median(setup_field(field));
  }

  /// Seconds of a report bucket; absent buckets read 0.
  static double bucket(const std::map<std::string, double>& m, const char* k) {
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  }

  std::vector<Metric> end_to_end() const {
    const double run_s = median(run_s_);
    return {
        {"setup_s", "s", setup_median(&SetupSample::total_s)},
        {"run_s", "s", run_s},
        {"cpu_s", "s", median(cpu_s_)},
        {"peak_rss_mb", "MB", median(rss_mb_)},
        {"speedup_vs_serial", "x", median(serial_s_) / run_s},
    };
  }

  std::vector<Metric> per_layer() const {
    const double run_s = median(run_s_);
    const double one_core = median(one_core_s_);
    return {
        {"spec.parse_s", "s", setup_median(&SetupSample::parse_s)},
        {"tiling.model_s", "s", setup_median(&SetupSample::model_s)},
        {"codegen.emit_s", "s", setup_median(&SetupSample::emit_s)},
        {"codegen.src_bytes", "bytes", static_cast<double>(src_bytes_)},
        {"compile.host_s", "s", setup_median(&SetupSample::compile_s)},
        {"compile.binary_bytes", "bytes", static_cast<double>(binary_bytes_)},
        {"runtime.tiles", "count", static_cast<double>(tiles_)},
        {"runtime.init_scan_s", "s", median(init_scan_s_)},
        {"runtime.peak_edges", "count", median(peak_edges_)},
        {"minimpi.remote_edges", "count", static_cast<double>(remote_)},
        {"minimpi.bytes", "bytes", static_cast<double>(bytes_)},
        {"codegen.center_s", "s", bucket(phase_s_, "compute")},
        {"codegen.pack_s", "s", bucket(phase_s_, "pack")},
        {"codegen.unpack_s", "s", bucket(phase_s_, "unpack")},
        {"minimpi.send_s", "s", bucket(phase_s_, "send")},
        {"minimpi.blocked_send_s", "s", bucket(phase_s_, "blocked_send")},
        {"runtime.poll_s", "s", bucket(phase_s_, "poll")},
        {"runtime.idle_s", "s", bucket(phase_s_, "idle")},
        {"runtime.barrier_s", "s", bucket(phase_s_, "barrier")},
        {"runtime.other_s", "s", bucket(phase_s_, "other")},
        {"runtime.thread_s", "s", thread_s_},
        {"runtime.cp_length", "count", cp_length_},
        {"runtime.cp_compute_s", "s", bucket(cp_phase_, "compute")},
        {"runtime.cp_other_s", "s", bucket(cp_phase_, "other")},
        {"runtime.cp_idle_s", "s", bucket(cp_phase_, "idle")},
        {"tiling.predicted_imbalance", "ratio", predicted_imbalance_},
        {"runtime.measured_imbalance", "ratio", measured_imbalance_},
        {"obs.spans_dropped", "count", spans_dropped_},
        {"obs.trace_overhead_x", "x", traced_wall_s_ / run_s},
        {"baseline.serial_s", "s", median(serial_s_)},
        {"baseline.one_core_s", "s", one_core},
        {"scaling.efficiency_4c", "ratio", one_core / run_s / 4.0},
    };
  }

  void print_ledger() const {
    std::printf("ledger %s seed=%u ranks=%d threads=%d params=",
                w_.name.c_str(), a_.seed, w_.ranks, w_.threads);
    for (std::size_t i = 0; i < w_.params.size(); ++i)
      std::printf(i ? ",%lld" : "%lld", static_cast<long long>(w_.params[i]));
    std::printf(" cells=%lld tiles=%lld oracle=%.17g\n", w_.cells, tiles_,
                oracle_);
    std::printf("samples: setup %zu, untraced %zu and serial %zu over %.2f s "
                "measured, one_core %zu\n",
                setups_.size(), run_s_.size(), serial_s_.size(), measure_s_,
                one_core_s_.size());
    std::printf("  driver RSS at spawn at most %.1f MB\n", driver_rss_mb_);
    auto spread = [](const char* what, const std::vector<double>& v) {
      std::printf("  %-8s min %.4f  median %.4f  max %.4f s\n", what,
                  *std::min_element(v.begin(), v.end()), median(v),
                  *std::max_element(v.begin(), v.end()));
    };
    spread("setup", setup_field(&SetupSample::total_s));
    spread("run", run_s_);
    spread("serial", serial_s_);
    if (spans_dropped_ > 0)
      std::printf("PARTIAL trace: %.0f spans dropped (report tiles %lld of "
                  "%lld); the phase and critical-path figures cover only "
                  "the retained spans\n",
                  spans_dropped_, report_tiles_, tiles_);
    auto table = [](const char* group, const std::vector<Metric>& ms) {
      std::printf("-- %s\n", group);
      for (const Metric& m : ms)
        std::printf("%-28s %18.9g  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    };
    table("end_to_end", end_to_end());
    if (a_.trace) table("per_layer", per_layer());
  }

  void print_context(const std::string& load_start) const {
    std::string sha = "unknown";
    if (::access(E2E_ROOT_DIR "/.git", F_OK) == 0) {
      std::string s = command_line("git -C '" E2E_ROOT_DIR "' rev-parse HEAD");
      if (!s.empty()) sha = s;
    }
    std::printf(
        "CONTEXT {\"git_sha\": %s, \"nproc\": %ld, \"compiler\": %s, "
        "\"gen_flags\": %s, \"lib_build_type\": %s, "
        "\"perf_event_paranoid\": %s, \"loadavg_start\": %s, "
        "\"loadavg_end\": %s}\n",
        json::escaped(sha).c_str(), ::sysconf(_SC_NPROCESSORS_ONLN),
        json::escaped(command_line("'" E2E_CXX "' --version")).c_str(),
        json::escaped(E2E_GEN_FLAGS).c_str(),
        json::escaped(E2E_BUILD_TYPE).c_str(),
        json::escaped(first_line_of("/proc/sys/kernel/perf_event_paranoid"))
            .c_str(),
        json::escaped(load_start).c_str(),
        json::escaped(first_line_of("/proc/loadavg")).c_str());
  }

  void print_result() const {
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                correct() ? "true" : "false", attempted_, failed_);
    const auto metrics = a_.trace ? per_layer() : end_to_end();
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      double v = std::isfinite(m.value) ? m.value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
  }

  Args a_;
  Instance w_;
  std::string tmp_, bin_;
  int attempted_ = 0, failed_ = 0;
  bool checks_ok_ = true;
  double oracle_ = 0.0;
  std::vector<SetupSample> setups_;
  long long src_bytes_ = 0, binary_bytes_ = 0;
  long long tiles_ = -1, remote_ = -1, traced_tiles_ = -1, report_tiles_ = 0;
  unsigned long long bytes_ = 0;
  std::vector<double> run_s_, cpu_s_, rss_mb_, init_scan_s_, peak_edges_,
      one_core_s_, serial_s_;
  double driver_rss_mb_ = 0.0;
  double measure_s_ = 0.0, traced_wall_s_ = 0.0;
  double spans_dropped_ = 0.0, cp_length_ = 0.0, thread_s_ = 0.0;
  double predicted_imbalance_ = 0.0, measured_imbalance_ = 0.0;
  std::map<std::string, double> phase_s_, cp_phase_;
};

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold (glibc otherwise raises it after the first big
  // free) returns the oracle's large buffers to the OS, so the driver's
  // RSS, which every child's ru_maxrss includes, stays small.
  ::mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    Args args = parse_args(argc, argv);
    Instance w = make_instance(args.workload, args.seed);
    return Ledger(std::move(args), std::move(w)).run();
  } catch (const std::exception& e) {
    die(e.what());
  }
}
