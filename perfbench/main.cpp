// End-to-end benchmark of the simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --workload NAME --scan FROM-TO
//
// Set-up (app factory, group set, profiling run and Algorithm 2 where
// groups are trace-derived) runs in this process. Every simulation then
// runs in its own forked child, one at a time, so that a child that
// aborts, crashes or hangs counts as one failed simulation and its peak
// resident memory is its own. Rounds of simulations repeat until the next
// round would end past --seconds.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs every simulation
// twice, untraced and then under the profiling-timer sampler, checks that
// the two agree on every modelled figure, and prints the per-layer
// metrics. --scan runs each fault/churn seed in the range once and lists
// the ones that fail. The last line of stdout is one JSON object.
#include <malloc.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <poll.h>
#include <signal.h>
#include <sys/personality.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "sampler.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kChildTimeout_s = 100.0;

/// Simulated figures of one simulation. A change that only speeds up the
/// simulator leaves every one of them identical.
struct Modelled {
  double exec_sim_s = 0;
  double coord_sim_s = 0;  ///< mean per-process coordination phase
  double ckpt_sim_s = 0;   ///< mean per-process checkpoint time
  double restart_sim_s = 0;
  double p99_sim_s = 0;
  double availability = 0;
  std::int64_t events = 0;
  std::int64_t ckpt_rounds = 0;
  std::int64_t logged_bytes = 0;
  std::int64_t resend_bytes = 0;
  std::int64_t restores_completed = 0;
  std::int64_t restores_aborted = 0;
  std::int64_t drains_started = 0;
  std::int64_t drains_completed = 0;
  std::int64_t reads_pfs = 0;
  std::int64_t bb_peak_bytes = 0;
  std::int64_t app_messages = 0;
  std::int64_t merges = 0;
  bool operator==(const Modelled&) const = default;
};

/// What a child sends back through its result pipe (plain bytes).
struct SimSummary {
  char error[256] = {};  ///< failed check, empty when all passed
  double span_s = 0;  ///< host span of exp::run_experiment (or a set-up)
  Modelled modelled;
  LayerSamples samples;  ///< traced children only
};
static_assert(std::is_trivially_copyable_v<SimSummary>);

/// One finished child.
struct Outcome {
  bool completed = false;  ///< exited 0 with a summary
  std::string failure;     ///< reason when !completed or a check failed
  SimSummary summary;
  double maxrss_mb = 0;
};

Modelled summarize(const gcr::exp::ExperimentResult& r) {
  Modelled m;
  m.exec_sim_s = r.exec_time_s;
  m.coord_sim_s = r.metrics.mean_phases().coordination;
  m.ckpt_sim_s = r.metrics.mean_ckpt_time_s();
  m.restart_sim_s = r.metrics.aggregate_restart_time_s();
  if (r.service) m.p99_sim_s = r.service->p99_latency_s;
  m.availability = r.availability;
  for (std::uint64_t e : r.shard_events) {
    m.events += static_cast<std::int64_t>(e);
  }
  m.ckpt_rounds = r.checkpoints_completed;
  m.logged_bytes = r.metrics.logged_bytes;
  m.resend_bytes = r.metrics.resend_bytes;
  m.restores_completed = r.recoveries_completed;
  m.restores_aborted = r.recoveries_aborted;
  m.drains_started = r.tier_stats.drains_started;
  m.drains_completed = r.tier_stats.drains_completed;
  m.reads_pfs = r.tier_stats.reads_pfs;
  m.bb_peak_bytes = r.tier_stats.bb_bytes_peak;
  m.app_messages = r.app_messages;
  m.merges = r.merges_installed;
  return m;
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGABRT: return "SIGABRT";
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGKILL: return "SIGKILL";
    default: return "signal";
  }
}

/// "SIGABRT: <message> (file:line)" from a GCR_CHECK report on stderr.
std::string abort_reason(int sig, const std::string& err) {
  std::string reason = signal_name(sig);
  const std::size_t at = err.find("GCR assertion failed: ");
  if (at == std::string::npos) return reason;
  std::vector<std::string> lines;
  std::size_t pos = at;
  while (lines.size() < 3 && pos < err.size()) {
    std::size_t end = err.find('\n', pos);
    if (end == std::string::npos) end = err.size();
    std::string line = err.substr(pos, end - pos);
    line.erase(0, line.find_first_not_of(' '));
    lines.push_back(line);
    pos = end + 1;
  }
  std::string where = lines.size() > 1 ? lines[1] : "";
  if (where.rfind("at ", 0) == 0) where = where.substr(3);
  const std::size_t slash = where.rfind('/');
  if (slash != std::string::npos) where = where.substr(slash + 1);
  const std::string message =
      lines.size() > 2 && !lines[2].empty() ? lines[2] : lines[0];
  return reason + ": " + message + " (" + where + ")";
}

/// Runs `body` in a forked child and collects its summary, exit status and
/// peak resident memory. Stops and reaps the child in every case.
Outcome run_child(const std::function<SimSummary()>& body) {
  int result_pipe[2];
  int err_pipe[2];
  if (pipe(result_pipe) != 0 || pipe(err_pipe) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(result_pipe[0]);
    close(err_pipe[0]);
    dup2(err_pipe[1], STDERR_FILENO);
    close(err_pipe[1]);
    const SimSummary s = body();
    const char* p = reinterpret_cast<const char*>(&s);
    std::size_t left = sizeof s;
    while (left > 0) {
      const ssize_t n = write(result_pipe[1], p, left);
      if (n <= 0) _exit(3);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(result_pipe[1]);
  close(err_pipe[1]);

  Outcome out;
  std::string bytes;
  std::string err;
  bool timed_out = false;
  const Clock::time_point t0 = Clock::now();
  pollfd fds[2] = {{result_pipe[0], POLLIN, 0}, {err_pipe[0], POLLIN, 0}};
  int open_fds = 2;
  while (open_fds > 0) {
    const double left = kChildTimeout_s - since(t0);
    if (left <= 0) {
      kill(pid, SIGKILL);
      timed_out = true;
      break;
    }
    const int ready = poll(fds, 2, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    for (pollfd& f : fds) {
      if (f.fd < 0 || (f.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      char buf[4096];
      const ssize_t n = read(f.fd, buf, sizeof buf);
      if (n > 0) {
        std::string& to = f.fd == result_pipe[0] ? bytes : err;
        to.append(buf, static_cast<std::size_t>(n));
        if (err.size() > (1 << 16)) err.erase(0, err.size() - (1 << 15));
      } else if (n == 0 || errno != EINTR) {
        close(f.fd);
        f.fd = -1;
        --open_fds;
      }
    }
  }
  for (pollfd& f : fds) {
    if (f.fd >= 0) close(f.fd);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  out.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (timed_out) {
    out.failure = "host timeout after " +
                  std::to_string(static_cast<int>(kChildTimeout_s)) + " s";
  } else if (WIFSIGNALED(status)) {
    out.failure = abort_reason(WTERMSIG(status), err);
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out.failure = "exit status " + std::to_string(WEXITSTATUS(status));
  } else if (bytes.size() != sizeof(SimSummary)) {
    out.failure = "truncated result";
  } else {
    std::memcpy(&out.summary, bytes.data(), sizeof(SimSummary));
    out.summary.error[sizeof out.summary.error - 1] = '\0';
    if (out.summary.error[0] != '\0') {
      out.failure = std::string("check: ") + out.summary.error;
    } else {
      out.completed = true;
    }
  }
  return out;
}

/// Child body: one simulation, optionally under the sampler.
SimSummary simulate(const Workload& w, const Inputs& in, const SimSpec& spec,
                    const Symbolizer* symbolizer) {
  const gcr::exp::ExperimentConfig cfg = make_config(w, in, spec);
  std::optional<Sampler> sampler;
  if (symbolizer != nullptr) sampler.emplace();
  SimSummary s;
  if (sampler) sampler->start();
  const Clock::time_point t0 = Clock::now();
  const gcr::exp::ExperimentResult r = gcr::exp::run_experiment(cfg);
  s.span_s = since(t0);
  if (sampler) {
    sampler->stop();
    s.samples = sampler->attribute(*symbolizer);
  }
  s.modelled = summarize(r);
  const std::string error = check_result(w, cfg, r);
  std::snprintf(s.error, sizeof s.error, "%s", error.c_str());
  return s;
}

struct RoundMean {
  double sum = 0;
  int n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double mean() const { return sum / n; }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The processor's brand string, from the CPUID instruction.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
  model.erase(model.find('\0') == std::string::npos ? model.size()
                                                     : model.find('\0'));
  model.erase(0, model.find_first_not_of(' '));
  return model;
#else
  return "unknown";
#endif
}

std::string git_describe() {
  const std::string repo = PERFBENCH_REPO_DIR;
  if (access((repo + "/.git").c_str(), F_OK) != 0) {
    return "none (not a git checkout)";
  }
  const std::string cmd =
      "git -C '" + repo + "' describe --always --dirty 2>/dev/null";
  std::string out;
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof buf, p)) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

void print_header(const std::string& run) {
  std::printf("# perfbench %s\n", run.c_str());
  std::printf("# host: nproc=%ld cpu=\"%s\" compiler=\"%s\" build=%s git=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              cpu_model().c_str(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, git_describe().c_str());
}

/// Accumulates one run's JSON metrics in insertion order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    items_.push_back("\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                     unit + "\"}");
  }
  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      s += (i ? ", " : "") + items_[i];
    }
    return s + "}";
  }

 private:
  std::vector<std::string> items_;
};

/// Attempted/failed books of one run, with reasons.
struct Books {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::map<std::string, int> reasons;  ///< "label: reason" -> count

  void record(const SimSpec& spec, const Outcome& o) {
    ++attempted;
    if (o.completed) return;
    ++failed;
    if (o.failure.rfind("check: ", 0) == 0) correct = false;
    ++reasons[sim_label(spec) + ": " + o.failure];
  }
  void print(const Workload& w) const {
    std::printf("workload %s: simulations attempted %lld, failed %lld\n",
                w.name, static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (const auto& [why, n] : reasons) {
      std::printf("  failed x%d  %s\n", n, why.c_str());
    }
  }
};

/// Sums the modelled figures of the first round's completed simulations.
struct RoundFigures {
  Modelled sum;
  double coord_sum = 0, ckpt_sum = 0, p99_sum = 0, avail_sum = 0;
  int completed = 0;

  void add(const Modelled& m) {
    sum.exec_sim_s += m.exec_sim_s;
    sum.restart_sim_s += m.restart_sim_s;
    sum.events += m.events;
    sum.ckpt_rounds += m.ckpt_rounds;
    sum.logged_bytes += m.logged_bytes;
    sum.resend_bytes += m.resend_bytes;
    sum.restores_completed += m.restores_completed;
    sum.restores_aborted += m.restores_aborted;
    sum.drains_started += m.drains_started;
    sum.drains_completed += m.drains_completed;
    sum.reads_pfs += m.reads_pfs;
    sum.bb_peak_bytes = std::max(sum.bb_peak_bytes, m.bb_peak_bytes);
    sum.app_messages += m.app_messages;
    sum.merges += m.merges;
    coord_sum += m.coord_sim_s;
    ckpt_sum += m.ckpt_sim_s;
    p99_sum += m.p99_sim_s;
    avail_sum += m.availability;
    ++completed;
  }

  void emit(Metrics& out) const {
    const double n = std::max(completed, 1);
    const std::int64_t restores = sum.restores_completed + sum.restores_aborted;
    auto count = [&](const char* name, std::int64_t v, const char* unit) {
      out.add(name, static_cast<double>(v), unit);
    };
    // A yield with nothing attempted wasted nothing.
    auto yield = [](std::int64_t done, std::int64_t base) {
      return base ? static_cast<double>(done) / static_cast<double>(base)
                  : 1.0;
    };
    count("sim.events", sum.events, "events");
    out.add("exec_sim_s", sum.exec_sim_s, "s");
    out.add("core.coord_sim_s", coord_sum / n, "s");
    out.add("core.ckpt_sim_s", ckpt_sum / n, "s");
    out.add("core.restart_sim_s", sum.restart_sim_s, "s");
    count("core.ckpt_rounds", sum.ckpt_rounds, "rounds");
    count("core.logged_bytes", sum.logged_bytes, "bytes");
    count("core.resend_bytes", sum.resend_bytes, "bytes");
    out.add("core.recovery_yield", yield(sum.restores_completed, restores),
            "ratio");
    count("core.restores", restores, "restores");
    out.add("ckpt.drain_yield",
            yield(sum.drains_completed, sum.drains_started), "ratio");
    count("ckpt.drains_started", sum.drains_started, "drains");
    count("ckpt.reads_pfs", sum.reads_pfs, "reads");
    count("ckpt.bb_peak_bytes", sum.bb_peak_bytes, "bytes");
    count("mpi.app_messages", sum.app_messages, "messages");
    out.add("service.p99_sim_s", p99_sum / n, "s");
    out.add("service.availability", avail_sum / n, "ratio");
    count("core.elastic.merges", sum.merges, "merges");
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int scan_from = 0, scan_to = -1;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n       perfbench --workload NAME "
               "--scan FROM-TO\nworkloads:",
               msg);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v);
      } else if (flag == "--scan") {
        const std::size_t dash = v.find('-');
        if (dash == std::string::npos) usage("--scan wants FROM-TO");
        a.scan_from = std::stoi(v.substr(0, dash));
        a.scan_to = std::stoi(v.substr(dash + 1));
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

int scan(const Workload& w, const Args& a) {
  const Inputs in = build_inputs(w, 1);
  std::vector<std::string> failing;
  for (const SimSpec& spec : specs_for_seeds(w, a.scan_from, a.scan_to)) {
    const Outcome o = run_child([&] { return simulate(w, in, spec, nullptr); });
    std::printf("%-20s %s\n", sim_label(spec).c_str(),
                o.completed ? "ok" : ("FAILED " + o.failure).c_str());
    if (!o.completed) failing.push_back(sim_label(spec));
  }
  std::printf("failing:");
  for (const std::string& f : failing) std::printf(" [%s]", f.c_str());
  std::printf("\n");
  return 0;
}

int run(const Workload& w, const Args& a) {
  Books books;
  Metrics metrics;
  std::optional<Symbolizer> symbolizer;
  if (a.trace) symbolizer.emplace();

  // Set-up: in several batches untraced (setup_s is the median of their
  // per-set-up means), once traced.
  Inputs in;
  std::vector<double> setup_s;
  LayerSamples setup_samples;
  double setup_span_s = 0;
  if (a.trace) {
    Sampler sampler;
    sampler.start();
    const Clock::time_point t0 = Clock::now();
    in = build_inputs(w, a.seed);
    setup_span_s = since(t0);
    sampler.stop();
    setup_samples = sampler.attribute(*symbolizer);
  } else {
    // Each batch runs in its own child, like the simulations, so that every
    // one lands on freshly placed memory; a batch keeps its set-ups alive
    // rather than reusing one block. Within one process, where the heap
    // happened to land decided a set-up's time for the whole run.
    for (int i = 0; i < w.setup_reps; ++i) {
      const Outcome o = run_child([&] {
        std::vector<Inputs> batch(static_cast<std::size_t>(w.setup_batch));
        SimSummary s;
        const Clock::time_point t0 = Clock::now();
        for (Inputs& b : batch) b = build_inputs(w, a.seed);
        s.span_s = since(t0) / w.setup_batch;
        return s;
      });
      if (o.completed) {
        setup_s.push_back(o.summary.span_s);
      } else {
        books.correct = false;
        std::printf("set-up failed: %s\n", o.failure.c_str());
      }
    }
    in = build_inputs(w, a.seed);
  }
  if (!in.error.empty()) {
    books.correct = false;
    std::printf("set-up check failed: %s\n", in.error.c_str());
  }
  // Return set-up garbage to the system so children start from a lean heap.
  malloc_trim(0);

  const std::vector<SimSpec> round = round_of(w, a.seed);
  // Mean host time of one simulation in each round, untraced and traced.
  // A round mixes simulations of different lengths, and the median of the
  // single times would fall between their clusters.
  std::vector<double> run_s, traced_run_s;
  double rank_s = 0, host_s = 0, peak_rss_mb = 0;
  std::int64_t events = 0;
  RoundFigures first_round;
  std::array<double, kNumLayers> layer_s{};
  double runtime_s = 0;
  std::int64_t samples = setup_samples.total, dropped = setup_samples.dropped;
  int rounds = 0;

  const Clock::time_point start = Clock::now();
  double last_round_s = 0;
  do {
    const Clock::time_point r0 = Clock::now();
    RoundMean untraced, traced;
    for (const SimSpec& spec : round) {
      Outcome o = run_child([&] { return simulate(w, in, spec, nullptr); });
      if (o.completed && a.trace) {
        const Outcome t = run_child(
            [&] { return simulate(w, in, spec, &*symbolizer); });
        if (!t.completed) {
          o = t;
        } else if (!(t.summary.modelled == o.summary.modelled)) {
          o.completed = false;
          o.failure = "check: traced run changed a modelled figure";
        } else {
          traced.add(t.summary.span_s);
          const LayerSamples& ls = t.summary.samples;
          const double share =
              ls.total ? t.summary.span_s / static_cast<double>(ls.total)
                       : 0;
          for (int l = 0; l < kNumLayers; ++l) {
            layer_s[l] += static_cast<double>(ls.layer[l]) * share;
          }
          runtime_s += static_cast<double>(ls.runtime_lib) * share;
          samples += ls.total;
          dropped += ls.dropped;
        }
      }
      books.record(spec, o);
      if (!o.completed) continue;
      const SimSummary& s = o.summary;
      untraced.add(s.span_s);
      rank_s += w.nranks * s.modelled.exec_sim_s;
      host_s += s.span_s;
      events += s.modelled.events;
      peak_rss_mb = std::max(peak_rss_mb, o.maxrss_mb);
      if (rounds == 0) first_round.add(s.modelled);
    }
    if (untraced.n > 0) run_s.push_back(untraced.mean());
    if (traced.n > 0) traced_run_s.push_back(traced.mean());
    ++rounds;
    last_round_s = since(r0);
  } while (since(start) + last_round_s <= a.seconds);

  books.print(w);
  if (run_s.empty()) books.correct = false;
  if (a.trace) {
    // Self time of one set-up plus one round: each process's samples are
    // shares of the host span they were taken in.
    const double setup_share =
        setup_samples.total
            ? setup_span_s / static_cast<double>(setup_samples.total)
            : 0;
    for (int l = 0; l < kNumLayers; ++l) {
      const double s =
          static_cast<double>(setup_samples.layer[l]) * setup_share +
          layer_s[l] / rounds;
      metrics.add(std::string(layer_name(static_cast<Layer>(l))) + ".self_s",
                  s, "s");
    }
    metrics.add("runtime_lib_s",
                static_cast<double>(setup_samples.runtime_lib) * setup_share +
                    runtime_s / rounds,
                "s");
    metrics.add("exp.profile_s", in.profile_s, "s");
    metrics.add("group.formation_s", in.formation_s, "s");
    metrics.add("tracing.overhead_s", median(traced_run_s) - median(run_s),
                "s");
    metrics.add("tracing.samples", static_cast<double>(samples), "samples");
    metrics.add("sim.events_per_s",
                host_s > 0 ? static_cast<double>(events) / host_s : 0,
                "events/s");
    first_round.emit(metrics);
    if (dropped > 0) {
      std::printf("warning: %lld samples dropped (buffer full)\n",
                  static_cast<long long>(dropped));
    }
  } else {
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("run_s", median(run_s), "s");
    metrics.add("sim_rate", host_s > 0 ? rank_s / host_s : 0, "rank_s/s");
    metrics.add("peak_rss_mb", peak_rss_mb, "MB");
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              books.correct ? "true" : "false",
              static_cast<long long>(books.attempted),
              static_cast<long long>(books.failed), metrics.json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Address-space randomization moves the heap and code from run to run,
  // and with them cache placement: set-up times alone differ by half
  // between two runs. Re-execute once without it (this process only).
  const int persona = personality(0xffffffff);
  const auto norandom = static_cast<unsigned long>(persona | ADDR_NO_RANDOMIZE);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(norandom) != -1) {
    execv("/proc/self/exe", argv);
  }
  const Args a = parse_args(argc, argv);
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) usage(("unknown workload '" + a.workload + "'").c_str());
  print_header("workload=" + a.workload + " seed=" + std::to_string(a.seed) +
               " seconds=" + std::to_string(a.seconds) +
               " trace=" + std::to_string(a.trace));
  return a.scan_to >= a.scan_from ? scan(*w, a) : run(*w, a);
}
