// serve-runs: a closed-loop NDJSON client on one connection (the pipes of
// a spawned `dtpm serve --executors 1`) keeping two requests in flight.
// Each request submits a smoke-capped `run` of a catalog {family, seed}
// scenario under dtpm or default+fan on the default reference-rk4 engine,
// so every request pays protocol parsing, config parsing and scenario
// generation, then the single-run path (run_experiment, no BatchRunner).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "harness.hpp"
#include "serve/protocol.hpp"
#include "sim/platform_registry.hpp"
#include "sim/scenario_catalog.hpp"
#include "util/diagnostics.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using dtpm::util::JsonObject;
using dtpm::util::JsonValue;

/// One executor: on the shared 4-vCPU development host, two executors plus
/// the request loop and the client drew 10-20 % CPU steal from the
/// hypervisor and swung from 784 to 1,220 requests/s between interleaved
/// runs, where one executor held 532-662.
constexpr unsigned kExecutors = 1;
/// Two callers per executor: an executor finishing a run finds the next one
/// queued, so throughput does not wait on the client's and the request
/// loop's wake-ups, which steal stretches by milliseconds.
constexpr std::size_t kInFlight = 2 * kExecutors;
constexpr std::uint64_t kScenarioSeeds = 8;
constexpr int kReplyTimeoutMs = 30000;
/// The closed loop runs this long before measuring: a fresh server's first
/// second carried most of the latency tail in measurements.
constexpr double kSettleSeconds = 2.0;

// --- The server process -----------------------------------------------------

/// A `dtpm serve` child talking NDJSON over its stdin/stdout. The
/// destructor kills and reaps a child that was not shut down.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, unsigned executors) {
    int to_child[2];
    int from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0) throw_errno("pipe");
    if (pipe2(from_child, O_CLOEXEC) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      throw_errno("pipe");
    }
    const std::string executors_arg = std::to_string(executors);
    pid_ = fork();
    if (pid_ < 0) throw_errno("fork");
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      const char* argv[] = {binary.c_str(), "serve",     "--executors",
                            executors_arg.c_str(), "--quiet", nullptr};
      execv(binary.c_str(), const_cast<char* const*>(argv));
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    in_ = to_child[1];
    out_ = from_child[0];
  }

  ~ServerProcess() {
    close_input();
    if (out_ >= 0) close(out_);
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  void send(std::string line) {
    line.push_back('\n');
    std::size_t done = 0;
    while (done < line.size()) {
      const ssize_t n = write(in_, line.data() + done, line.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw_errno("write to dtpm serve");
      done += std::size_t(n);
    }
  }

  /// The next reply line; throws when none arrives within the timeout.
  std::string read_line() {
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      pollfd pfd = {out_, POLLIN, 0};
      const int ready = poll(&pfd, 1, kReplyTimeoutMs);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) throw std::runtime_error("dtpm serve stopped replying");
      char chunk[65536];
      const ssize_t n = read(out_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("dtpm serve closed its output");
      buffer_.append(chunk, std::size_t(n));
    }
  }

  pid_t pid() const { return pid_; }

  /// Drains the server with a shutdown request; returns the "bye"
  /// telemetry.
  JsonValue shut_down() {
    send(R"({"op":"shutdown"})");
    JsonValue telemetry;
    for (;;) {
      const JsonValue reply = dtpm::util::json_parse(read_line());
      const JsonValue* kind = reply.find("reply");
      if (kind != nullptr && kind->as_string() == "bye") {
        telemetry = *reply.find("telemetry");
        break;
      }
    }
    close_input();
    int status = 0;
    const pid_t pid = pid_;
    pid_ = -1;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("dtpm serve did not exit cleanly");
    }
    return telemetry;
  }

 private:
  [[noreturn]] static void throw_errno(const char* what) {
    throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
  }
  void close_input() {
    if (in_ >= 0) close(in_);
    in_ = -1;
  }

  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  std::string buffer_;
};

// --- Requests ---------------------------------------------------------------

/// One distinct request: a catalog scenario under one policy.
struct RequestKey {
  std::string family;
  std::uint64_t seed;
  std::string policy;
};

/// Every family x seeds 1..8 x {dtpm, default+fan}, in a fixed order. The
/// workload seed shuffles the order they are sent in, not the set.
std::vector<RequestKey> request_keys() {
  std::vector<RequestKey> keys;
  for (const std::string& family :
       dtpm::sim::ScenarioCatalog::standard().family_names()) {
    for (std::uint64_t seed = 1; seed <= kScenarioSeeds; ++seed) {
      for (const char* policy : {"dtpm", "default+fan"}) {
        keys.push_back({family, seed, policy});
      }
    }
  }
  return keys;
}

std::vector<std::size_t> send_order(std::size_t count, std::uint64_t seed) {
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  dtpm::util::Rng rng(seed);
  for (std::size_t i = count; i > 1; --i) {
    std::swap(order[i - 1], order[std::size_t(rng.engine()() % i)]);
  }
  return order;
}

std::string request_line(const RequestKey& key, const std::string& job) {
  JsonValue scenario((JsonObject()));
  scenario.set("family", key.family);
  scenario.set("seed", key.seed);
  JsonValue run((JsonObject()));
  run.set("policy", key.policy);
  run.set("scenario", std::move(scenario));
  JsonValue request((JsonObject()));
  request.set("op", "submit");
  request.set("job", job);
  request.set("run", std::move(run));
  request.set("smoke", true);
  return dtpm::util::json_write(request, 0);
}

/// A run summary without its host time: the part that must reproduce.
JsonValue summary_digest(JsonValue summary) {
  summary.set("wall_time_s", JsonValue());
  return summary;
}

/// Client-side record of one answered request.
struct Answer {
  std::size_t key = 0;
  std::int64_t sent_ns = 0;
  std::int64_t ack_ns = 0;
  std::int64_t result_ns = 0;
  std::uint64_t control_steps = 0;
};

/// Drives the closed loop: keeps kInFlight requests outstanding, sending
/// keys in `order` (cycling), until `keep_sending` returns false; then
/// waits for the stragglers. Results are checked against the first answer
/// seen for their key.
class Client {
 public:
  /// Job ids are `job_prefix` plus a counter, unique per server.
  Client(ServerProcess& server, const std::vector<RequestKey>& keys,
         std::string job_prefix, Report& report)
      : server_(server), keys_(keys), job_prefix_(std::move(job_prefix)),
        report_(report), summaries_(keys.size()) {}

  /// Sends `order` cyclically while `keep_sending(sent_so_far)` holds.
  template <typename KeepSending>
  std::vector<Answer> run(const std::vector<std::size_t>& order,
                          KeepSending keep_sending) {
    std::vector<Answer> answers;
    std::map<std::string, Answer> in_flight;
    std::size_t sent = 0;
    auto send_next = [&] {
      const std::size_t key = order[sent % order.size()];
      const std::string job = job_prefix_ + std::to_string(next_job_++);
      Answer& a = in_flight[job];
      a.key = key;
      ++sent;
      const std::string line = request_line(keys_[key], job);
      a.sent_ns = now_ns();
      server_.send(line);
    };
    while (in_flight.size() < kInFlight && keep_sending(sent)) send_next();
    while (!in_flight.empty()) {
      const std::string line = server_.read_line();
      const std::int64_t t = now_ns();
      const JsonValue reply = dtpm::util::json_parse(line);
      const JsonValue* kind = reply.find("reply");
      const JsonValue* job = reply.find("job");
      if (kind == nullptr || job == nullptr) continue;
      const auto it = in_flight.find(job->as_string());
      if (it == in_flight.end()) continue;
      if (kind->as_string() == "ack") {
        it->second.ack_ns = t;
        continue;
      }
      if (kind->as_string() != "result" && kind->as_string() != "error") {
        continue;
      }
      ++report_.attempted;
      const JsonValue* run = reply.find("run");
      const JsonValue* state = reply.find("state");
      if (run == nullptr || state == nullptr ||
          state->as_string() != "done") {
        report_.fail_check("request " + job->as_string() + " failed: " + line);
      } else {
        it->second.result_ns = t;
        it->second.control_steps =
            std::uint64_t(run->find("control_steps")->as_number());
        accept(it->second.key, *run);
        answers.push_back(it->second);
      }
      in_flight.erase(it);
      if (keep_sending(sent)) send_next();
    }
    return answers;
  }

  /// The first summary the server returned for each key (null if never
  /// answered).
  const std::vector<JsonValue>& summaries() const { return summaries_; }

 private:
  void accept(std::size_t key, const JsonValue& summary) {
    JsonValue digest = summary_digest(summary);
    if (summaries_[key].is_null()) {
      summaries_[key] = std::move(digest);
    } else if (digest != summaries_[key]) {
      report_.fail_check("request key " + std::to_string(key) +
                         " answered differently on a repeat");
    }
  }

  ServerProcess& server_;
  const std::vector<RequestKey>& keys_;
  std::string job_prefix_;
  Report& report_;
  std::vector<JsonValue> summaries_;
  std::uint64_t next_job_ = 0;
};

/// Spawns the server and answers the warm-up: two requests per executor,
/// sent together, covering both policies. Returns the seconds it took.
double start_server(std::optional<ServerProcess>& server,
                    const Options& options,
                    const std::vector<RequestKey>& keys, Report& report) {
  const Clock::time_point t0 = Clock::now();
  server.emplace(options.dtpm_binary, kExecutors);
  Client warm(*server, keys, "warm-", report);
  const std::vector<std::size_t> order = {0, 1, 2, 3};
  warm.run(order, [](std::size_t sent) { return sent < 2 * kExecutors; });
  return seconds_since(t0);
}

// --- In-process replay -------------------------------------------------------

/// What Server::execute_run does for one request line, in this process,
/// with spans around the parse, the run and the reply encoding.
struct Replay {
  std::vector<dtpm::sim::BatchJob> jobs;
  std::vector<JsonValue> summaries;    ///< summary_digest per key
  std::vector<JsonValue> run_digests;  ///< run_digest per key
  std::vector<double> work_ns;         ///< parse + run + encode per key
  std::uint64_t control_steps = 0;
  std::uint64_t plant_substeps = 0;
};

Replay replay(const std::vector<RequestKey>& keys, dtpm::sim::RunPlan& plan,
              Tracer& tracer) {
  Replay out;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const Tracer::Scope request = tracer.span("serve.replay", k);
    const std::int64_t t0 = now_ns();
    std::optional<dtpm::serve::Request> parsed;
    {
      const Tracer::Scope s = tracer.span("serve.parse_request", k);
      dtpm::util::CollectingSink sink;
      parsed = dtpm::serve::parse_request(request_line(keys[k], "r"), sink);
    }
    if (!parsed || !parsed->run) {
      throw std::runtime_error("replay could not parse request " +
                               std::to_string(k));
    }
    dtpm::sim::BatchJob job;
    job.config = *parsed->run;
    if (parsed->smoke) dtpm::sim::apply_smoke_caps(job.config);
    job.config.record_trace = false;
    plan.cache_platform(dtpm::sim::resolved_platform(job.config));
    plan.cache_benchmark_for(job.config);
    // Calibration runs once per process: set-up, not request work.
    std::int64_t calibrate_ns = 0;
    if (dtpm::sim::needs_identified_model(job.config)) {
      const std::int64_t c0 = now_ns();
      {
        const Tracer::Scope s = tracer.span("sysid.calibrate", k);
        job.model = plan.cache_model_for(job.config);
      }
      calibrate_ns = now_ns() - c0;
    }
    const dtpm::sim::RunResult result = simulate(job, &plan, tracer, k);
    JsonValue summary;
    {
      const Tracer::Scope s = tracer.span("serve.reply_encode", k);
      summary = dtpm::serve::run_summary_json(result);
      JsonValue reply((JsonObject()));
      reply.set("reply", "result");
      reply.set("job", "r");
      reply.set("state", "done");
      reply.set("run", summary);
      dtpm::util::json_write(reply, 0);
    }
    out.work_ns.push_back(double(now_ns() - t0 - calibrate_ns));
    out.summaries.push_back(summary_digest(summary));
    out.run_digests.push_back(run_digest(result));
    out.control_steps += result.control_steps;
    out.plant_substeps += result.plant_substeps;
    out.jobs.push_back(std::move(job));
  }
  return out;
}

/// The output the reference pins: sums over the request set, in key order.
JsonValue set_digest(const std::vector<JsonValue>& summaries) {
  std::uint64_t steps = 0, completed = 0, runaway = 0;
  double energy = 0.0, violation = 0.0, exec = 0.0, peak = 0.0;
  for (const JsonValue& s : summaries) {
    if (s.is_null()) continue;
    steps += std::uint64_t(s.find("control_steps")->as_number());
    completed += s.find("completed")->as_bool() ? 1 : 0;
    runaway += s.find("runaway")->as_bool() ? 1 : 0;
    energy += s.find("platform_energy_j")->as_number();
    violation += s.find("violation_time_s")->as_number();
    exec += s.find("execution_time_s")->as_number();
    peak += s.find("peak_temp_c")->as_number();
  }
  JsonValue digest((JsonObject()));
  digest.set("requests", std::uint64_t(summaries.size()));
  digest.set("control_steps", steps);
  digest.set("completed", completed);
  digest.set("runaway", runaway);
  digest.set("platform_energy_j", energy);
  digest.set("violation_time_s", violation);
  digest.set("execution_time_s", exec);
  digest.set("peak_temp_c_sum", peak);
  return digest;
}

/// Every key was answered, and the server's answers equal the replay's.
void check_answers(const std::vector<JsonValue>& served, const Replay& local,
                   Report& report) {
  for (std::size_t k = 0; k < served.size(); ++k) {
    if (served[k].is_null()) {
      report.fail_check("request key " + std::to_string(k) +
                        " was never answered");
    } else if (served[k] != local.summaries[k]) {
      report.fail_check("request key " + std::to_string(k) +
                        ": dtpm serve and run_experiment disagree");
    }
  }
}

void provenance(Report& report) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  report.info("workers_requested", kExecutors);
  report.info("workers_effective", std::min(kExecutors, nproc));
  report.info("workers_clamped", kExecutors > nproc);
  report.info("in_flight", std::uint64_t(kInFlight));
}

Report measure(const Options& options) {
  Report report;
  const std::vector<RequestKey> keys = request_keys();
  std::optional<ServerProcess> server;
  report.metric("setup_s", start_server(server, options, keys, report), "s");
  if (options.setup_only) {
    server->shut_down();
    return report;
  }
  provenance(report);

  Client client(*server, keys, "r", report);
  const std::vector<std::size_t> order = send_order(keys.size(), options.seed);
  const Clock::time_point t_start = Clock::now();
  const std::vector<Answer> answers = client.run(order, [&](std::size_t) {
    return seconds_since(t_start) < kSettleSeconds + options.seconds;
  });
  const double server_rss_mb = peak_rss_mb(server->pid());
  const JsonValue telemetry = server->shut_down();
  server.reset();

  // Rates per one-second window of answers after the settle period (the
  // trailing partial window dropped), median over windows. Latency is
  // summarized per distinct request: the median over its repeats, whose
  // p50 and p99 over the request set are reported. The raw tail of single
  // answers on a shared host is set by host stalls, not by the program
  // (it swung from 1.8 to 5.9 ms between runs); it is recorded as info.
  const std::int64_t t0_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t_start.time_since_epoch())
          .count() +
      std::int64_t(kSettleSeconds * 1e9);
  const std::size_t windows =
      std::max<std::size_t>(1, std::size_t(options.seconds));
  std::vector<double> requests_per_s(windows, 0.0), steps_per_s(windows, 0.0);
  std::vector<std::vector<double>> key_ms(keys.size());
  std::vector<double> all_ms;
  for (const Answer& a : answers) {
    if (a.result_ns < t0_ns) continue;
    const std::size_t w = std::size_t((a.result_ns - t0_ns) / 1000000000);
    if (w >= windows) continue;
    requests_per_s[w] += 1.0;
    steps_per_s[w] += double(a.control_steps);
    key_ms[a.key].push_back(double(a.result_ns - a.sent_ns) * 1e-6);
    all_ms.push_back(key_ms[a.key].back());
  }
  std::vector<double> per_key_ms;
  std::size_t fewest = all_ms.size();
  for (const std::vector<double>& repeats : key_ms) {
    per_key_ms.push_back(median(repeats));
    fewest = std::min(fewest, repeats.size());
  }
  report.metric("steps_per_s", median(steps_per_s), "1/s");
  report.metric("devices_per_s", median(requests_per_s), "1/s");
  report.metric("requests_per_s", median(requests_per_s), "1/s");
  report.metric("latency_p50_ms", percentile(per_key_ms, 0.50), "ms");
  report.metric("latency_p99_ms", percentile(per_key_ms, 0.99), "ms");
  report.info("latency_samples", std::uint64_t(all_ms.size()));
  report.info("latency_repeats_per_request_min", std::uint64_t(fewest));
  report.info("single_answer_p99_ms", percentile(all_ms, 0.99));
  report.info("windows", std::uint64_t(windows));
  report.metric("peak_rss_mb", server_rss_mb, "MB");
  report.info("server_telemetry", telemetry);

  // Cross-path check: the in-process single-run path must give the same
  // summaries the server sent.
  Tracer off(false);
  dtpm::sim::RunPlan plan((dtpm::sim::ExperimentConfig()));
  const Replay local = replay(keys, plan, off);
  check_answers(client.summaries(), local, report);
  const JsonValue digest = set_digest(client.summaries());
  report.info("output", digest);
  check_reference(options, digest, report, /*seed_independent=*/true);
  report.report_success_rate();
  return report;
}

Report trace(const Options& options) {
  Report report;
  LayerSamples samples;
  Tracer tracer(true);
  {
    const Tracer::Scope s = tracer.span("sim.registry_init");
    dtpm::sim::PlatformRegistry::instance();
  }
  samples["sim.registry_init_ms"].push_back(
      tracer.totals("sim.registry_init").total_ns * 1e-6);
  tracer.clear();

  const std::vector<RequestKey> keys = request_keys();
  std::optional<ServerProcess> server;
  start_server(server, options, keys, report);
  provenance(report);
  Client client(*server, keys, "r", report);
  const std::vector<std::size_t> order = send_order(keys.size(), options.seed);

  const Clock::time_point t_settle = Clock::now();
  client.run(order, [&](std::size_t) {
    return seconds_since(t_settle) < kSettleSeconds;
  });
  // Alternate untraced and traced cycles over the request set; the traced
  // ones record a span per request and its admission (send to ack).
  std::vector<double> untraced_s, traced_s, coverage;
  std::vector<Answer> traced;
  const Clock::time_point t_measure = Clock::now();
  do {
    for (const bool traced_cycle : {false, true}) {
      const Clock::time_point t0 = Clock::now();
      std::vector<Answer> answers = client.run(
          order, [&](std::size_t sent) { return sent < order.size(); });
      const double wall = seconds_since(t0);
      if (!traced_cycle) {
        untraced_s.push_back(wall);
        continue;
      }
      traced_s.push_back(wall);
      Tracer cycle(true);
      for (const Answer& a : answers) {
        cycle.record("serve.request", a.sent_ns, a.result_ns, -1, a.key);
        cycle.record("serve.admit", a.sent_ns, a.ack_ns, cycle.last_index(),
                     a.key);
      }
      coverage.push_back(cycle.root_coverage_ns() * 1e-9 / wall);
      traced.insert(traced.end(), answers.begin(), answers.end());
    }
  } while (seconds_since(t_measure) < options.seconds);
  const JsonValue telemetry = server->shut_down();
  server.reset();

  // The in-process replay splits a request into parse, run and encode.
  dtpm::sim::RunPlan plan((dtpm::sim::ExperimentConfig()));
  const Replay local = replay(keys, plan, tracer);
  check_answers(client.summaries(), local, report);
  const double n = double(keys.size());
  samples["sysid.calibrate_ms"].push_back(
      tracer.totals("sysid.calibrate").total_ns * 1e-6);
  samples["serve.parse_request_us"].push_back(
      tracer.totals("serve.parse_request").total_ns * 1e-3 / n);
  samples["serve.reply_encode_us"].push_back(
      tracer.totals("serve.reply_encode").total_ns * 1e-3 / n);
  add_simulation_layers(tracer, keys.size(), samples);
  add_phase_layers(local.jobs, &plan, local.run_digests, report, samples);

  std::vector<double> admit_ms, overhead_ms;
  for (const Answer& a : traced) {
    admit_ms.push_back(double(a.ack_ns - a.sent_ns) * 1e-6);
    overhead_ms.push_back(
        (double(a.result_ns - a.sent_ns) - local.work_ns[a.key]) * 1e-6);
  }
  samples["serve.admit_ms"].push_back(median(admit_ms));
  samples["serve.overhead_ms"].push_back(median(overhead_ms));
  samples["serve.requests"].push_back(double(traced.size()));
  samples["serve.queue_high_water"].push_back(
      telemetry.find("queue_high_water")->as_number());
  samples["sim.control_steps"].push_back(double(local.control_steps));
  samples["sim.plant_substeps"].push_back(double(local.plant_substeps));
  samples["trace.coverage"].push_back(median(coverage));
  samples["trace.overhead"].push_back(median(traced_s) / median(untraced_s) -
                                      1.0);
  report_layers(report, samples);
  report.info("spans", tracer.summary_json());
  report.info("server_telemetry", telemetry);
  return report;
}

}  // namespace

Report run_serve_runs(const Options& options) {
  signal(SIGPIPE, SIG_IGN);  // a dead server fails a write, not the bench
  return options.trace ? trace(options) : measure(options);
}

}  // namespace perfbench
