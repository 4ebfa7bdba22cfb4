// hjbench: the hj_embed CLI as a child process. Daemon wraps
// `hj_embed serve` behind pipes (one request line in, one reply line
// out) and parses its replies and `stats` blocks; run_tool runs a
// one-shot subcommand such as `precompute`.
#pragma once

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"

extern char** environ;

namespace hjb {

/// Environment of this process with `overrides` ("KEY=value") replacing
/// or adding entries.
inline std::vector<std::string> child_env(
    const std::vector<std::string>& overrides) {
  std::vector<std::string> env;
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    bool replaced = false;
    for (const std::string& o : overrides)
      if (kv.compare(0, o.find('=') + 1, o, 0, o.find('=') + 1) == 0)
        replaced = true;
    if (!replaced) env.push_back(kv);
  }
  env.insert(env.end(), overrides.begin(), overrides.end());
  return env;
}

/// Spawn `argv` with stdin/stdout on pipes (when the fd pointers are
/// given) and stderr appended to `log_path`. Returns the pid.
inline pid_t spawn(const std::vector<std::string>& argv,
                   const std::vector<std::string>& env_overrides,
                   const std::string& log_path, int* to_child,
                   int* from_child) {
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (to_child && pipe2(in_pipe, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe failed");
  if (from_child && pipe2(out_pipe, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  if (to_child) posix_spawn_file_actions_adddup2(&fa, in_pipe[0], 0);
  else posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  if (from_child) posix_spawn_file_actions_adddup2(&fa, out_pipe[1], 1);
  else
    posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_addopen(&fa, 2, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> av;
  for (const std::string& a : argv) av.push_back(const_cast<char*>(a.c_str()));
  av.push_back(nullptr);
  const std::vector<std::string> env = child_env(env_overrides);
  std::vector<char*> ev;
  for (const std::string& e : env) ev.push_back(const_cast<char*>(e.c_str()));
  ev.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, av[0], &fa, nullptr, av.data(), ev.data());
  posix_spawn_file_actions_destroy(&fa);
  if (to_child) {
    close(in_pipe[0]);
    *to_child = in_pipe[1];
  }
  if (from_child) {
    close(out_pipe[1]);
    *from_child = out_pipe[0];
  }
  if (rc != 0)
    throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                             std::strerror(rc));
  return pid;
}

/// Run a one-shot command to completion; returns its exit status.
inline int run_tool(const std::vector<std::string>& argv,
                    const std::vector<std::string>& env_overrides,
                    const std::string& log_path) {
  const pid_t pid = spawn(argv, env_overrides, log_path, nullptr, nullptr);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

/// One parsed serve reply line.
struct ServeReply {
  enum Kind : unsigned char { Warm, Cold, Degraded, Shed, Error } kind = Error;
  u64 id = 0;
  std::string shape;
  u32 cube = 0, dil = 0, cong = 0;
  u64 wl = 0;
  u64 us = 0;  ///< the daemon's own latency: queue wait + handling
};

inline std::string field(const std::string& line, const char* key) {
  const std::string k = std::string(" ") + key + "=";
  std::size_t p = line.find(k);
  if (p == std::string::npos) return {};
  p += k.size();
  const std::size_t e = line.find(' ', p);
  return line.substr(p, e == std::string::npos ? std::string::npos : e - p);
}

inline std::optional<ServeReply> parse_reply(const std::string& line) {
  if (line.rfind("id=", 0) != 0) return std::nullopt;
  ServeReply r;
  r.id = std::strtoull(line.c_str() + 3, nullptr, 10);
  const std::string v = field(line, "verdict");
  if (v == "served-warm") r.kind = ServeReply::Warm;
  else if (v == "served-cold") r.kind = ServeReply::Cold;
  else if (v == "degraded") r.kind = ServeReply::Degraded;
  else if (v == "shed") r.kind = ServeReply::Shed;
  else r.kind = ServeReply::Error;
  if (r.kind <= ServeReply::Degraded) {
    r.shape = field(line, "shape");
    r.cube = static_cast<u32>(std::strtoul(field(line, "cube").c_str(), nullptr, 10));
    r.dil = static_cast<u32>(std::strtoul(field(line, "dil").c_str(), nullptr, 10));
    r.cong = static_cast<u32>(std::strtoul(field(line, "cong").c_str(), nullptr, 10));
    r.wl = std::strtoull(field(line, "wl").c_str(), nullptr, 10);
    r.us = std::strtoull(field(line, "us").c_str(), nullptr, 10);
  }
  return r;
}

/// The daemon's `stats` reply: counters plus per-phase quantiles.
struct ServeStatsLine {
  u64 requests = 0, warm = 0, cold = 0, shed = 0, errors = 0;
  struct Phase {
    u64 count = 0;
    double p50_us = 0, p99_us = 0, max_us = 0;
  };
  std::map<std::string, Phase> phase;
};

/// A running `hj_embed serve` child, driven from one thread.
class Daemon {
 public:
  Daemon(const std::string& hj_embed, const std::string& store,
         const std::string& log_path) {
    pid_ = spawn({hj_embed, "serve", store}, {"HJ_THREADS=1"}, log_path, &in_,
                 &out_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      finish();
    }
  }

  void send(const std::string& line) {
    std::string s = line;
    s.push_back('\n');
    const char* p = s.data();
    std::size_t left = s.size();
    while (left) {
      const ssize_t n = write(in_, p, left);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("serve daemon closed its input");
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  /// Next complete output line already read, if any.
  std::optional<std::string> buffered_line() {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) return std::nullopt;
    std::string line = buf_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    if (pos_ > (1u << 16)) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    return line;
  }

  /// Wait up to `timeout_ns` for output and read what is there; false at
  /// EOF or on error.
  bool fill(u64 timeout_ns) {
    pollfd p{out_, POLLIN, 0};
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000ull),
                      static_cast<long>(timeout_ns % 1'000'000'000ull)};
    const int r = ppoll(&p, 1, &ts, nullptr);
    if (r < 0) return errno == EINTR;
    if (r == 0) return true;
    char chunk[1 << 14];
    const ssize_t n = read(out_, chunk, sizeof chunk);
    if (n < 0) return errno == EINTR;
    if (n == 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  /// Next output line, spinning on a non-blocking poll so the reply is
  /// seen as soon as it is written; nullopt at EOF.
  std::optional<std::string> spin_line() {
    for (;;) {
      if (std::optional<std::string> l = buffered_line()) return l;
      if (!fill(0)) return std::nullopt;
    }
  }

  /// Next output line, waiting as long as it takes; nullopt at EOF.
  std::optional<std::string> read_line() {
    for (;;) {
      if (std::optional<std::string> l = buffered_line()) return l;
      if (!fill(1'000'000'000ull)) return std::nullopt;
    }
  }

  /// Parse the remaining lines of a stats block whose first line was
  /// `head` (the caller has already read it).
  ServeStatsLine read_stats(const std::string& head) {
    ServeStatsLine st;
    st.requests = std::strtoull(field(head, "requests").c_str(), nullptr, 10);
    st.warm = std::strtoull(field(head, "warm").c_str(), nullptr, 10);
    st.cold = std::strtoull(field(head, "cold").c_str(), nullptr, 10);
    st.shed = std::strtoull(field(head, "shed").c_str(), nullptr, 10);
    st.errors = std::strtoull(field(head, "errors").c_str(), nullptr, 10);
    for (int i = 0; i < 5; ++i) {
      const std::optional<std::string> l = read_line();
      if (!l || l->rfind("phase ", 0) != 0)
        throw std::runtime_error("malformed stats reply from serve daemon");
      const std::string name = l->substr(6, l->find(' ', 6) - 6);
      ServeStatsLine::Phase& ph = st.phase[name];
      ph.count = std::strtoull(field(*l, "count").c_str(), nullptr, 10);
      ph.p50_us = std::strtod(field(*l, "p50_us").c_str(), nullptr);
      ph.p99_us = std::strtod(field(*l, "p99_us").c_str(), nullptr);
      ph.max_us = std::strtod(field(*l, "max_us").c_str(), nullptr);
    }
    return st;
  }

  /// Send `stats` and read the reply synchronously (only when no request
  /// replies are pending).
  ServeStatsLine stats() {
    send("stats");
    for (;;) {
      const std::optional<std::string> l = read_line();
      if (!l) throw std::runtime_error("serve daemon exited");
      if (l->rfind("stats ", 0) == 0) return read_stats(*l);
    }
  }

  /// Kill the child; a blocked read_line() then sees EOF.
  void abort() {
    if (pid_ > 0) kill(pid_, SIGKILL);
  }

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] double peak_rss() const {
    return peak_rss_mb(std::to_string(pid_));
  }

  /// Close stdin, wait for a clean exit; returns the exit status.
  int finish() {
    if (in_ >= 0) close(in_);
    in_ = -1;
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    if (out_ >= 0) close(out_);
    out_ = -1;
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  }

 private:
  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

}  // namespace hjb
