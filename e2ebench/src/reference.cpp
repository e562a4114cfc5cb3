// Process plumbing shared by the workloads: the forked reference child, the
// serialization across its pipe, and the peak-RSS probe.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace e2e {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string num_to_string(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void Pack::put(const std::string& s) {
  bytes_ += std::to_string(s.size());
  bytes_ += ':';
  bytes_ += s;
}

void Pack::put(double v) { put(num_to_string(v)); }

std::string Unpack::str() {
  std::size_t colon = bytes_.find(':', pos_);
  if (colon == std::string::npos) throw std::runtime_error("truncated reference data");
  std::size_t len = std::stoul(bytes_.substr(pos_, colon - pos_));
  if (colon + 1 + len > bytes_.size()) throw std::runtime_error("truncated reference data");
  std::string out = bytes_.substr(colon + 1, len);
  pos_ = colon + 1 + len;
  return out;
}

double Unpack::num() { return std::stod(str()); }

std::string run_in_child(const std::function<std::string()>& compute) {
  std::fflush(nullptr);  // the child must not replay buffered output
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string out;
    try {
      out = compute();
    } catch (const std::exception& e) {
      out = e.what();
      code = 1;
    }
    std::size_t off = 0;
    while (off < out.size()) {
      ssize_t n = write(fds[1], out.data() + off, out.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(2);
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string data;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    data.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("reference computation failed: " + data);
  }
  return data;
}

}  // namespace e2e
