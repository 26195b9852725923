// Child processes and /proc readings for the repo benchmark.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A server child (`ssm serve` / `ssm route`).  Its output goes to
/// `log_path`; the constructor returns once the child has logged its
/// "listening on ADDRESS" line.  The destructor stops it
/// (SIGTERM, then SIGKILL after a grace period) and reaps it; the child
/// also dies with the benchmark process (PR_SET_PDEATHSIG).
class Child {
 public:
  Child(std::vector<std::string> argv, std::string log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  Child(Child&&) = delete;
  Child& operator=(Child&&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& address() const noexcept {
    return address_;
  }
  [[nodiscard]] const std::vector<std::string>& argv() const noexcept {
    return argv_;
  }
  /// Stops and reaps the child; idempotent.
  void stop() noexcept;

 private:
  std::vector<std::string> argv_;
  std::string log_path_;
  pid_t pid_ = -1;
  std::string address_;
};

/// Restricts the calling thread, and every thread and child process it
/// creates afterwards, to the last CPU it may run on.  Returns that CPU.
int pin_to_one_cpu();

/// utime + stime of `pid` (0 = this process, all threads) in microseconds.
[[nodiscard]] double cpu_us(pid_t pid);

/// A numeric field of /proc/<pid>/status ("VmHWM:", "Threads:"); 0 when
/// missing.  `pid` 0 reads this process.
[[nodiscard]] std::uint64_t status_field(pid_t pid, const char* key);

/// The 1-minute load average.
[[nodiscard]] double loadavg1();

/// CPU time the hypervisor took from this machine's vCPUs since boot
/// (the `steal` column of /proc/stat), in seconds summed over vCPUs.
[[nodiscard]] double steal_seconds();

}  // namespace perfbench
