#include "proc.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/types.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::string proc_path(pid_t pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

}  // namespace

Child::Child(std::vector<std::string> argv, std::string log_path)
    : argv_(std::move(argv)), log_path_(std::move(log_path)) {
  std::vector<char*> cargv;
  for (std::string& a : argv_) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  const int log_fd =
      ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw ssm::InvalidInput("cannot open " + log_path_);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log_fd);
    throw ssm::InvalidInput("fork failed");
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::close(log_fd);

  // Wait for the bound address to appear in the log.
  static constexpr char kMarker[] = "listening on ";
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (address_.empty()) {
    std::ifstream in(log_path_);
    std::stringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    const auto at = s.find(kMarker);
    if (at != std::string::npos) {
      const auto end = s.find('\n', at);
      if (end != std::string::npos) {
        address_ = s.substr(at + sizeof kMarker - 1,
                            end - (at + sizeof kMarker - 1));
        break;
      }
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw ssm::InvalidInput("child exited before listening: " + argv_[0] +
                              " (log " + log_path_ + ")");
    }
    if (Clock::now() > deadline) {
      stop();
      throw ssm::InvalidInput("child never reported its address: " +
                              log_path_);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Child::~Child() { stop(); }

void Child::stop() noexcept {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw ssm::InvalidInput("sched_getaffinity failed");
  }
  int cpu = CPU_SETSIZE - 1;
  while (cpu >= 0 && !CPU_ISSET(cpu, &allowed)) --cpu;
  if (cpu < 0) throw ssm::InvalidInput("no CPU to run on");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (::sched_setaffinity(0, sizeof one, &one) != 0) {
    throw ssm::InvalidInput("sched_setaffinity failed");
  }
  return cpu;
}

double cpu_us(pid_t pid) {
  std::ifstream in(proc_path(pid, "stat"));
  std::string text;
  std::getline(in, text);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return static_cast<double>(utime + stime) * 1e6 / tick;
}

std::uint64_t status_field(pid_t pid, const char* key) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0) {
      return std::strtoull(line.c_str() + klen, nullptr, 10);
    }
  }
  return 0;
}

double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long field = 0;
  unsigned long long steal = 0;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int i = 1; i <= 8 && in >> field; ++i) {
    if (i == 8) steal = field;
  }
  return static_cast<double>(steal) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double loadavg1() {
  std::ifstream in("/proc/loadavg");
  double v = 0.0;
  in >> v;
  return v;
}

}  // namespace perfbench
