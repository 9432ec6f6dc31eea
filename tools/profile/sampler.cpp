// Sampling CPU profiler, loaded into a process with LD_PRELOAD (see
// profile.py next to this file).
//
// Every millisecond of the process's CPU time (ITIMER_PROF) the SIGPROF
// handler records the interrupted thread's call stack with backtrace().
// Unlike gprof, the stacks run through shared libraries, so time spent in
// malloc, free and the std::map node code is attributed to its callers.
// At exit the module writes the samples and /proc/self/maps to
// $AHEFT_SAMPLER_OUT.<pid>; without that variable it stays idle.
//
// Dump format, one record per line:
//   E <path of the executable>
//   M <a line of /proc/self/maps>
//   S <hex pc> <hex return address>...   innermost frame first
#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr int kMaxDepth = 64;
/// Frames backtrace() reports for the handler and the signal trampoline.
constexpr int kHandlerFrames = 2;
/// About four and a half minutes of CPU time at one sample per ms.
constexpr std::size_t kMaxSamples = std::size_t{1} << 18;

struct Sample {
  int depth;
  void* frames[kMaxDepth];
};

Sample* g_samples = nullptr;
std::atomic<std::size_t> g_next{0};

void on_sigprof(int /*signal*/) {
  const int saved_errno = errno;
  const std::size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) {
    Sample& sample = g_samples[slot];
    sample.depth = backtrace(sample.frames, kMaxDepth);
  }
  errno = saved_errno;
}

void set_timer(long usec) {
  itimerval timer{};
  timer.it_interval.tv_usec = usec;
  timer.it_value.tv_usec = usec;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((constructor)) void start_sampling() {
  if (std::getenv("AHEFT_SAMPLER_OUT") == nullptr) {
    return;
  }
  // Untouched pages cost no memory: only the samples taken are resident.
  void* buffer = mmap(nullptr, kMaxSamples * sizeof(Sample),
                      PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buffer == MAP_FAILED) {
    return;
  }
  g_samples = static_cast<Sample*>(buffer);
  // The first backtrace() loads the unwinder, which must not happen inside
  // the signal handler.
  void* warm[1];
  (void)backtrace(warm, 1);
  struct sigaction action {};
  action.sa_handler = on_sigprof;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  set_timer(1000);
}

__attribute__((destructor)) void dump_samples() {
  if (g_samples == nullptr) {
    return;
  }
  set_timer(0);
  signal(SIGPROF, SIG_IGN);
  char path[4096];
  std::snprintf(path, sizeof path, "%s.%d", std::getenv("AHEFT_SAMPLER_OUT"),
                static_cast<int>(getpid()));
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    return;
  }
  char exe[4096];
  const ssize_t length = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[length > 0 ? length : 0] = '\0';
  std::fprintf(out, "E %s\n", exe);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) {
      std::fprintf(out, "M %s", line);
    }
    std::fclose(maps);
  }
  const std::size_t taken = g_next.load() < kMaxSamples ? g_next.load()
                                                        : kMaxSamples;
  for (std::size_t i = 0; i < taken; ++i) {
    const Sample& sample = g_samples[i];
    if (sample.depth <= kHandlerFrames) {
      continue;
    }
    std::fputc('S', out);
    for (int f = kHandlerFrames; f < sample.depth; ++f) {
      std::fprintf(out, " %p", sample.frames[f]);
    }
    std::fputc('\n', out);
  }
  std::fclose(out);
}

}  // namespace
