#include "util/mem.hpp"

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#endif

namespace isomap {

std::size_t peak_rss_bytes() {
#if defined(__linux__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is in kilobytes on Linux.
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#else
  return 0;
#endif
}

std::size_t current_rss_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size_pages = 0;
  long long resident_pages = 0;
  const int matched =
      std::fscanf(f, "%lld %lld", &size_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2 || resident_pages < 0) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<std::size_t>(resident_pages) *
         static_cast<std::size_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

}  // namespace isomap
