#include "sampler.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <fcntl.h>
#include <link.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

Sampler* g_active = nullptr;

std::string demangle(const char* mangled) {
  int status = 0;
  char* out = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  if (status != 0 || out == nullptr) return mangled;
  std::string name(out);
  std::free(out);
  return name;
}

bool read_at(int fd, void* buf, std::size_t len, off_t off) {
  auto* p = static_cast<char*>(buf);
  while (len > 0) {
    const ssize_t n = ::pread(fd, p, len, off);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
    off += n;
  }
  return true;
}

/// Address at which the signal interrupted the process.
void* interrupted_pc(void* ucontext) {
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

}  // namespace

Symbolizer::Symbolizer() {
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* self) -> int {
        // The first object reported is the executable itself.
        auto* sym = static_cast<Symbolizer*>(self);
        sym->bias_ = info->dlpi_addr;
        for (int i = 0; i < info->dlpi_phnum; ++i) {
          const ElfW(Phdr)& ph = info->dlpi_phdr[i];
          if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X)) {
            const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
            sym->exec_ranges_.emplace_back(lo, lo + ph.p_memsz);
          }
        }
        return 1;
      },
      this);

  const int fd = ::open("/proc/self/exe", O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open /proc/self/exe");
  Elf64_Ehdr eh{};
  std::vector<Elf64_Shdr> sections;
  bool ok = read_at(fd, &eh, sizeof eh, 0) &&
            std::memcmp(eh.e_ident, ELFMAG, SELFMAG) == 0 &&
            eh.e_ident[EI_CLASS] == ELFCLASS64 &&
            eh.e_shentsize == sizeof(Elf64_Shdr);
  if (ok) {
    sections.resize(eh.e_shnum);
    ok = read_at(fd, sections.data(), sections.size() * sizeof(Elf64_Shdr),
                 static_cast<off_t>(eh.e_shoff));
  }
  const Elf64_Shdr* symtab = nullptr;
  for (const Elf64_Shdr& sh : sections) {
    if (sh.sh_type == SHT_SYMTAB) symtab = &sh;
  }
  if (ok && symtab != nullptr && symtab->sh_link < sections.size()) {
    const Elf64_Shdr& strtab = sections[symtab->sh_link];
    std::vector<Elf64_Sym> syms(symtab->sh_size / sizeof(Elf64_Sym));
    std::vector<char> strs(strtab.sh_size + 1, '\0');
    ok = read_at(fd, syms.data(), syms.size() * sizeof(Elf64_Sym),
                 static_cast<off_t>(symtab->sh_offset)) &&
         read_at(fd, strs.data(), strtab.sh_size,
                 static_cast<off_t>(strtab.sh_offset));
    for (const Elf64_Sym& s : syms) {
      if (!ok) break;
      if (ELF64_ST_TYPE(s.st_info) != STT_FUNC || s.st_value == 0 ||
          s.st_shndx == SHN_UNDEF || s.st_name >= strtab.sh_size) {
        continue;
      }
      symbols_.push_back({s.st_value, s.st_size, &strs[s.st_name]});
    }
  }
  ::close(fd);
  if (!ok || symbols_.empty()) {
    throw std::runtime_error("no ELF symbol table in the executable");
  }
  std::sort(symbols_.begin(), symbols_.end(),
            [](const Symbol& a, const Symbol& b) { return a.addr < b.addr; });
}

Frame Symbolizer::frame(std::uintptr_t pc) const {
  Frame f;
  for (const auto& [lo, hi] : exec_ranges_) {
    if (pc >= lo && pc < hi) f.in_program = true;
  }
  if (!f.in_program) {
    Dl_info info{};
    if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
        info.dli_sname != nullptr) {
      f.name = demangle(info.dli_sname);
    }
    return f;
  }
  const std::uintptr_t addr = pc - bias_;
  auto it = std::upper_bound(
      symbols_.begin(), symbols_.end(), addr,
      [](std::uintptr_t a, const Symbol& s) { return a < s.addr; });
  if (it == symbols_.begin()) return f;
  --it;
  if (addr < it->addr + std::max<std::uintptr_t>(it->size, 1)) {
    f.name = demangle(it->name.c_str());
  }
  return f;
}

Sampler::Sampler(std::size_t capacity)
    : capacity_(capacity),
      frames_(new void*[capacity * kMaxFrames]),
      depth_(new std::int32_t[capacity]) {}

Sampler::~Sampler() { stop(); }

void Sampler::on_sigprof(int, siginfo_t*, void* ucontext) {
  const int saved_errno = errno;
  Sampler* s = g_active;
  if (s != nullptr && s->count_ < s->capacity_) {
    void** out = &s->frames_[s->count_ * kMaxFrames];
    int n = backtrace(out, kMaxFrames);
    // Drop the handler's own frames (this function and the signal
    // trampoline): keep the stack from the interrupted address outward.
    const void* pc = interrupted_pc(ucontext);
    int first = std::min(2, n);
    for (int i = 0; i < n; ++i) {
      if (out[i] == pc) {
        first = i;
        break;
      }
    }
    std::memmove(out, out + first,
                 static_cast<std::size_t>(n - first) * sizeof(void*));
    s->depth_[s->count_] = n - first;
    s->count_ = s->count_ + 1;
  } else if (s != nullptr) {
    s->dropped_ = s->dropped_ + 1;
  }
  errno = saved_errno;
}

void Sampler::start(int period_us) {
  if (running_) return;
  // The first backtrace() loads libgcc's unwinder; do it outside the handler.
  void* warm[4];
  backtrace(warm, 4);
  count_ = 0;
  dropped_ = 0;
  g_active = this;
  struct sigaction sa {};
  sa.sa_sigaction = &Sampler::on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval tv{};
  tv.it_interval.tv_usec = period_us;
  tv.it_value.tv_usec = period_us;
  setitimer(ITIMER_PROF, &tv, nullptr);
  running_ = true;
}

void Sampler::stop() {
  if (!running_) return;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);
  g_active = nullptr;
  running_ = false;
}

LayerSamples Sampler::attribute(const Symbolizer& symbolizer) const {
  LayerSamples out;
  std::unordered_map<std::uintptr_t, Frame> cache;
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < count_; ++i) {
    frames.clear();
    void* const* stack = &frames_[i * kMaxFrames];
    for (int d = 0; d < depth_[i]; ++d) {
      // Outer frames hold return addresses; step back into the call.
      auto pc = reinterpret_cast<std::uintptr_t>(stack[d]);
      if (d > 0) pc -= 1;
      auto it = cache.find(pc);
      if (it == cache.end()) it = cache.emplace(pc, symbolizer.frame(pc)).first;
      frames.push_back(it->second);
    }
    const Attribution a = perfbench::attribute(frames);
    ++out.layer[static_cast<std::size_t>(a.layer)];
    if (a.runtime_lib) ++out.runtime_lib;
    ++out.total;
  }
  out.dropped = static_cast<std::int64_t>(dropped_);
  return out;
}

}  // namespace perfbench
