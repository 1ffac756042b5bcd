#pragma once

/// \file loadgen.h
/// \brief Load-generator plumbing the benchmark owns outright, so the
/// instrument stays fixed while the program under test changes: a seeded
/// PRNG, a blocking loopback line client, a small JSON reader for replies,
/// percentiles, /proc readers, and an in-memory span log.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ----- seeded PRNG ------------------------------------------------------------

/// SplitMix64. Every connection derives its own stream from the workload
/// seed, so one connection's sequence never depends on another's progress.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Normal() {
    const double u1 = std::max(Uniform(), 1e-300);
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * Uniform());
  }

 private:
  uint64_t state_;
};

/// Independent stream \p stream of workload seed \p seed.
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng mix(seed ^ (0xD1B54A32D192ED03ull * (stream + 1)));
  return mix.Next();
}

// ----- reply JSON -------------------------------------------------------------

/// A parsed JSON value (replies only; requests are formatted directly).
struct JVal {
  enum class Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JVal> arr;
  std::vector<std::pair<std::string, JVal>> obj;

  const JVal* Find(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  bool Bool(std::string_view key) const {
    const JVal* v = Find(key);
    return v != nullptr && v->kind == Kind::kBool && v->b;
  }
  std::string Str(std::string_view key) const {
    const JVal* v = Find(key);
    return v != nullptr && v->kind == Kind::kStr ? v->str : std::string();
  }
  double Num(std::string_view key, double fallback = 0.0) const {
    const JVal* v = Find(key);
    return v != nullptr && v->kind == Kind::kNum ? v->num : fallback;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : s_(text) {}

  bool Parse(JVal* out) {
    if (!Value(out, 0)) return false;
    Ws();
    return pos_ == s_.size();
  }

 private:
  void Ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Lit(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        c = s_[pos_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':  // keep non-ASCII escapes as a placeholder
            if (pos_ + 4 > s_.size()) return false;
            pos_ += 4;
            c = '?';
            break;
          default: break;  // \" \\ \/
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool Value(JVal* out, int depth) {
    if (depth > 64) return false;
    Ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      out->kind = JVal::Kind::kObj;
      ++pos_;
      Ws();
      if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
      for (;;) {
        Ws();
        std::pair<std::string, JVal> member;
        if (!String(&member.first)) return false;
        Ws();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        if (!Value(&member.second, depth + 1)) return false;
        out->obj.push_back(std::move(member));
        Ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') { ++pos_; continue; }
        if (s_[pos_] == '}') return ++pos_, true;
        return false;
      }
    }
    if (c == '[') {
      out->kind = JVal::Kind::kArr;
      ++pos_;
      Ws();
      if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
      for (;;) {
        out->arr.emplace_back();
        if (!Value(&out->arr.back(), depth + 1)) return false;
        Ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') { ++pos_; continue; }
        if (s_[pos_] == ']') return ++pos_, true;
        return false;
      }
    }
    if (c == '"') {
      out->kind = JVal::Kind::kStr;
      return String(&out->str);
    }
    if (Lit("true")) { out->kind = JVal::Kind::kBool; out->b = true; return true; }
    if (Lit("false")) { out->kind = JVal::Kind::kBool; return true; }
    if (Lit("null")) return true;
    // Numbers go through strtod, like the server's own parser, so a value
    // read here has exactly the bits the server computed.
    const std::string num(s_.substr(pos_, std::min<size_t>(64, s_.size() - pos_)));
    char* end = nullptr;
    out->num = std::strtod(num.c_str(), &end);
    if (end == num.c_str()) return false;
    out->kind = JVal::Kind::kNum;
    pos_ += static_cast<size_t>(end - num.c_str());
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

inline bool ParseJson(std::string_view text, JVal* out) {
  return JsonReader(text).Parse(out);
}

/// Shortest decimal that reads back as exactly \p v.
inline std::string FormatDouble(double v) {
  char buf[40];
  for (int precision = 12; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

// ----- loopback line client ---------------------------------------------------

/// One blocking connection: a request line out, one reply line back. It
/// never retries or reconnects; a broken connection is reported to the
/// caller, which counts it as a failure.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient() { Close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(uint16_t port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    return true;
  }

  bool RoundTrip(const std::string& line, std::string* reply) {
    if (fd_ < 0) return false;
    std::string out = line;
    out.push_back('\n');
    size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return Close(), false;
      off += static_cast<size_t>(n);
    }
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        reply->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return Close(), false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// ----- statistics -------------------------------------------------------------

/// Nearest-rank percentile (\p q in [0, 1]); 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Log-linear latency histogram with fixed memory: 1% relative bucket width
/// from 1 us to 100 s. Quantiles interpolate geometrically inside the bucket
/// that holds the rank, so they are continuous, within 1% of the exact
/// sample quantile.
class Histogram {
 public:
  void Add(double ms) {
    ++counts_[Index(ms)];
    ++total_;
  }
  void Merge(const Histogram& other) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  uint64_t total() const { return total_; }
  /// Nearest-rank quantile \p q in [0, 1]; 0 when empty.
  double Quantile(double q) const {
    if (total_ == 0) return 0.0;
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total_))));
    uint64_t below = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      if (below + counts_[i] >= rank) {
        if (i == 0) return kMinMs;
        const double within = (static_cast<double>(rank - below) - 0.5) / counts_[i];
        return kMinMs * std::pow(kGrowth, static_cast<double>(i - 1) + within);
      }
      below += counts_[i];
    }
    return kMinMs * std::pow(kGrowth, static_cast<double>(kBuckets));
  }

 private:
  static constexpr double kMinMs = 1e-3;
  static constexpr double kGrowth = 1.01;
  static constexpr size_t kBuckets = 1852;  // ln(1e8) / ln(1.01): up to 100 s

  static size_t Index(double ms) {
    if (!(ms > kMinMs)) return 0;
    const double i = std::floor(std::log(ms / kMinMs) / std::log(kGrowth));
    return std::min(kBuckets, 1 + static_cast<size_t>(i));
  }

  std::array<uint32_t, kBuckets + 1> counts_{};
  uint64_t total_ = 0;
};

// ----- /proc readers ----------------------------------------------------------

/// A "VmHWM"-style field of /proc/<pid>/status, in kB (0 when absent).
inline double ProcStatusKb(const std::string& pid, const std::string& field) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr);
    }
  }
  return 0.0;
}

/// Resets this process's peak RSS (VmHWM) to its current RSS.
inline void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

/// Pids whose parent is this process.
inline std::vector<std::string> ChildPids() {
  std::vector<std::string> out;
  const std::string self = std::to_string(::getpid());
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string pid = entry.path().filename().string();
    if (pid.empty() || pid.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream in("/proc/" + pid + "/stat");
    std::string stat;
    std::getline(in, stat);
    // Fields after the parenthesised command name: state, then ppid.
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 1));
    std::string state, ppid;
    if (rest >> state >> ppid && ppid == self) out.push_back(pid);
  }
  return out;
}

/// CPU seconds on \p clock (CLOCK_PROCESS_CPUTIME_ID, CLOCK_THREAD_CPUTIME_ID).
inline double CpuSeconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds the live threads of process \p pid have run so far, summed
/// from /proc/<pid>/task/*/schedstat (nanosecond resolution; the same clock
/// CLOCK_PROCESS_CPUTIME_ID reads for this process).
inline double TaskCpuSeconds(const std::string& pid) {
  double ns = 0;
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator("/proc/" + pid + "/task", ec)) {
    std::ifstream in(task.path() / "schedstat");
    double run_ns = 0;
    if (in >> run_ns) ns += run_ns;
  }
  return 1e-9 * ns;
}

/// Aggregate CPU ticks from /proc/stat: {steal, total}.
inline std::pair<uint64_t, uint64_t> CpuSteal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t total = 0, steal = 0, v = 0;
  for (int field = 0; field < 10 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

// ----- spans ------------------------------------------------------------------

/// One timed call into a layer. Spans of one request share \p request;
/// \p parent names the enclosing span ("" at the top).
struct Span {
  uint64_t request = 0;
  const char* name = "";
  const char* parent = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Writes spans as JSON lines.
inline bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"request\":%llu,\"name\":\"%s\",\"parent\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.request), s.name, s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
