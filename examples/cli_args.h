// Command-line plumbing shared by the example binaries (dapsp_cli,
// dapsp_service, query_server): checked number parsing and the
// trace/metrics output files, whose format follows the file suffix.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include "congest/trace.h"
#include "util/metrics.h"

// Prints the binary's usage text and exits 2; each binary defines it.
[[noreturn]] void usage();

// The whole of `text` as a T. Trailing junk, a sign on an unsigned type and
// values outside T's range are usage errors, never wrapped or truncated.
template <class T>
T parse_num(const std::string& text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || p != end) usage();
  return v;
}

// "a<sep>b" as two checked numbers.
template <class A, class B>
std::pair<A, B> parse_pair(const std::string& text, char sep) {
  const std::size_t at = text.find(sep);
  if (at == std::string::npos) usage();
  return {parse_num<A>(text.substr(0, at)), parse_num<B>(text.substr(at + 1))};
}

inline bool has_suffix(const std::string& s, const char* suffix) {
  const std::size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

inline std::ofstream open_or_die(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  return out;
}

// .jsonl or .csv by suffix, else a Chrome trace.
inline void write_trace_file(const dapsp::congest::TraceLog& trace,
                             const std::string& path) {
  std::ofstream out = open_or_die(path);
  if (has_suffix(path, ".jsonl")) {
    trace.write_jsonl(out);
  } else if (has_suffix(path, ".csv")) {
    trace.write_csv(out);
  } else {
    trace.write_chrome_json(out);
  }
  std::fprintf(stderr, "trace: %zu events -> %s\n", trace.size(),
               path.c_str());
}

// .csv by suffix, else JSON.
inline void write_metrics_file(const dapsp::MetricsRegistry& reg,
                               const std::string& path) {
  std::ofstream out = open_or_die(path);
  if (has_suffix(path, ".csv")) {
    reg.write_csv(out);
  } else {
    reg.write_json(out);
  }
  std::fprintf(stderr, "metrics -> %s\n", path.c_str());
}
