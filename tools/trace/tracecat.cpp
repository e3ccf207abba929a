// tracecat: convert a binary trace (obs::BinaryTraceSink, "CFTR", the only
// format a run writes) to JSONL, one TraceBuffer::write_jsonl line per
// event. It is the only producer of JSONL traces.
//
//   tracecat <trace.bin> [-o out.jsonl]     convert (default: stdout)
//   tracecat --count <trace.bin>            print the event count only
//   tracecat - ...                          read the binary trace from stdin

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/binary_trace.hpp"
#include "obs/trace.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--count] <trace.bin|-> [-o out.jsonl]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string output;
  bool count_only = false;
  bool have_input = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--count") {
      count_only = true;
    } else if (arg == "-o") {
      if (i + 1 >= argc) return usage(argv[0]);
      output = argv[++i];
    } else if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    } else if (!have_input) {
      input = arg;
      have_input = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_input) return usage(argv[0]);

  std::ifstream file;
  std::istream* in = &std::cin;
  if (input != "-") {
    file.open(input, std::ios::binary);
    if (!file.good()) {
      std::cerr << "tracecat: cannot open " << input << '\n';
      return 1;
    }
    in = &file;
  }

  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (!output.empty()) {
    out_file.open(output, std::ios::binary);
    if (!out_file.good()) {
      std::cerr << "tracecat: cannot open " << output << " for writing\n";
      return 1;
    }
    out = &out_file;
  }

  cloudfog::obs::BinaryTraceReader reader(*in);
  cloudfog::obs::TraceEvent event;
  std::uint64_t events = 0;
  while (reader.next(&event)) {
    ++events;
    if (!count_only) cloudfog::obs::TraceBuffer::write_jsonl(*out, event);
  }
  if (!reader.ok()) {
    std::cerr << "tracecat: " << reader.error() << '\n';
    return 1;
  }
  if (count_only) *out << events << '\n';
  out->flush();
  return out->good() ? 0 : 1;
}
