// Replay driver for the fuzz harnesses, linked in place of libFuzzer.
//
// Runs LLVMFuzzerTestOneInput once per input file. Each argument is a
// file or a corpus directory (its regular files are replayed in name
// order, so a run is deterministic). A harness reports a bug by trapping,
// which kills the process; the driver itself fails when an argument
// cannot be read or the arguments name no input at all, so a mistyped
// corpus path cannot pass silently. The default build registers one
// ctest per corpus through this driver (fuzz/CMakeLists.txt).
//
//   ./build/fuzz/fuzz_parser fuzz/corpus

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const fs::path arg(argv[i]);
    std::error_code ec;
    if (!fs::is_directory(arg, ec)) {
      inputs.push_back(arg);
      continue;
    }
    std::vector<fs::path> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(arg, ec)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    inputs.insert(inputs.end(), files.begin(), files.end());
  }
  if (inputs.empty()) {
    std::cerr << "usage: " << argv[0] << " <file|corpus-dir>...\n";
    return 1;
  }
  for (const fs::path& input : inputs) {
    std::ifstream in(input, std::ios::binary);
    if (!in) {
      std::cerr << "cannot open " << input.string() << "\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                           bytes.size());
    std::cout << input.string() << ": ok\n";
  }
  return 0;
}
