#include "nn/serialize.hpp"

#include <fstream>

#include "util/error.hpp"
#include "util/fileio.hpp"

namespace lithogan::nn {

namespace {
constexpr std::uint32_t kMagic = 0x4c47414eu;  // "LGAN"
constexpr std::uint32_t kVersion = 1;
}  // namespace

void save_module(const Module& module, const std::string& arch_tag,
                 const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw util::IoError("cannot open for writing: " + path);
  util::write_u32(os, kMagic);
  util::write_u32(os, kVersion);
  util::write_string(os, arch_tag);
  module.save_state(os);
  if (!os) throw util::IoError("write failed: " + path);
}

namespace {
std::string read_header(std::istream& is, const std::string& path) {
  if (util::read_u32(is) != kMagic) {
    throw util::FormatError("not a lithogan checkpoint: " + path);
  }
  const std::uint32_t version = util::read_u32(is);
  if (version != kVersion) {
    throw util::FormatError("unsupported checkpoint version " + std::to_string(version));
  }
  return util::read_string(is);
}
}  // namespace

void load_module(Module& module, const std::string& arch_tag, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw util::IoError("cannot open for reading: " + path);
  const std::string saved_tag = read_header(is, path);
  if (saved_tag != arch_tag) {
    throw util::FormatError("architecture tag mismatch: checkpoint has '" + saved_tag +
                            "', expected '" + arch_tag + "'");
  }
  module.load_state(is);
}

}  // namespace lithogan::nn
