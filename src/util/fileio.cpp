#include "util/fileio.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace lithogan::util {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open for reading: " + path);
  std::ostringstream oss;
  oss << in.rdbuf();
  if (in.bad()) throw IoError("read failed: " + path);
  return oss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open for writing: " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) throw IoError("write failed: " + path);
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

void make_directories(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) throw IoError("cannot create directory " + path + ": " + ec.message());
}

namespace {
template <typename T>
void write_raw(std::ostream& os, T value) {
  // The library targets little-endian hosts; serialization is raw bytes.
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
  if (!os) throw IoError("binary write failed");
}

template <typename T>
T read_raw(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw FormatError("binary read failed (truncated stream)");
  return value;
}
}  // namespace

void write_u32(std::ostream& os, std::uint32_t value) { write_raw(os, value); }
void write_u64(std::ostream& os, std::uint64_t value) { write_raw(os, value); }
void write_f64(std::ostream& os, double value) { write_raw(os, value); }

void write_string(std::ostream& os, const std::string& value) {
  write_u64(os, value.size());
  os.write(value.data(), static_cast<std::streamsize>(value.size()));
  if (!os) throw IoError("binary write failed");
}

void write_f32_array(std::ostream& os, const float* data, std::size_t count) {
  os.write(reinterpret_cast<const char*>(data),
           static_cast<std::streamsize>(count * sizeof(float)));
  if (!os) throw IoError("binary write failed");
}

std::uint32_t read_u32(std::istream& is) { return read_raw<std::uint32_t>(is); }
std::uint64_t read_u64(std::istream& is) { return read_raw<std::uint64_t>(is); }
double read_f64(std::istream& is) { return read_raw<double>(is); }

std::string read_string(std::istream& is) {
  const std::uint64_t size = read_u64(is);
  if (size > (1ull << 32)) throw FormatError("string length implausibly large");
  std::string value(size, '\0');
  is.read(value.data(), static_cast<std::streamsize>(size));
  if (!is) throw FormatError("binary read failed (truncated string)");
  return value;
}

void read_f32_array(std::istream& is, float* data, std::size_t count) {
  is.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(count * sizeof(float)));
  if (!is) throw FormatError("binary read failed (truncated array)");
}

}  // namespace lithogan::util
