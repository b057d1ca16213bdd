#include "artifact/artifact.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/checksum.h"

namespace enw::artifact {

namespace {

// Little-endian scalar append/read. The format is defined little-endian so
// artifacts are portable; on the LE hosts this library targets these are
// straight memcpys the compiler collapses to loads/stores.
template <typename T>
void append_le(std::vector<std::byte>& out, T v) {
  static_assert(std::is_integral_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::byte>((static_cast<std::uint64_t>(v) >> (8 * i)) &
                                         0xFF));
  }
}

template <typename T>
T read_le(const std::byte* p) {
  static_assert(std::is_integral_v<T>);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return static_cast<T>(v);
}

std::size_t align_up(std::size_t n, std::size_t a) { return (n + a - 1) / a * a; }

[[noreturn]] void fail(ArtifactErrorCode code, const std::string& msg) {
  throw ArtifactError(code, msg);
}

// Bounded index cursor: every read checks the remaining byte budget so a
// corrupted length field turns into kBadIndex instead of a wild read.
struct Cursor {
  const std::byte* p;
  const std::byte* end;

  template <typename T>
  T scalar() {
    if (static_cast<std::size_t>(end - p) < sizeof(T)) {
      fail(ArtifactErrorCode::kBadIndex, "index record overruns index region");
    }
    T v = read_le<T>(p);
    p += sizeof(T);
    return v;
  }

  std::string string(std::size_t max_len = 4096) {
    const auto len = scalar<std::uint32_t>();
    if (len > max_len || static_cast<std::size_t>(end - p) < len) {
      fail(ArtifactErrorCode::kBadIndex, "index string overruns index region");
    }
    std::string s(reinterpret_cast<const char*>(p), len);
    p += len;
    return s;
  }
};

}  // namespace

const char* to_string(ArtifactErrorCode code) {
  switch (code) {
    case ArtifactErrorCode::kIo: return "io";
    case ArtifactErrorCode::kTruncated: return "truncated";
    case ArtifactErrorCode::kBadMagic: return "bad_magic";
    case ArtifactErrorCode::kFutureVersion: return "future_version";
    case ArtifactErrorCode::kChecksumMismatch: return "checksum_mismatch";
    case ArtifactErrorCode::kMisaligned: return "misaligned";
    case ArtifactErrorCode::kBadIndex: return "bad_index";
    case ArtifactErrorCode::kMissingTensor: return "missing_tensor";
    case ArtifactErrorCode::kBadShape: return "bad_shape";
    case ArtifactErrorCode::kWrongKind: return "wrong_kind";
  }
  return "unknown";
}

ArtifactError::ArtifactError(ArtifactErrorCode code, const std::string& message)
    : std::runtime_error(std::string("artifact error [") + to_string(code) +
                         "]: " + message),
      code_(code) {}

std::span<const float> TensorView::f32() const {
  if (dtype != DType::kF32) {
    fail(ArtifactErrorCode::kBadShape, "tensor is not f32");
  }
  return {reinterpret_cast<const float*>(data), static_cast<std::size_t>(rows * cols)};
}

std::span<const std::int8_t> TensorView::s8() const {
  if (dtype != DType::kS8) {
    fail(ArtifactErrorCode::kBadShape, "tensor is not s8");
  }
  return {reinterpret_cast<const std::int8_t*>(data), nbytes};
}

// ---------------------------------------------------------------------------
// Writer

void ArtifactWriter::add_f32(const std::string& name, const float* data,
                             std::uint64_t rows, std::uint64_t cols) {
  Staged s;
  s.name = name;
  s.dtype = DType::kF32;
  s.rows = rows;
  s.cols = cols;
  s.bytes.resize(static_cast<std::size_t>(rows * cols) * sizeof(float));
  std::memcpy(s.bytes.data(), data, s.bytes.size());
  tensors_.push_back(std::move(s));
}

void ArtifactWriter::add_s8(const std::string& name, const std::int8_t* data,
                            std::uint64_t nbytes) {
  Staged s;
  s.name = name;
  s.dtype = DType::kS8;
  s.rows = nbytes;
  s.cols = 1;
  s.bytes.resize(static_cast<std::size_t>(nbytes));
  std::memcpy(s.bytes.data(), data, s.bytes.size());
  tensors_.push_back(std::move(s));
}

void ArtifactWriter::add_meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, value);
}

void ArtifactWriter::add_meta_u64(const std::string& key, std::uint64_t value) {
  add_meta(key, std::to_string(value));
}

void ArtifactWriter::write(const std::string& path) const {
  // Assign blob offsets: blobs start at the first 64-byte boundary after the
  // index and each one starts on a 64-byte boundary (gaps zero-filled).
  std::vector<std::byte> index;
  std::vector<std::uint64_t> offsets(tensors_.size());

  // First pass with zero offsets just to learn the index size (offsets are
  // fixed-width so the size doesn't change when they're filled in).
  auto serialize_index = [&](std::vector<std::byte>& out) {
    out.clear();
    for (std::size_t i = 0; i < tensors_.size(); ++i) {
      const Staged& t = tensors_[i];
      append_le(out, static_cast<std::uint32_t>(t.name.size()));
      for (char c : t.name) out.push_back(static_cast<std::byte>(c));
      append_le(out, static_cast<std::uint32_t>(t.dtype));
      append_le(out, t.rows);
      append_le(out, t.cols);
      append_le(out, offsets[i]);
      append_le(out, static_cast<std::uint64_t>(t.bytes.size()));
    }
    for (const auto& [k, v] : meta_) {
      append_le(out, static_cast<std::uint32_t>(k.size()));
      for (char c : k) out.push_back(static_cast<std::byte>(c));
      append_le(out, static_cast<std::uint32_t>(v.size()));
      for (char c : v) out.push_back(static_cast<std::byte>(c));
    }
  };
  serialize_index(index);

  const std::uint64_t index_offset = kHeaderBytes;
  const std::uint64_t index_bytes = index.size();
  const std::uint64_t blob_offset = align_up(kHeaderBytes + index.size(), kBlobAlign);
  std::uint64_t off = blob_offset;
  for (std::size_t i = 0; i < tensors_.size(); ++i) {
    offsets[i] = off;
    off += align_up(tensors_[i].bytes.size(), kBlobAlign);
  }
  const std::uint64_t blob_bytes = off - blob_offset;
  const std::uint64_t file_bytes = blob_offset + blob_bytes;
  serialize_index(index);  // re-serialize with real offsets

  std::vector<std::byte> file(static_cast<std::size_t>(file_bytes), std::byte{0});
  std::memcpy(file.data(), kMagic, sizeof(kMagic));
  auto put = [&](std::size_t at, auto value) {
    std::vector<std::byte> tmp;
    append_le(tmp, value);
    std::memcpy(file.data() + at, tmp.data(), tmp.size());
  };
  put(8, kFormatVersion);
  put(12, model_kind_);
  // checksum at 16 filled below
  put(24, index_offset);
  put(32, index_bytes);
  put(40, blob_offset);
  put(48, blob_bytes);
  put(56, static_cast<std::uint32_t>(tensors_.size()));
  put(60, static_cast<std::uint32_t>(meta_.size()));
  std::memcpy(file.data() + kHeaderBytes, index.data(), index.size());
  for (std::size_t i = 0; i < tensors_.size(); ++i) {
    std::memcpy(file.data() + offsets[i], tensors_[i].bytes.data(),
                tensors_[i].bytes.size());
  }
  // CRC32 of everything after the checksum field itself.
  const std::uint32_t crc = core::crc32(file.data() + 24, file.size() - 24);
  put(16, static_cast<std::uint64_t>(crc));

  // Temp file beside the target + rename: readers either see the old file or
  // the complete new one, never a prefix.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) fail(ArtifactErrorCode::kIo, "cannot open " + tmp + " for writing");
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
    if (!out) fail(ArtifactErrorCode::kIo, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail(ArtifactErrorCode::kIo, "rename to " + path + " failed");
  }
}

// ---------------------------------------------------------------------------
// Reader

std::shared_ptr<const Artifact> Artifact::open(const std::string& path,
                                               LoadMode mode) {
  // Can't use make_shared with the private ctor; the two-step keeps all
  // validation inside parse() so a thrown ArtifactError leaves no artifact.
  std::shared_ptr<Artifact> a(new Artifact());
  a->mode_ = mode;
  a->parse(path);
  return a;
}

void Artifact::parse(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(ArtifactErrorCode::kIo, "cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(ArtifactErrorCode::kIo, "cannot stat " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (mode_ == LoadMode::kMap) {
    if (size_ == 0) {
      ::close(fd);
      fail(ArtifactErrorCode::kTruncated, path + ": empty file");
    }
    void* m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (m == MAP_FAILED) fail(ArtifactErrorCode::kIo, "mmap failed for " + path);
    map_ = m;
    base_ = static_cast<const std::byte*>(m);
  } else {
    owned_.resize(size_);
    std::size_t got = 0;
    while (got < size_) {
      const ssize_t n = ::read(fd, owned_.data() + got, size_ - got);
      if (n <= 0) {
        ::close(fd);
        fail(ArtifactErrorCode::kIo, "read failed for " + path);
      }
      got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    base_ = owned_.data();
  }

  if (size_ < kHeaderBytes) {
    fail(ArtifactErrorCode::kTruncated,
         path + ": " + std::to_string(size_) + " bytes, header needs 64");
  }
  if (std::memcmp(base_, kMagic, sizeof(kMagic)) != 0) {
    fail(ArtifactErrorCode::kBadMagic, path + ": not an ENWMODEL artifact");
  }
  format_version_ = read_le<std::uint32_t>(base_ + 8);
  if (format_version_ > kFormatVersion) {
    fail(ArtifactErrorCode::kFutureVersion,
         path + ": format v" + std::to_string(format_version_) +
             " newer than supported v" + std::to_string(kFormatVersion));
  }
  model_kind_ = read_le<std::uint32_t>(base_ + 12);
  checksum_ = static_cast<std::uint32_t>(read_le<std::uint64_t>(base_ + 16));
  const auto index_offset = read_le<std::uint64_t>(base_ + 24);
  const auto index_bytes = read_le<std::uint64_t>(base_ + 32);
  const auto blob_offset = read_le<std::uint64_t>(base_ + 40);
  const auto blob_bytes = read_le<std::uint64_t>(base_ + 48);
  const auto tensor_count = read_le<std::uint32_t>(base_ + 56);
  const auto meta_count = read_le<std::uint32_t>(base_ + 60);

  // Every sum and product of header or index fields is checked for u64
  // wrap before it bounds anything: a wrapped sum would pass the bounds
  // check it feeds.
  std::uint64_t blob_end = 0;
  std::uint64_t index_end = 0;
  if (__builtin_add_overflow(blob_offset, blob_bytes, &blob_end) ||
      __builtin_add_overflow(index_offset, index_bytes, &index_end)) {
    fail(ArtifactErrorCode::kBadIndex, path + ": region bounds overflow");
  }
  if (blob_end > size_) {
    fail(ArtifactErrorCode::kTruncated,
         path + ": header claims " + std::to_string(blob_end) +
             " bytes, file has " + std::to_string(size_));
  }
  if (index_offset != kHeaderBytes || index_end > size_ || blob_offset < index_end) {
    fail(ArtifactErrorCode::kBadIndex, path + ": inconsistent region layout");
  }
  if (blob_offset % kBlobAlign != 0) {
    fail(ArtifactErrorCode::kMisaligned, path + ": blob region not 64-byte aligned");
  }

  // Integrity before structure: verify the CRC over [24, end) so a corrupted
  // index is caught here with the *right* error instead of surfacing as an
  // arbitrary kBadIndex parse failure.
  const std::uint32_t crc = core::crc32(base_ + 24, size_ - 24);
  if (crc != checksum_) {
    fail(ArtifactErrorCode::kChecksumMismatch,
         path + ": stored crc32 does not match file contents");
  }

  Cursor cur{base_ + index_offset, base_ + index_offset + index_bytes};
  for (std::uint32_t i = 0; i < tensor_count; ++i) {
    const std::string name = cur.string();
    TensorRec rec{};
    const auto dtype = cur.scalar<std::uint32_t>();
    if (dtype > static_cast<std::uint32_t>(DType::kS8)) {
      fail(ArtifactErrorCode::kBadIndex, name + ": unknown dtype");
    }
    rec.dtype = static_cast<DType>(dtype);
    rec.rows = cur.scalar<std::uint64_t>();
    rec.cols = cur.scalar<std::uint64_t>();
    rec.offset = cur.scalar<std::uint64_t>();
    rec.nbytes = cur.scalar<std::uint64_t>();
    if (rec.offset % kBlobAlign != 0) {
      fail(ArtifactErrorCode::kMisaligned, name + ": blob offset not 64-byte aligned");
    }
    std::uint64_t rec_end = 0;
    if (__builtin_add_overflow(rec.offset, rec.nbytes, &rec_end) ||
        rec.offset < blob_offset || rec_end > blob_end) {
      fail(ArtifactErrorCode::kBadIndex, name + ": blob outside blob region");
    }
    const std::uint64_t elem = rec.dtype == DType::kF32 ? sizeof(float) : 1;
    std::uint64_t expect = 0;
    if (__builtin_mul_overflow(rec.rows, rec.cols, &expect) ||
        __builtin_mul_overflow(expect, elem, &expect)) {
      fail(ArtifactErrorCode::kBadIndex, name + ": shape overflows u64");
    }
    if (rec.nbytes != expect) {
      fail(ArtifactErrorCode::kBadIndex, name + ": shape/size mismatch");
    }
    if (!tensors_.emplace(name, rec).second) {
      fail(ArtifactErrorCode::kBadIndex, name + ": duplicate tensor name");
    }
  }
  for (std::uint32_t i = 0; i < meta_count; ++i) {
    std::string key = cur.string();
    std::string value = cur.string();
    if (!meta_.emplace(std::move(key), std::move(value)).second) {
      fail(ArtifactErrorCode::kBadIndex, "duplicate meta key");
    }
  }
}

Artifact::~Artifact() {
  if (map_ != nullptr) ::munmap(map_, size_);
}

bool Artifact::has_tensor(const std::string& name) const {
  return tensors_.count(name) != 0;
}

TensorView Artifact::tensor(const std::string& name) const {
  const auto it = tensors_.find(name);
  if (it == tensors_.end()) {
    fail(ArtifactErrorCode::kMissingTensor, "no tensor named '" + name + "'");
  }
  const TensorRec& r = it->second;
  return TensorView{r.dtype, r.rows, r.cols, base_ + r.offset,
                    static_cast<std::size_t>(r.nbytes)};
}

std::vector<std::string> Artifact::tensor_names() const {
  std::vector<std::string> names;
  names.reserve(tensors_.size());
  for (const auto& [name, rec] : tensors_) names.push_back(name);
  return names;
}

bool Artifact::has_meta(const std::string& key) const { return meta_.count(key) != 0; }

const std::string& Artifact::meta(const std::string& key) const {
  const auto it = meta_.find(key);
  if (it == meta_.end()) {
    fail(ArtifactErrorCode::kMissingTensor, "no meta key '" + key + "'");
  }
  return it->second;
}

std::uint64_t Artifact::meta_u64(const std::string& key) const {
  const std::string& v = meta(key);
  std::uint64_t out = 0;
  for (char c : v) {
    if (c < '0' || c > '9') {
      fail(ArtifactErrorCode::kBadIndex, "meta '" + key + "' is not a u64");
    }
    if (__builtin_mul_overflow(out, std::uint64_t{10}, &out) ||
        __builtin_add_overflow(out, static_cast<std::uint64_t>(c - '0'), &out)) {
      fail(ArtifactErrorCode::kBadIndex, "meta '" + key + "' overflows a u64");
    }
  }
  if (v.empty()) fail(ArtifactErrorCode::kBadIndex, "meta '" + key + "' is empty");
  return out;
}

}  // namespace enw::artifact
