#include "src/io/checkpoint.hpp"

#include <cstring>
#include <fstream>

#include "src/io/atomic_file.hpp"
#include "src/util/crc32.hpp"

namespace subsonic {

namespace {

// Magic as little-endian u64: a 7-byte "SUBDMP2" / "SUBDMP3" tag naming
// the runtime dimension, then one version byte following the historical
// dim + version - 2 pattern ("SUBDMP2\x02" / "SUBDMP3\x03" are the v2
// dumps).  v3 adds the layout tag in the previously-reserved header word;
// the payload bytes are identical (logical-layout rows + CRC), so v2
// files restore unchanged.  v1 files (raw pitched storage) are rejected
// like any other non-checkpoint bytes.
constexpr std::uint64_t kMagic2Dv2 = 0x0232504d44425553ull;  // "SUBDMP2\x02"
constexpr std::uint64_t kMagic3Dv2 = 0x0333504d44425553ull;  // "SUBDMP3\x03"
constexpr std::uint64_t kMagic2Dv3 = 0x0332504d44425553ull;  // "SUBDMP2\x03"
constexpr std::uint64_t kMagic3Dv3 = 0x0433504d44425553ull;  // "SUBDMP3\x04"

bool magic_2d(std::uint64_t m) { return m == kMagic2Dv2 || m == kMagic2Dv3; }
bool magic_3d(std::uint64_t m) { return m == kMagic3Dv2 || m == kMagic3Dv3; }
int magic_version(std::uint64_t m) {
  return m == kMagic2Dv2 || m == kMagic3Dv2 ? 2 : 3;
}

struct Header {
  std::uint64_t magic = 0;
  std::int64_t step = 0;
  std::int32_t box[6] = {0, 0, 0, 0, 0, 0};  // x0 y0 z0 x1 y1 z1
  std::int32_t ghost = 0;
  std::int32_t method = 0;
  std::int32_t q = 0;
  std::int32_t nfields = 0;
  std::uint64_t payload_doubles = 0;  ///< exact doubles following the header
  std::uint32_t payload_crc = 0;      ///< CRC32 over those bytes
  std::uint32_t layout = 0;  ///< producing distribution layout (v3+; v2 = 0)
  double params[5] = {0, 0, 0, 0, 0};  // dt nu cs rho0 filter_eps
};

void fill_params(Header& h, const FluidParams& p) {
  h.params[0] = p.dt;
  h.params[1] = p.nu;
  h.params[2] = p.cs;
  h.params[3] = p.rho0;
  h.params[4] = p.filter_eps;
}

void check_params(const Header& h, const FluidParams& p) {
  SUBSONIC_REQUIRE_MSG(h.params[0] == p.dt && h.params[1] == p.nu &&
                           h.params[2] == p.cs && h.params[3] == p.rho0 &&
                           h.params[4] == p.filter_eps,
                       "checkpoint was taken with different parameters");
}

/// Doubles in the logical window (interior + ghost ring) of one of the
/// domain's fields — what each field contributes to the payload.
template <int Dim>
std::size_t window_doubles(const Domain<Dim>& d) {
  std::size_t n = 1;
  for (int e : extents_of(d.box()).sizes())
    n *= static_cast<std::size_t>(e + 2 * d.ghost());
  return n;
}

/// Appends the logical window of the domain's field `f` pencil by pencil
/// — pitch and alignment padding never reach the file.  serialize_domain
/// reserves the whole dump up front, so no append reallocates.
template <int Dim>
void append_field(std::vector<char>& buf, const Domain<Dim>& d,
                  const typename Domain<Dim>::Field& f) {
  const int g = d.ghost();
  const std::size_t row_bytes =
      static_cast<std::size_t>(d.nx() + 2 * g) * sizeof(double);
  d.for_each_pencil(g, [&](int y, int z) {
    const char* row = reinterpret_cast<const char*>(f.pencil(y, z) - g);
    buf.insert(buf.end(), row, row + row_bytes);
  });
}

/// An empty dump buffer with room for the header and `nfields` windows
/// of `window` doubles, the header already in place.
std::vector<char> start_dump(const Header& h, std::size_t window) {
  std::vector<char> buf;
  buf.reserve(sizeof(Header) +
              static_cast<std::size_t>(h.nfields) * window * sizeof(double));
  const char* raw = reinterpret_cast<const char*>(&h);
  buf.insert(buf.end(), raw, raw + sizeof h);
  return buf;
}

/// The inverse of append_field: fills `f`'s logical window from `src`
/// and returns the end of what it read.
template <int Dim>
const char* scatter_field(const char* src, const Domain<Dim>& d,
                          typename Domain<Dim>::Field& f) {
  const int g = d.ghost();
  const std::size_t row_bytes =
      static_cast<std::size_t>(d.nx() + 2 * g) * sizeof(double);
  d.for_each_pencil(g, [&](int y, int z) {
    std::memcpy(f.pencil(y, z) - g, src, row_bytes);
    src += row_bytes;
  });
  return src;
}

void seal(std::vector<char>& buf) {
  Header& h = *reinterpret_cast<Header*>(buf.data());
  h.payload_doubles = (buf.size() - sizeof(Header)) / sizeof(double);
  h.payload_crc =
      crc32(buf.data() + sizeof(Header), buf.size() - sizeof(Header));
}

/// Reads the whole file; returns false when it cannot be opened.
bool slurp(const std::string& path, std::vector<char>& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return false;
  const std::streamsize size = in.tellg();
  in.seekg(0);
  out.resize(static_cast<std::size_t>(size));
  if (size > 0) in.read(out.data(), size);
  return in.good();
}

/// File-level validation shared by restore and inspect: header present,
/// magic known, size exact, checksum intact.  Throws checkpoint_error
/// naming the path on any violation.
const Header& validate_file(const std::string& path,
                            const std::vector<char>& bytes) {
  if (bytes.size() < sizeof(Header))
    throw checkpoint_error("checkpoint file " + path +
                           " is truncated: no complete header");
  const Header& h = *reinterpret_cast<const Header*>(bytes.data());
  if (!magic_2d(h.magic) && !magic_3d(h.magic))
    throw checkpoint_error("file " + path +
                           " is not a subsonic v2/v3 checkpoint");
  // Divide rather than multiply: payload_doubles * 8 wraps for header
  // values of 2^61 and up, and could then match a short file.
  const std::size_t payload_bytes = bytes.size() - sizeof(Header);
  if (payload_bytes % sizeof(double) != 0 ||
      payload_bytes / sizeof(double) != h.payload_doubles)
    throw checkpoint_error(
        "checkpoint file " + path + " is truncated or padded: " +
        std::to_string(payload_bytes) + " payload bytes, header promises " +
        std::to_string(h.payload_doubles) + " doubles");
  if (crc32(bytes.data() + sizeof(Header), payload_bytes) != h.payload_crc)
    throw checkpoint_error("checkpoint file " + path +
                           " failed its CRC32 payload check (torn write "
                           "or corruption)");
  return h;
}

std::vector<char> load_and_validate(const std::string& path, int want_dim) {
  std::vector<char> bytes;
  if (!slurp(path, bytes))
    throw checkpoint_error("cannot read checkpoint file " + path);
  const Header& h = validate_file(path, bytes);
  if ((want_dim == 2) != magic_2d(h.magic))
    throw checkpoint_error("checkpoint file " + path +
                           " was written by the other-dimensional runtime");
  return bytes;
}

/// The CRC covers only the payload, so a header whose box was edited (or
/// taken from another run) still validates; its payload must hold exactly
/// `nfields` windows of the restoring domain before anything is scattered.
void check_payload(const std::string& path, const Header& h,
                   std::size_t window) {
  if (h.payload_doubles != static_cast<std::uint64_t>(h.nfields) * window)
    throw checkpoint_error(
        "checkpoint file " + path + " holds " +
        std::to_string(h.payload_doubles) + " payload doubles, but " +
        std::to_string(h.nfields) + " fields of its box need " +
        std::to_string(static_cast<std::uint64_t>(h.nfields) * window));
}

}  // namespace

template <int Dim>
std::vector<char> serialize_domain(const Domain<Dim>& d) {
  Header h;
  h.magic = Dim == 2 ? kMagic2Dv3 : kMagic3Dv3;
  h.layout = kLayoutSoaSlab;
  h.step = d.step();
  for (int a = 0; a < Dim; ++a) {
    h.box[a] = d.box().lo()[a];
    h.box[3 + a] = d.box().hi()[a];
  }
  h.ghost = d.ghost();
  h.method = static_cast<std::int32_t>(d.method());
  h.q = d.q();
  const std::vector<FieldId> ids = d.state_fields();
  h.nfields = static_cast<std::int32_t>(ids.size());
  fill_params(h, d.params());
  std::vector<char> buf = start_dump(h, window_doubles(d));
  for (FieldId id : ids) append_field(buf, d, d.field(id));
  seal(buf);
  return buf;
}

template <int Dim>
void save_domain(const Domain<Dim>& d, const std::string& path) {
  const std::vector<char> buf = serialize_domain(d);
  atomic_write_file(path, buf.data(), buf.size());
}

template <int Dim>
void restore_domain(Domain<Dim>& d, const std::string& path) {
  const std::vector<char> bytes = load_and_validate(path, Dim);
  const Header& h = *reinterpret_cast<const Header*>(bytes.data());
  SUBSONIC_REQUIRE_MSG(box_matches(h.box, d.box()),
                       "checkpoint belongs to a different subregion");
  SUBSONIC_REQUIRE(h.ghost == d.ghost());
  SUBSONIC_REQUIRE(h.method == static_cast<std::int32_t>(d.method()));
  SUBSONIC_REQUIRE(h.q == d.q());
  const std::vector<FieldId> ids = d.state_fields();
  SUBSONIC_REQUIRE(h.nfields == static_cast<std::int32_t>(ids.size()));
  check_params(h, d.params());
  check_payload(path, h, window_doubles(d));
  const char* src = bytes.data() + sizeof(Header);
  for (FieldId id : ids) src = scatter_field(src, d, d.field(id));
  SUBSONIC_CHECK(src == bytes.data() + bytes.size());
  d.set_step(h.step);
}

template std::vector<char> serialize_domain(const Domain<2>&);
template std::vector<char> serialize_domain(const Domain<3>&);
template void save_domain(const Domain<2>&, const std::string&);
template void save_domain(const Domain<3>&, const std::string&);
template void restore_domain(Domain<2>&, const std::string&);
template void restore_domain(Domain<3>&, const std::string&);

CheckpointInfo inspect_checkpoint(const std::string& path) {
  std::vector<char> bytes;
  if (!slurp(path, bytes))
    throw checkpoint_error("cannot read checkpoint file " + path);
  const Header& h = validate_file(path, bytes);
  CheckpointInfo info;
  info.dim = magic_2d(h.magic) ? 2 : 3;
  info.version = magic_version(h.magic);
  info.layout = static_cast<int>(h.layout);
  info.step = h.step;
  for (int i = 0; i < 6; ++i) info.box[i] = h.box[i];
  info.ghost = h.ghost;
  info.method = h.method;
  info.q = h.q;
  return info;
}

}  // namespace subsonic
