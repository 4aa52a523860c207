#include "src/runtime/cohort_spec.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "src/io/atomic_file.hpp"

namespace subsonic::cohort {

namespace {

constexpr std::uint32_t kMagic = 0x53425350u;  // "SBSP"
constexpr std::uint32_t kVersion = 2;

void put_u32(std::vector<char>& out, std::uint32_t v) {
  const char* p = reinterpret_cast<const char*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

void put_i32(std::vector<char>& out, std::int32_t v) {
  const char* p = reinterpret_cast<const char*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

void put_f64(std::vector<char>& out, double v) {
  const char* p = reinterpret_cast<const char*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

struct Reader {
  const char* p;
  const char* end;

  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end - p) < n)
      throw std::runtime_error("cohort spec truncated");
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    return v;
  }
  std::int32_t i32() {
    need(4);
    std::int32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    return v;
  }
  double f64() {
    need(8);
    double v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  }
  char byte() {
    need(1);
    return *p++;
  }
};

}  // namespace

std::vector<char> serialize_cohort_spec(const CohortSpec& spec) {
  std::vector<char> out;
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_i32(out, spec.dim);
  put_i32(out, static_cast<std::int32_t>(spec.method));
  put_i32(out, spec.block_side);
  put_i32(out, spec.grid.jx);
  put_i32(out, spec.grid.jy);
  put_i32(out, spec.grid.jz);
  put_f64(out, spec.params.dx);
  put_f64(out, spec.params.dt);
  put_f64(out, spec.params.cs);
  put_f64(out, spec.params.nu);
  put_f64(out, spec.params.rho0);
  put_f64(out, spec.params.force_x);
  put_f64(out, spec.params.force_y);
  put_f64(out, spec.params.force_z);
  put_f64(out, spec.params.inlet_vx);
  put_f64(out, spec.params.inlet_vy);
  put_f64(out, spec.params.inlet_vz);
  put_f64(out, spec.params.filter_eps);
  put_i32(out, spec.params.periodic_x ? 1 : 0);
  put_i32(out, spec.params.periodic_y ? 1 : 0);
  put_i32(out, spec.params.periodic_z ? 1 : 0);
  // The mask, ghost padding included: ghost rings carry the wall/open
  // geometry the stencils interrogate, so they must round-trip exactly.
  if (spec.dim == 2) {
    const Extents2 e = spec.mask2.extents();
    const int g = spec.mask2.ghost();
    put_i32(out, e.nx);
    put_i32(out, e.ny);
    put_i32(out, 0);
    put_i32(out, g);
    for (int y = -g; y < e.ny + g; ++y)
      for (int x = -g; x < e.nx + g; ++x)
        out.push_back(static_cast<char>(spec.mask2(x, y)));
  } else {
    const Extents3 e = spec.mask3.extents();
    const int g = spec.mask3.ghost();
    put_i32(out, e.nx);
    put_i32(out, e.ny);
    put_i32(out, e.nz);
    put_i32(out, g);
    for (int z = -g; z < e.nz + g; ++z)
      for (int y = -g; y < e.ny + g; ++y)
        for (int x = -g; x < e.nx + g; ++x)
          out.push_back(static_cast<char>(spec.mask3(x, y, z)));
  }
  put_u32(out, static_cast<std::uint32_t>(spec.owner.size()));
  for (int rank : spec.owner) put_i32(out, rank);
  return out;
}

CohortSpec deserialize_cohort_spec(const char* data, std::size_t len) {
  Reader r{data, data + len};
  if (r.u32() != kMagic) throw std::runtime_error("cohort spec: bad magic");
  if (r.u32() != kVersion)
    throw std::runtime_error("cohort spec: unsupported version");
  CohortSpec spec;
  spec.dim = r.i32();
  if (spec.dim != 2 && spec.dim != 3)
    throw std::runtime_error("cohort spec: bad dimension");
  spec.method = static_cast<Method>(r.i32());
  spec.block_side = r.i32();
  spec.grid.jx = r.i32();
  spec.grid.jy = r.i32();
  spec.grid.jz = r.i32();
  spec.params.dx = r.f64();
  spec.params.dt = r.f64();
  spec.params.cs = r.f64();
  spec.params.nu = r.f64();
  spec.params.rho0 = r.f64();
  spec.params.force_x = r.f64();
  spec.params.force_y = r.f64();
  spec.params.force_z = r.f64();
  spec.params.inlet_vx = r.f64();
  spec.params.inlet_vy = r.f64();
  spec.params.inlet_vz = r.f64();
  spec.params.filter_eps = r.f64();
  spec.params.periodic_x = r.i32() != 0;
  spec.params.periodic_y = r.i32() != 0;
  spec.params.periodic_z = r.i32() != 0;
  const int nx = r.i32();
  const int ny = r.i32();
  const int nz = r.i32();
  const int ghost = r.i32();
  if (nx <= 0 || ny <= 0 || ghost < 0)
    throw std::runtime_error("cohort spec: bad mask geometry");
  if (spec.dim == 2) {
    spec.mask2 = Mask2D(Extents2{nx, ny}, ghost);
    for (int y = -ghost; y < ny + ghost; ++y)
      for (int x = -ghost; x < nx + ghost; ++x)
        spec.mask2.set(x, y, static_cast<NodeType>(r.byte()));
  } else {
    if (nz <= 0) throw std::runtime_error("cohort spec: bad mask geometry");
    spec.mask3 = Mask3D(Extents3{nx, ny, nz}, ghost);
    for (int z = -ghost; z < nz + ghost; ++z)
      for (int y = -ghost; y < ny + ghost; ++y)
        for (int x = -ghost; x < nx + ghost; ++x)
          spec.mask3.set(x, y, z, static_cast<NodeType>(r.byte()));
  }
  const std::uint32_t owners = r.u32();
  spec.owner.reserve(owners);
  for (std::uint32_t i = 0; i < owners; ++i) spec.owner.push_back(r.i32());
  return spec;
}

void write_cohort_spec(const std::string& path, const CohortSpec& spec) {
  const std::vector<char> bytes = serialize_cohort_spec(spec);
  atomic_write_file(path, bytes.data(), bytes.size());
}

CohortSpec read_cohort_spec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cohort spec missing: " + path);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return deserialize_cohort_spec(bytes.data(), bytes.size());
}

}  // namespace subsonic::cohort
