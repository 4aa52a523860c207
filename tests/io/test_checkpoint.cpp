#include "src/io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <unistd.h>

#include "src/geometry/flue_pipe.hpp"
#include "src/runtime/blocked_driver.hpp"
#include "src/runtime/serial_driver.hpp"

namespace subsonic {
namespace {

std::string tmp_dir() { return ::testing::TempDir(); }

TEST(Checkpoint, RoundTripIsExact2D) {
  Mask2D mask(Extents2{20, 16}, 1);
  FluidParams p;
  p.dt = 1.0;
  SerialDriver<2> a(mask, p, Method::kLatticeBoltzmann);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 20; ++x)
      a.domain().rho()(x, y) = 1.0 + 0.01 * std::sin(0.3 * x * y);
  a.reinitialize();
  a.run(7);
  const std::string path = tmp_dir() + "/ckpt2d.dump";
  save_domain(a.domain(), path);

  SerialDriver<2> b(mask, p, Method::kLatticeBoltzmann);
  restore_domain(b.domain(), path);
  EXPECT_EQ(b.domain().step(), 7);
  EXPECT_TRUE(b.domain().rho() == a.domain().rho());
  EXPECT_TRUE(b.domain().vx() == a.domain().vx());
  for (int i = 0; i < a.domain().q(); ++i)
    EXPECT_TRUE(b.domain().f(i) == a.domain().f(i));
}

TEST(Checkpoint, ResumeEqualsUninterruptedRun) {
  // The paper: migration "is equivalent to stopping the computation,
  // saving the entire state on disk, and then restarting."  A restored
  // run must continue bit for bit.
  Mask2D mask(Extents2{24, 18}, 3);
  FluidParams p;
  p.dt = 1.0;
  p.filter_eps = 0.2;
  mask.fill_box({0, 0, 24, 1}, NodeType::kWall);
  mask.fill_box({0, 17, 24, 18}, NodeType::kWall);
  mask.fill_box({0, 0, 1, 18}, NodeType::kWall);
  mask.fill_box({23, 0, 24, 18}, NodeType::kWall);

  SerialDriver<2> straight(mask, p, Method::kLatticeBoltzmann);
  for (int y = 1; y < 17; ++y)
    for (int x = 1; x < 23; ++x)
      straight.domain().rho()(x, y) = 1.0 + 0.02 * std::cos(0.4 * x + y);
  straight.reinitialize();

  SerialDriver<2> interrupted(mask, p, Method::kLatticeBoltzmann);
  for (int y = 1; y < 17; ++y)
    for (int x = 1; x < 23; ++x)
      interrupted.domain().rho()(x, y) = 1.0 + 0.02 * std::cos(0.4 * x + y);
  interrupted.reinitialize();

  straight.run(20);

  interrupted.run(8);
  const std::string path = tmp_dir() + "/resume.dump";
  save_domain(interrupted.domain(), path);
  SerialDriver<2> resumed(mask, p, Method::kLatticeBoltzmann);
  restore_domain(resumed.domain(), path);
  resumed.run(12);

  EXPECT_EQ(resumed.domain().step(), 20);
  EXPECT_TRUE(resumed.domain().rho() == straight.domain().rho());
  EXPECT_TRUE(resumed.domain().vx() == straight.domain().vx());
  EXPECT_TRUE(resumed.domain().vy() == straight.domain().vy());
}

TEST(Checkpoint, ParallelCheckpointRestartIsBitwise) {
  const Geometry2D g =
      build_flue_pipe(Extents2{120, 80}, FluePipeVariant::kBasic, 3);
  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.02;
  p.filter_eps = 0.1;
  p.inlet_vx = g.inlet_speed;

  // A directory of its own: other suites, which ctest may run at the
  // same time, checkpoint block_<b>.dump files into TempDir() too.
  const std::string dir =
      tmp_dir() + "/ckpt_parallel_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  BlockedDriver<2> a(g.mask, p, Method::kLatticeBoltzmann,
                     GridShape{3, 2, 1}, 0);
  a.run(10);
  a.save_blocks(dir);

  BlockedDriver<2> b(g.mask, p, Method::kLatticeBoltzmann,
                     GridShape{3, 2, 1}, 0);
  b.restore_blocks(dir);
  a.run(10);
  b.run(10);

  const auto va = a.gather(FieldId::kVx);
  const auto vb = b.gather(FieldId::kVx);
  for (int y = 0; y < 80; ++y)
    for (int x = 0; x < 120; ++x)
      ASSERT_EQ(va(x, y), vb(x, y)) << x << "," << y;
}

TEST(Checkpoint, RoundTripIsExact3D) {
  Mask3D mask(Extents3{10, 8, 6}, 1);
  FluidParams p;
  p.dt = 0.3;
  SerialDriver<3> a(mask, p, Method::kFiniteDifference);
  for (int z = 0; z < 6; ++z)
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < 10; ++x)
        a.domain().vz()(x, y, z) = 0.01 * std::sin(x + 2.0 * y - z);
  a.reinitialize();
  a.run(3);
  const std::string path = tmp_dir() + "/ckpt3d.dump";
  save_domain(a.domain(), path);

  SerialDriver<3> b(mask, p, Method::kFiniteDifference);
  restore_domain(b.domain(), path);
  EXPECT_EQ(b.domain().step(), 3);
  EXPECT_TRUE(b.domain().vz() == a.domain().vz());
  EXPECT_TRUE(b.domain().rho() == a.domain().rho());
}

TEST(Checkpoint, RejectsWrongSubregion) {
  Mask2D mask(Extents2{16, 16}, 1);
  FluidParams p;
  Domain2D a(mask, Box2{0, 0, 8, 16}, p, Method::kFiniteDifference, 1);
  Domain2D b(mask, Box2{8, 0, 16, 16}, p, Method::kFiniteDifference, 1);
  const std::string path = tmp_dir() + "/wrongbox.dump";
  save_domain(a, path);
  EXPECT_THROW(restore_domain(b, path), contract_error);
}

TEST(Checkpoint, RejectsWrongMethod) {
  Mask2D mask(Extents2{8, 8}, 1);
  FluidParams p;
  p.dt = 1.0;
  Domain2D lb(mask, full_box(mask.extents()), p, Method::kLatticeBoltzmann,
              1);
  Domain2D fd(mask, full_box(mask.extents()), p, Method::kFiniteDifference,
              1);
  const std::string path = tmp_dir() + "/wrongmethod.dump";
  save_domain(lb, path);
  EXPECT_THROW(restore_domain(fd, path), contract_error);
}

TEST(Checkpoint, RejectsChangedParameters) {
  Mask2D mask(Extents2{8, 8}, 1);
  FluidParams p;
  Domain2D a(mask, full_box(mask.extents()), p, Method::kFiniteDifference,
             1);
  const std::string path = tmp_dir() + "/wrongparams.dump";
  save_domain(a, path);
  FluidParams p2 = p;
  p2.nu = p.nu * 2;
  Domain2D b(mask, full_box(mask.extents()), p2, Method::kFiniteDifference,
             1);
  EXPECT_THROW(restore_domain(b, path), contract_error);
}

TEST(Checkpoint, RejectsGarbageFile) {
  const std::string path = tmp_dir() + "/garbage.dump";
  { std::ofstream(path) << "this is not a checkpoint"; }
  Mask2D mask(Extents2{8, 8}, 1);
  FluidParams p;
  Domain2D d(mask, full_box(mask.extents()), p, Method::kFiniteDifference,
             1);
  EXPECT_THROW(restore_domain(d, path), contract_error);
}

// A crash mid-write (simulated by truncation) must surface as the distinct
// corruption error, naming the file, never as a silent partial restore.
TEST(Checkpoint, TruncatedFileIsCheckpointErrorNamingThePath) {
  Mask2D mask(Extents2{12, 10}, 1);
  FluidParams p;
  p.dt = 1.0;
  SerialDriver<2> a(mask, p, Method::kLatticeBoltzmann);
  a.reinitialize();
  a.run(4);
  const std::string path = tmp_dir() + "/torn.dump";
  save_domain(a.domain(), path);

  // Rewrite the file as a prefix of itself — a torn write.
  std::vector<char> bytes = serialize_domain(a.domain());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  SerialDriver<2> b(mask, p, Method::kLatticeBoltzmann);
  try {
    restore_domain(b.domain(), path);
    FAIL() << "torn dump restored";
  } catch (const checkpoint_error& e) {
    EXPECT_NE(std::string(e.what()).find("torn.dump"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(inspect_checkpoint(path), checkpoint_error);
}

// A single flipped bit anywhere in the payload must fail the CRC.
TEST(Checkpoint, BitFlipIsCheckpointError) {
  Mask2D mask(Extents2{12, 10}, 1);
  FluidParams p;
  p.dt = 1.0;
  SerialDriver<2> a(mask, p, Method::kLatticeBoltzmann);
  a.reinitialize();
  a.run(2);
  const std::string path = tmp_dir() + "/bitflip.dump";
  save_domain(a.domain(), path);

  std::vector<char> bytes = serialize_domain(a.domain());
  bytes[bytes.size() - 7] ^= 0x10;  // one bit, deep in the payload
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  SerialDriver<2> b(mask, p, Method::kLatticeBoltzmann);
  EXPECT_THROW(restore_domain(b.domain(), path), checkpoint_error);
  EXPECT_THROW(inspect_checkpoint(path), checkpoint_error);
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Overwrites the header's box corner x1 (y1, z1) — int32s at byte 28 on.
void set_header_box_end(std::vector<char>& bytes, std::int32_t x1,
                        std::int32_t y1, std::int32_t z1) {
  std::memcpy(bytes.data() + 28, &x1, sizeof x1);
  std::memcpy(bytes.data() + 32, &y1, sizeof y1);
  std::memcpy(bytes.data() + 36, &z1, sizeof z1);
}

// The CRC covers only the payload, so a header edited to claim a larger
// box (or copied from another run) still validates.  Restoring it into a
// domain of that box must fail as a corrupt file before anything is
// scattered, not read past the end of the payload.
TEST(Checkpoint, PayloadShorterThanItsBoxIsCheckpointError) {
  FluidParams p;
  p.dt = 1.0;
  const Mask2D small_mask(Extents2{12, 10}, 1);
  const Mask2D big_mask(Extents2{20, 16}, 1);
  SerialDriver<2> small(small_mask, p, Method::kLatticeBoltzmann);
  small.reinitialize();
  small.run(2);
  std::vector<char> bytes = serialize_domain(small.domain());
  set_header_box_end(bytes, 20, 16, 0);
  const std::string path = tmp_dir() + "/short_payload.dump";
  write_bytes(path, bytes);

  SerialDriver<2> big(big_mask, p, Method::kLatticeBoltzmann);
  try {
    restore_domain(big.domain(), path);
    FAIL() << "a payload shorter than its box restored";
  } catch (const checkpoint_error& e) {
    EXPECT_NE(std::string(e.what()).find("short_payload.dump"),
              std::string::npos)
        << e.what();
  }

  p.dt = 0.3;
  const Mask3D small_mask3(Extents3{6, 5, 4}, 1);
  const Mask3D big_mask3(Extents3{8, 7, 6}, 1);
  SerialDriver<3> small3(small_mask3, p, Method::kFiniteDifference);
  std::vector<char> bytes3 = serialize_domain(small3.domain());
  set_header_box_end(bytes3, 8, 7, 6);
  const std::string path3 = tmp_dir() + "/short_payload3d.dump";
  write_bytes(path3, bytes3);
  SerialDriver<3> big3(big_mask3, p, Method::kFiniteDifference);
  EXPECT_THROW(restore_domain(big3.domain(), path3), checkpoint_error);
}

// payload_doubles * 8 wraps for counts of 2^61 and up; a header whose
// count wraps onto the real payload size must still fail the size check.
TEST(Checkpoint, WrappingPayloadCountIsCheckpointError) {
  Mask2D mask(Extents2{12, 10}, 1);
  FluidParams p;
  p.dt = 1.0;
  SerialDriver<2> a(mask, p, Method::kLatticeBoltzmann);
  std::vector<char> bytes = serialize_domain(a.domain());
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + 56, sizeof count);
  count += std::uint64_t{1} << 61;  // count * 8 is unchanged mod 2^64
  std::memcpy(bytes.data() + 56, &count, sizeof count);
  const std::string path = tmp_dir() + "/wrapped_count.dump";
  write_bytes(path, bytes);
  EXPECT_THROW(inspect_checkpoint(path), checkpoint_error);
  SerialDriver<2> b(mask, p, Method::kLatticeBoltzmann);
  EXPECT_THROW(restore_domain(b.domain(), path), checkpoint_error);
}

TEST(Checkpoint, InspectReportsHeaderFactsAfterFullVerify) {
  Mask2D mask(Extents2{20, 16}, 1);
  FluidParams p;
  p.dt = 1.0;
  SerialDriver<2> a(mask, p, Method::kLatticeBoltzmann);
  a.reinitialize();
  a.run(9);
  const std::string path = tmp_dir() + "/inspect.dump";
  save_domain(a.domain(), path);
  const CheckpointInfo info = inspect_checkpoint(path);
  EXPECT_EQ(info.dim, 2);
  EXPECT_EQ(info.step, 9);
  EXPECT_EQ(info.box[0], 0);
  EXPECT_EQ(info.box[3], 20);
  EXPECT_EQ(info.box[4], 16);
  EXPECT_EQ(info.q, a.domain().q());
  EXPECT_EQ(info.version, 3);
  EXPECT_EQ(info.layout, kLayoutSoaSlab);
  EXPECT_THROW(inspect_checkpoint(tmp_dir() + "/no_such.dump"),
               checkpoint_error);
}

// v2 dumps carry the same payload bytes as v3 — only the magic's version
// byte and the (then-reserved, zero) layout word differ — so a file from
// the pre-SoA format must restore bit for bit and continue identically.
TEST(Checkpoint, V2DumpReadsBackAndContinuesBitwise) {
  Mask2D mask(Extents2{24, 18}, 3);
  FluidParams p;
  p.dt = 1.0;
  p.periodic_x = p.periodic_y = true;
  SerialDriver<2> a(mask, p, Method::kLatticeBoltzmann);
  for (int y = 0; y < 18; ++y)
    for (int x = 0; x < 24; ++x)
      a.domain().rho()(x, y) = 1.0 + 0.01 * std::sin(0.3 * x - 0.7 * y);
  a.reinitialize();
  a.run(6);

  // Demote the serialized v3 bytes to a v2 file: version byte of the
  // magic back to \x02, layout word back to reserved-zero.  The payload
  // CRC covers only the payload, so the header edit leaves it valid.
  std::vector<char> bytes = serialize_domain(a.domain());
  bytes[7] = 0x02;
  bytes[68] = bytes[69] = bytes[70] = bytes[71] = 0;
  const std::string path = tmp_dir() + "/v2.dump";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const CheckpointInfo info = inspect_checkpoint(path);
  EXPECT_EQ(info.version, 2);
  EXPECT_EQ(info.layout, kLayoutUnspecified);

  SerialDriver<2> b(mask, p, Method::kLatticeBoltzmann);
  restore_domain(b.domain(), path);
  EXPECT_EQ(b.domain().step(), 6);
  for (int i = 0; i < a.domain().q(); ++i)
    EXPECT_TRUE(b.domain().f(i) == a.domain().f(i));

  a.run(5);
  b.run(5);
  EXPECT_TRUE(b.domain().rho() == a.domain().rho());
  EXPECT_TRUE(b.domain().vx() == a.domain().vx());
  EXPECT_TRUE(b.domain().vy() == a.domain().vy());
}

// Dumps serialize the logical window, so they are portable between builds
// whose PaddedField pitch differs (the Appendix-E extra_pitch experiments):
// save with one pitch, restore with another, continue bit for bit.
TEST(Checkpoint, RestoreAcrossDifferentPitchIsBitwise) {
  Mask2D mask(Extents2{22, 14}, 1);
  FluidParams p;
  p.dt = 1.0;
  p.periodic_x = p.periodic_y = true;
  const Box2 box = full_box(mask.extents());

  Domain2D narrow(mask, box, p, Method::kLatticeBoltzmann, 1,
                  /*threads=*/0, /*extra_pitch=*/0);
  for (int y = 0; y < narrow.ny(); ++y)
    for (int x = 0; x < narrow.nx(); ++x)
      narrow.rho()(x, y) = 1.0 + 0.03 * std::sin(0.5 * x - 0.2 * y);

  const std::string path = tmp_dir() + "/pitch.dump";
  save_domain(narrow, path);

  Domain2D wide(mask, box, p, Method::kLatticeBoltzmann, 1,
                /*threads=*/0, /*extra_pitch=*/5);
  restore_domain(wide, path);
  for (int y = 0; y < narrow.ny(); ++y)
    for (int x = 0; x < narrow.nx(); ++x) {
      ASSERT_EQ(wide.rho()(x, y), narrow.rho()(x, y)) << x << "," << y;
      ASSERT_EQ(wide.vx()(x, y), narrow.vx()(x, y)) << x << "," << y;
    }
  // And the bytes a re-serialization produces are identical, pitch or not.
  EXPECT_EQ(serialize_domain(wide), serialize_domain(narrow));
}

}  // namespace
}  // namespace subsonic
