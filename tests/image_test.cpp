#include <gtest/gtest.h>

#include <filesystem>

#include "image/connected_components.hpp"
#include "image/image.hpp"
#include "image/io.hpp"
#include "image/ops.hpp"
#include "util/error.hpp"

namespace li = lithogan::image;
namespace lg = lithogan::geometry;

// ---------------------------------------------------------------------------
// Image container
// ---------------------------------------------------------------------------

TEST(Image, ConstructionAndAccess) {
  li::Image img(3, 4, 5, 0.25f);
  EXPECT_EQ(img.channels(), 3u);
  EXPECT_EQ(img.height(), 4u);
  EXPECT_EQ(img.width(), 5u);
  EXPECT_EQ(img.pixel_count(), 20u);
  EXPECT_FLOAT_EQ(img.at(2, 3, 4), 0.25f);
  img.at(1, 2, 3) = 0.75f;
  EXPECT_FLOAT_EQ(img.at(1, 2, 3), 0.75f);
}

TEST(Image, OutOfRangeAccessThrows) {
  li::Image img(1, 2, 2);
  EXPECT_THROW(img.at(1, 0, 0), lithogan::util::InvalidArgument);
  EXPECT_THROW(img.at(0, 2, 0), lithogan::util::InvalidArgument);
  EXPECT_THROW(img.at(0, 0, 2), lithogan::util::InvalidArgument);
}

TEST(Image, AtOrFallsBackOutside) {
  li::Image img(1, 2, 2, 1.0f);
  EXPECT_FLOAT_EQ(img.at_or(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(img.at_or(0, -1, 0, 0.5f), 0.5f);
  EXPECT_FLOAT_EQ(img.at_or(0, 0, 5, 0.5f), 0.5f);
  EXPECT_FLOAT_EQ(img.at_or(2, 0, 0, 0.5f), 0.5f);
}

TEST(Image, ChannelSpanIsContiguousView) {
  li::Image img(2, 2, 2);
  auto ch1 = img.channel(1);
  ch1[3] = 9.0f;
  EXPECT_FLOAT_EQ(img.at(1, 1, 1), 9.0f);
  EXPECT_EQ(img.channel(0).size(), 4u);
}

TEST(Image, MaskRoundTrip) {
  const std::vector<std::uint8_t> mask = {1, 0, 0, 1};
  const auto img = li::Image::from_mask(mask, 2, 2);
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 1), 0.0f);
  const auto back = img.to_mask(0);
  EXPECT_EQ(back, mask);
}

TEST(Image, ToMaskThreshold) {
  li::Image img(1, 1, 3);
  img.at(0, 0, 0) = 0.4f;
  img.at(0, 0, 1) = 0.6f;
  img.at(0, 0, 2) = 0.5f;
  const auto mask = img.to_mask(0, 0.5f);
  EXPECT_EQ(mask[0], 0);
  EXPECT_EQ(mask[1], 1);
  EXPECT_EQ(mask[2], 1);  // >= is inclusive
}

// ---------------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------------

TEST(Ops, CropInBounds) {
  li::Image img(1, 4, 4);
  for (std::size_t y = 0; y < 4; ++y) {
    for (std::size_t x = 0; x < 4; ++x) img.at(0, y, x) = static_cast<float>(y * 4 + x);
  }
  const auto c = li::crop(img, 1, 2, 2, 2);
  EXPECT_FLOAT_EQ(c.at(0, 0, 0), 9.0f);   // (x=1, y=2)
  EXPECT_FLOAT_EQ(c.at(0, 1, 1), 14.0f);  // (x=2, y=3)
}

TEST(Ops, CropOutOfBoundsFills) {
  li::Image img(1, 2, 2, 1.0f);
  const auto c = li::crop(img, -1, -1, 4, 4, 0.25f);
  EXPECT_FLOAT_EQ(c.at(0, 0, 0), 0.25f);
  EXPECT_FLOAT_EQ(c.at(0, 1, 1), 1.0f);
  EXPECT_FLOAT_EQ(c.at(0, 3, 3), 0.25f);
}

TEST(Ops, ShiftMovesContent) {
  li::Image img(1, 4, 4);
  img.at(0, 1, 1) = 1.0f;
  const auto s = li::shift(img, 2, 1);
  EXPECT_FLOAT_EQ(s.at(0, 2, 3), 1.0f);
  EXPECT_FLOAT_EQ(s.at(0, 1, 1), 0.0f);
}

TEST(Ops, ShiftOffGridDiscards) {
  li::Image img(1, 2, 2, 1.0f);
  const auto s = li::shift(img, 5, 0);
  for (const float v : s.data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Ops, FillRectPaintsPixelCenters) {
  li::Image img(2, 8, 8);
  li::fill_rect(img, 1, {{2.0, 2.0}, {5.0, 4.0}}, 1.0f);
  EXPECT_FLOAT_EQ(img.at(1, 2, 2), 1.0f);
  EXPECT_FLOAT_EQ(img.at(1, 3, 4), 1.0f);
  EXPECT_FLOAT_EQ(img.at(1, 2, 5), 0.0f);  // center 5.5 > 5.0
  EXPECT_FLOAT_EQ(img.at(1, 4, 3), 0.0f);  // center 4.5 > 4.0
  EXPECT_FLOAT_EQ(img.at(0, 3, 3), 0.0f);  // other channel untouched
}

TEST(Ops, FillRectClipsToImage) {
  li::Image img(1, 4, 4);
  li::fill_rect(img, 0, {{-10.0, -10.0}, {100.0, 100.0}}, 1.0f);
  for (const float v : img.data()) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(Ops, MeanAbsoluteDifference) {
  li::Image a(1, 2, 2, 0.0f);
  li::Image b(1, 2, 2, 0.5f);
  EXPECT_DOUBLE_EQ(li::mean_absolute_difference(a, b), 0.5);
  EXPECT_DOUBLE_EQ(li::mean_absolute_difference(a, a), 0.0);
  li::Image c(1, 2, 3);
  EXPECT_THROW(li::mean_absolute_difference(a, c), lithogan::util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// I/O
// ---------------------------------------------------------------------------

class ImageIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "lithogan_image_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(ImageIoTest, PpmRoundTrip) {
  li::Image img(3, 5, 7);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t y = 0; y < 5; ++y) {
      for (std::size_t x = 0; x < 7; ++x) {
        img.at(c, y, x) = static_cast<float>((c * 37 + y * 11 + x * 3) % 256) / 255.0f;
      }
    }
  }
  const std::string path = (dir_ / "t.ppm").string();
  li::write_ppm(path, img);
  const auto back = li::read_ppm(path);
  ASSERT_EQ(back.channels(), 3u);
  ASSERT_EQ(back.height(), 5u);
  ASSERT_EQ(back.width(), 7u);
  for (std::size_t i = 0; i < img.data().size(); ++i) {
    EXPECT_NEAR(back.data()[i], img.data()[i], 1.0f / 255.0f);
  }
}

TEST_F(ImageIoTest, PgmRoundTrip) {
  li::Image img(1, 3, 4);
  img.at(0, 1, 2) = 0.5f;
  img.at(0, 2, 3) = 1.0f;
  const std::string path = (dir_ / "t.pgm").string();
  li::write_pgm(path, img);
  const auto back = li::read_pgm(path);
  EXPECT_NEAR(back.at(0, 1, 2), 0.5f, 1.0f / 255.0f);
  EXPECT_FLOAT_EQ(back.at(0, 2, 3), 1.0f);
  EXPECT_FLOAT_EQ(back.at(0, 0, 0), 0.0f);
}

TEST_F(ImageIoTest, PpmRequiresThreeChannels) {
  li::Image img(1, 2, 2);
  EXPECT_THROW(li::write_ppm((dir_ / "x.ppm").string(), img),
               lithogan::util::InvalidArgument);
}

TEST_F(ImageIoTest, ValuesAreClampedOnWrite) {
  li::Image img(1, 1, 2);
  img.at(0, 0, 0) = -0.5f;
  img.at(0, 0, 1) = 1.5f;
  const std::string path = (dir_ / "c.pgm").string();
  li::write_pgm(path, img);
  const auto back = li::read_pgm(path);
  EXPECT_FLOAT_EQ(back.at(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(back.at(0, 0, 1), 1.0f);
}

TEST_F(ImageIoTest, MontageLaysPanelsSideBySide) {
  li::Image a(3, 4, 4, 0.0f);
  li::Image b(3, 4, 4, 0.5f);
  const auto m = li::montage({a, b});
  EXPECT_EQ(m.height(), 4u);
  EXPECT_EQ(m.width(), 10u);  // 4 + 2 gutter + 4
  EXPECT_FLOAT_EQ(m.at(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m.at(0, 0, 5), 1.0f);  // gutter is white
  EXPECT_FLOAT_EQ(m.at(0, 0, 7), 0.5f);
}

TEST_F(ImageIoTest, ReadMissingFileThrows) {
  EXPECT_THROW(li::read_ppm((dir_ / "missing.ppm").string()), lithogan::util::IoError);
}

// ---------------------------------------------------------------------------
// Connected components
// ---------------------------------------------------------------------------

TEST(ConnectedComponents, LabelsTwoBlobs) {
  // 6x4 mask: blob A at left, blob B at right, diagonal pixels NOT connected.
  const std::vector<std::uint8_t> mask = {
      1, 1, 0, 0, 0, 0,  //
      1, 0, 0, 0, 1, 1,  //
      0, 0, 0, 0, 1, 1,  //
      0, 1, 0, 0, 0, 0,  // isolated pixel: third component
  };
  const auto labeling = li::label_components(mask, 6, 4);
  ASSERT_EQ(labeling.components.size(), 3u);
  const auto* biggest = li::largest_component(labeling);
  ASSERT_NE(biggest, nullptr);
  EXPECT_EQ(biggest->pixel_count, 4u);
  EXPECT_NEAR(biggest->centroid.x, 5.0, 1e-9);
  EXPECT_NEAR(biggest->centroid.y, 2.0, 1e-9);
}

TEST(ConnectedComponents, EmptyMaskHasNoComponents) {
  const std::vector<std::uint8_t> mask(12, 0);
  const auto labeling = li::label_components(mask, 4, 3);
  EXPECT_TRUE(labeling.components.empty());
  EXPECT_EQ(li::largest_component(labeling), nullptr);
}

TEST(ConnectedComponents, FullMaskIsOneComponent) {
  const std::vector<std::uint8_t> mask(16, 1);
  const auto labeling = li::label_components(mask, 4, 4);
  ASSERT_EQ(labeling.components.size(), 1u);
  EXPECT_EQ(labeling.components[0].pixel_count, 16u);
  EXPECT_EQ(labeling.components[0].bbox.lo, (lg::Point{0.0, 0.0}));
  EXPECT_EQ(labeling.components[0].bbox.hi, (lg::Point{3.0, 3.0}));
}

TEST(ConnectedComponents, IsolateKeepsSeededBlob) {
  const std::vector<std::uint8_t> mask = {
      1, 0, 0, 1,  //
      1, 0, 0, 1,  //
  };
  const auto out = li::isolate_component(mask, 4, 2, {3.0, 0.0});
  EXPECT_EQ(out[3], 1);
  EXPECT_EQ(out[7], 1);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[4], 0);
}

TEST(ConnectedComponents, IsolateWithBackgroundSeedPicksNearest) {
  const std::vector<std::uint8_t> mask = {
      1, 0, 0, 0, 1,  //
      1, 0, 0, 0, 1,  //
  };
  const auto out = li::isolate_component(mask, 5, 2, {4.4, 1.0});
  EXPECT_EQ(out[4], 1);
  EXPECT_EQ(out[0], 0);
}

TEST(ConnectedComponents, IsolateEmptyMaskReturnsEmpty) {
  const std::vector<std::uint8_t> mask(8, 0);
  const auto out = li::isolate_component(mask, 4, 2, {1.0, 1.0});
  for (const auto v : out) EXPECT_EQ(v, 0);
}

TEST(ConnectedComponents, SizeMismatchThrows) {
  const std::vector<std::uint8_t> mask(7, 0);
  EXPECT_THROW(li::label_components(mask, 4, 2), lithogan::util::InvalidArgument);
}
