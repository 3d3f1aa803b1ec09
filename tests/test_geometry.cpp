#include "src/core/geometry.hpp"

#include <gtest/gtest.h>

#include <set>

namespace lumi {
namespace {

TEST(Geometry, DirVectors) {
  EXPECT_EQ(dir_vec(Dir::North), (Vec{-1, 0}));
  EXPECT_EQ(dir_vec(Dir::East), (Vec{0, 1}));
  EXPECT_EQ(dir_vec(Dir::South), (Vec{1, 0}));
  EXPECT_EQ(dir_vec(Dir::West), (Vec{0, -1}));
}

TEST(Geometry, Manhattan) {
  EXPECT_EQ(manhattan({0, 0}, {0, 0}), 0);
  EXPECT_EQ(manhattan({0, 0}, {2, 3}), 5);
  EXPECT_EQ(manhattan({2, 3}, {0, 0}), 5);
  EXPECT_EQ(manhattan({-1, 1}, {1, -1}), 4);
}

TEST(Geometry, RotationCyclesDirections) {
  // One clockwise quarter turn maps N->E->S->W->N.
  EXPECT_EQ(rotate_cw(dir_vec(Dir::North), 1), dir_vec(Dir::East));
  EXPECT_EQ(rotate_cw(dir_vec(Dir::East), 1), dir_vec(Dir::South));
  EXPECT_EQ(rotate_cw(dir_vec(Dir::South), 1), dir_vec(Dir::West));
  EXPECT_EQ(rotate_cw(dir_vec(Dir::West), 1), dir_vec(Dir::North));
}

TEST(Geometry, RotationPeriodFour) {
  const Vec v{-1, 2};
  EXPECT_EQ(rotate_cw(v, 4), v);
  EXPECT_EQ(rotate_cw(rotate_cw(v, 1), 3), v);
}

TEST(Geometry, MirrorFlipsEastWest) {
  const Sym mirror{0, true};
  EXPECT_EQ(apply(mirror, dir_vec(Dir::East)), dir_vec(Dir::West));
  EXPECT_EQ(apply(mirror, dir_vec(Dir::West)), dir_vec(Dir::East));
  EXPECT_EQ(apply(mirror, dir_vec(Dir::North)), dir_vec(Dir::North));
  EXPECT_EQ(apply(mirror, dir_vec(Dir::South)), dir_vec(Dir::South));
}

TEST(Geometry, ApplyOnDirsMatchesApplyOnVecs) {
  for (Sym g : all_symmetries()) {
    for (Dir d : kAllDirs) {
      EXPECT_EQ(dir_vec(apply(g, d)), apply(g, dir_vec(d)));
    }
  }
}

TEST(Geometry, SymmetryGroupsHaveExpectedSizes) {
  EXPECT_EQ(rotations().size(), 4u);
  EXPECT_EQ(all_symmetries().size(), 8u);
}

TEST(Geometry, EightSymmetriesAreDistinctOnAProbe) {
  // A fully asymmetric probe point distinguishes all 8 group elements.
  const Vec probe{1, 2};
  std::set<std::pair<int, int>> images;
  for (Sym g : all_symmetries()) {
    const Vec image = apply(g, probe);
    images.insert({image.row, image.col});
  }
  EXPECT_EQ(images.size(), 8u);
}

TEST(Geometry, SymmetriesPreserveManhattanNorm) {
  for (Sym g : all_symmetries()) {
    for (int r = -2; r <= 2; ++r) {
      for (int c = -2; c <= 2; ++c) {
        const Vec v{r, c};
        EXPECT_EQ(manhattan({0, 0}, apply(g, v)), manhattan({0, 0}, v));
      }
    }
  }
}

}  // namespace
}  // namespace lumi
