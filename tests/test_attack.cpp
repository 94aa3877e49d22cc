// Unit tests for the Byzantine fault behaviours.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "abft/attack/adaptive_faults.hpp"
#include "abft/attack/simple_faults.hpp"

namespace {

using namespace abft;
using attack::Vector;

struct ContextFixture {
  Vector estimate{0.5, 0.5};
  Vector true_gradient{1.0, -2.0};
  std::vector<Vector> honest{Vector{1.0, 0.0}, Vector{3.0, 0.0}};
  util::Rng rng{99};

  /// Runs fault.emit_into into a fresh row, with the honest Vectors packed
  /// as the rows of one block; std::nullopt when the fault stays silent.
  [[nodiscard]] std::optional<Vector> emit(const attack::FaultModel& fault, int round = 0) {
    const int dim = true_gradient.dim();
    std::vector<double> block;
    std::vector<int> rows;
    for (const auto& g : honest) {
      rows.push_back(static_cast<int>(rows.size()));
      block.insert(block.end(), g.coefficients().begin(), g.coefficients().end());
    }
    const attack::RowAttackContext context{estimate, true_gradient.coefficients(),
                                           attack::HonestRowsView(block.data(), dim, rows),
                                           round};
    Vector out(dim);
    if (!fault.emit_into(out.coefficients(), context, rng)) return std::nullopt;
    return out;
  }
};

TEST(GradientReverse, NegatesTrueGradient) {
  ContextFixture fx;
  const attack::GradientReverseFault fault;
  const auto out = fx.emit(fault);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, (Vector{-1.0, 2.0}));
}

TEST(RandomGaussian, MatchesDimensionAndScale) {
  ContextFixture fx;
  const attack::RandomGaussianFault fault(200.0);
  double sum_sq = 0.0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const auto out = fx.emit(fault, i);
    ASSERT_TRUE(out.has_value());
    ASSERT_EQ(out->dim(), 2);
    sum_sq += out->squared_norm();
  }
  // E||g||^2 = d * stddev^2 = 2 * 40000.
  EXPECT_NEAR(sum_sq / trials, 80000.0, 8000.0);
  EXPECT_THROW(attack::RandomGaussianFault(-1.0), std::invalid_argument);
}

TEST(Zero, SendsZeroVector) {
  ContextFixture fx;
  const attack::ZeroFault fault;
  const auto out = fx.emit(fault);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, Vector(2));
}

TEST(SignFlipScale, AmplifiesReversal) {
  ContextFixture fx;
  const attack::SignFlipScaleFault fault(3.0);
  const auto out = fx.emit(fault);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, (Vector{-3.0, 6.0}));
  EXPECT_THROW(attack::SignFlipScaleFault(0.0), std::invalid_argument);
}

TEST(Constant, AlwaysSendsPayload) {
  ContextFixture fx;
  const attack::ConstantFault fault(Vector{7.0, 7.0});
  for (int round = 0; round < 3; ++round) {
    const auto out = fx.emit(fault, round);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, (Vector{7.0, 7.0}));
  }
}

TEST(Constant, RejectsDimensionMismatch) {
  ContextFixture fx;
  const attack::ConstantFault fault(Vector{7.0});
  EXPECT_THROW((void)fx.emit(fault), std::invalid_argument);
}

TEST(Rotating, SweepsDirectionsOverRounds) {
  ContextFixture fx;
  const attack::RotatingFault fault(5.0, 1.5707963267948966);  // quarter turn per round
  const auto r0 = fx.emit(fault, 0);
  const auto r1 = fx.emit(fault, 1);
  const auto r2 = fx.emit(fault, 2);
  ASSERT_TRUE(r0 && r1 && r2);
  EXPECT_NEAR((*r0)[0], 5.0, 1e-9);
  EXPECT_NEAR((*r0)[1], 0.0, 1e-9);
  EXPECT_NEAR((*r1)[0], 0.0, 1e-9);
  EXPECT_NEAR((*r1)[1], 5.0, 1e-9);
  EXPECT_NEAR((*r2)[0], -5.0, 1e-9);
  EXPECT_NEAR(r0->norm(), 5.0, 1e-9);
  EXPECT_THROW(attack::RotatingFault(0.0, 1.0), std::invalid_argument);
}

TEST(Silent, NeverSends) {
  ContextFixture fx;
  const attack::SilentFault fault;
  EXPECT_FALSE(fx.emit(fault).has_value());
}

TEST(LittleIsEnough, HidesInsideHonestSpread) {
  ContextFixture fx;
  const attack::LittleIsEnoughFault fault(1.0);
  const auto out = fx.emit(fault);
  ASSERT_TRUE(out.has_value());
  // Honest coordinate 0: mean 2, population stddev 1 -> 2 - 1 = 1.
  EXPECT_NEAR((*out)[0], 1.0, 1e-12);
  EXPECT_NEAR((*out)[1], 0.0, 1e-12);
}

TEST(LittleIsEnough, FallsBackWithoutHonestView) {
  ContextFixture fx;
  fx.honest.clear();
  const attack::LittleIsEnoughFault fault(1.0);
  const auto out = fx.emit(fault);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, fx.true_gradient);
}

TEST(MeanReverse, ReversesHonestMean) {
  ContextFixture fx;
  const attack::MeanReverseFault fault(2.0);
  const auto out = fx.emit(fault);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, (Vector{-4.0, 0.0}));
}

TEST(MimicSmallest, CopiesSmallestHonestGradient) {
  ContextFixture fx;
  const attack::MimicSmallestFault fault;
  const auto out = fx.emit(fault);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, (Vector{1.0, 0.0}));
}

TEST(FaultNames, AreStable) {
  EXPECT_EQ(attack::GradientReverseFault{}.name(), "gradient-reverse");
  EXPECT_EQ(attack::RandomGaussianFault{1.0}.name(), "random");
  EXPECT_EQ(attack::SilentFault{}.name(), "silent");
  EXPECT_EQ(attack::LittleIsEnoughFault{1.0}.name(), "little-is-enough");
}

}  // namespace
