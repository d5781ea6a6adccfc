/**
 * @file
 * Tests for the Kuhn-Munkres matcher, including randomized comparison
 * against the exponential brute-force reference and a bit-for-bit
 * differential check against the textbook two-pass solver loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "matching/hungarian.h"
#include "simcore/rng.h"

namespace spotserve::match {
namespace {

TEST(HungarianTest, TrivialSingleton)
{
    const auto a = maxWeightAssignment({{5.0}});
    EXPECT_EQ(a.rowToCol, (std::vector<int>{0}));
    EXPECT_DOUBLE_EQ(a.totalWeight, 5.0);
}

TEST(HungarianTest, PicksDiagonalWhenOptimal)
{
    Matrix w = {{10, 1, 1}, {1, 10, 1}, {1, 1, 10}};
    const auto a = maxWeightAssignment(w);
    EXPECT_EQ(a.rowToCol, (std::vector<int>{0, 1, 2}));
    EXPECT_DOUBLE_EQ(a.totalWeight, 30.0);
}

TEST(HungarianTest, AvoidsGreedyTrap)
{
    // Greedy would match row0->col0 (9) forcing row1->col1 (1), total 10;
    // optimal is 8 + 8 = 16.
    Matrix w = {{9, 8}, {8, 1}};
    const auto a = maxWeightAssignment(w);
    EXPECT_DOUBLE_EQ(a.totalWeight, 16.0);
    EXPECT_EQ(a.rowToCol, (std::vector<int>{1, 0}));
}

TEST(HungarianTest, RectangularWideMatchesAllRows)
{
    Matrix w = {{1, 5, 2, 0}, {5, 1, 0, 2}};
    const auto a = maxWeightAssignment(w);
    EXPECT_EQ(a.rowToCol.size(), 2u);
    EXPECT_DOUBLE_EQ(a.totalWeight, 10.0);
}

TEST(HungarianTest, RectangularTallLeavesRowsUnmatched)
{
    Matrix w = {{5}, {7}, {6}};
    const auto a = maxWeightAssignment(w);
    EXPECT_DOUBLE_EQ(a.totalWeight, 7.0);
    EXPECT_EQ(a.rowToCol[1], 0);
    EXPECT_EQ(a.rowToCol[0], -1);
    EXPECT_EQ(a.rowToCol[2], -1);
}

TEST(HungarianTest, HandlesNegativeWeights)
{
    Matrix w = {{-1, -5}, {-5, -1}};
    const auto a = maxWeightAssignment(w);
    EXPECT_DOUBLE_EQ(a.totalWeight, -2.0);
}

TEST(HungarianTest, MinCostIsDualOfMaxWeight)
{
    Matrix c = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
    const auto a = minCostAssignment(c);
    EXPECT_DOUBLE_EQ(a.totalWeight, 5.0); // 1 + 2 + 2
}

TEST(HungarianTest, ColToRowInvertsMapping)
{
    Matrix w = {{10, 1, 1}, {1, 1, 10}};
    const auto a = maxWeightAssignment(w);
    const auto inv = a.colToRow(3);
    EXPECT_EQ(inv[0], 0);
    EXPECT_EQ(inv[2], 1);
    EXPECT_EQ(inv[1], -1);
}

TEST(HungarianTest, EmptyMatrix)
{
    const auto a = maxWeightAssignment({});
    EXPECT_TRUE(a.rowToCol.empty());
    EXPECT_DOUBLE_EQ(a.totalWeight, 0.0);
}

TEST(HungarianTest, RejectsRaggedAndNonFinite)
{
    EXPECT_THROW(maxWeightAssignment({{1.0, 2.0}, {1.0}}),
                 std::invalid_argument);
    EXPECT_THROW(
        maxWeightAssignment({{std::numeric_limits<double>::infinity()}}),
        std::invalid_argument);
}

TEST(HungarianTest, DeterministicOnTies)
{
    Matrix w = {{1, 1}, {1, 1}};
    const auto a = maxWeightAssignment(w);
    const auto b = maxWeightAssignment(w);
    EXPECT_EQ(a.rowToCol, b.rowToCol);
    EXPECT_DOUBLE_EQ(a.totalWeight, 2.0);
}

TEST(BruteForceTest, RefusesLargeInstances)
{
    Matrix w(10, std::vector<double>(10, 1.0));
    EXPECT_THROW(bruteForceMaxWeight(w), std::invalid_argument);
}

/** Randomized optimality property: KM == brute force on small instances. */
class KmVsBruteForce
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(KmVsBruteForce, TotalWeightOptimal)
{
    const auto [rows, cols] = GetParam();
    sim::Rng rng(1000 + rows * 17 + cols);
    for (int trial = 0; trial < 40; ++trial) {
        Matrix w(rows, std::vector<double>(cols));
        for (auto &row : w) {
            for (auto &v : row)
                v = rng.uniform(-10.0, 10.0);
        }
        const auto km = maxWeightAssignment(w);
        const auto bf = bruteForceMaxWeight(w);
        EXPECT_NEAR(km.totalWeight, bf.totalWeight, 1e-9)
            << "rows=" << rows << " cols=" << cols << " trial=" << trial;

        // The reported total must equal the sum of matched entries.
        double sum = 0.0;
        int matched = 0;
        for (int i = 0; i < rows; ++i) {
            if (km.rowToCol[i] >= 0) {
                sum += w[i][km.rowToCol[i]];
                ++matched;
            }
        }
        EXPECT_NEAR(sum, km.totalWeight, 1e-9);
        EXPECT_EQ(matched, std::min(rows, cols));

        // No column used twice.
        std::vector<int> used(cols, 0);
        for (int i = 0; i < rows; ++i) {
            if (km.rowToCol[i] >= 0)
                ++used[km.rowToCol[i]];
        }
        for (int c : used)
            EXPECT_LE(c, 1);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, KmVsBruteForce,
    ::testing::Values(std::make_pair(2, 2), std::make_pair(3, 3),
                      std::make_pair(4, 4), std::make_pair(5, 5),
                      std::make_pair(3, 6), std::make_pair(6, 3),
                      std::make_pair(2, 7), std::make_pair(7, 2),
                      std::make_pair(4, 8), std::make_pair(8, 4)));

TEST(HungarianTest, LargeInstanceRuns)
{
    sim::Rng rng(5);
    const int n = 64;
    Matrix w(n, std::vector<double>(n));
    for (auto &row : w) {
        for (auto &v : row)
            v = rng.uniform(0.0, 1e9);
    }
    const auto a = maxWeightAssignment(w);
    // Perfect matching, all distinct.
    std::vector<int> used(n, 0);
    for (int i = 0; i < n; ++i) {
        ASSERT_GE(a.rowToCol[i], 0);
        ++used[a.rowToCol[i]];
    }
    for (int c : used)
        EXPECT_EQ(c, 1);
    // At least as good as the identity assignment.
    double identity = 0.0;
    for (int i = 0; i < n; ++i)
        identity += w[i][i];
    EXPECT_GE(a.totalWeight, identity);
}

// ---------------------------------------------------------------------
// Differential oracle: the solver must reproduce the textbook e-maxx
// loop (a branchy relaxation scan, then a separate sweep that applies
// delta to every column) bit for bit, ties and signed zeros included.
// ---------------------------------------------------------------------

namespace reference {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<int>
solveMinRect(const std::vector<double> &a, std::size_t n, std::size_t m)
{
    std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
    std::vector<int> p(m + 1, 0), way(m + 1, 0);
    std::vector<double> minv(m + 1);
    std::vector<char> used(m + 1);

    for (std::size_t i = 1; i <= n; ++i) {
        p[0] = static_cast<int>(i);
        std::size_t j0 = 0;
        std::fill(minv.begin(), minv.end(), kInf);
        std::fill(used.begin(), used.end(), 0);
        do {
            used[j0] = 1;
            const std::size_t i0 = p[j0];
            const double *row = a.data() + (i0 - 1) * m;
            const double ui0 = u[i0];
            double delta = kInf;
            std::size_t j1 = 0;
            for (std::size_t j = 1; j <= m; ++j) {
                if (used[j])
                    continue;
                const double cur = row[j - 1] - ui0 - v[j];
                if (cur < minv[j]) {
                    minv[j] = cur;
                    way[j] = static_cast<int>(j0);
                }
                if (minv[j] < delta) {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for (std::size_t j = 0; j <= m; ++j) {
                if (used[j]) {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
        } while (p[j0] != 0);
        do {
            const std::size_t j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
        } while (j0 != 0);
    }

    std::vector<int> row_to_col(n, -1);
    for (std::size_t j = 1; j <= m; ++j) {
        if (p[j] != 0)
            row_to_col[p[j] - 1] = static_cast<int>(j) - 1;
    }
    return row_to_col;
}

/** sign = -1 maximises, +1 minimises; same wrapping as the library. */
Assignment
solve(const Matrix &mat, double sign)
{
    Assignment out;
    const std::size_t rows = mat.size();
    const std::size_t cols = rows ? mat[0].size() : 0;
    out.rowToCol.assign(rows, -1);
    if (rows == 0 || cols == 0)
        return out;
    const bool transpose = rows > cols;
    const std::size_t n = transpose ? cols : rows;
    const std::size_t m = transpose ? rows : cols;
    std::vector<double> a(n * m);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j)
            a[transpose ? j * m + i : i * m + j] = sign * mat[i][j];
    }
    const auto matched = solveMinRect(a, n, m);
    if (!transpose) {
        out.rowToCol = matched;
    } else {
        for (std::size_t j = 0; j < cols; ++j) {
            if (matched[j] >= 0)
                out.rowToCol[matched[j]] = static_cast<int>(j);
        }
    }
    for (std::size_t i = 0; i < rows; ++i) {
        if (out.rowToCol[i] >= 0)
            out.totalWeight += mat[i][out.rowToCol[i]];
    }
    return out;
}

} // namespace reference

/** Both objectives agree with the oracle: same columns, same bits. */
void
expectMatchesOracle(const Matrix &w, const std::string &what)
{
    const auto check = [&](const Assignment &got, double sign) {
        const auto want = reference::solve(w, sign);
        EXPECT_EQ(got.rowToCol, want.rowToCol)
            << what << (sign < 0 ? " (max)" : " (min)");
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.totalWeight),
                  std::bit_cast<std::uint64_t>(want.totalWeight))
            << what << (sign < 0 ? " (max)" : " (min)") << ": "
            << got.totalWeight << " vs " << want.totalWeight;
    };
    check(maxWeightAssignment(w), -1.0);
    check(minCostAssignment(w), 1.0);
}

std::string
shapeName(const char *kind, std::size_t rows, std::size_t cols)
{
    return std::string(kind) + " " + std::to_string(rows) + "x" +
           std::to_string(cols);
}

/**
 * rows x cols matrix with `levels` distinct values: each row is one of
 * `row_kinds` patterns and each column one of `col_kinds`, so rows and
 * columns repeat.  About half the entries are zero, as in the mapper's
 * reuse matrices.
 */
Matrix
tieHeavy(sim::Rng &rng, std::size_t rows, std::size_t cols, int levels,
         std::size_t row_kinds, std::size_t col_kinds)
{
    std::vector<double> value(static_cast<std::size_t>(levels));
    value[0] = 0.0;
    for (int k = 1; k < levels; ++k)
        value[k] = 1.5e9 * k + rng.uniformInt(0, 3) * 0.25e9;
    std::vector<std::vector<double>> table(
        row_kinds, std::vector<double>(col_kinds));
    for (auto &r : table) {
        for (auto &x : r) {
            x = rng.uniform() < 0.5
                    ? 0.0
                    : value[rng.uniformInt(0, levels - 1)];
        }
    }
    // Every kind appears at least once; the remaining rows and columns
    // repeat random kinds.
    const auto kinds = [&](std::size_t count, std::size_t num_kinds) {
        std::vector<std::size_t> out(count);
        for (std::size_t k = 0; k < count; ++k) {
            out[k] = k < num_kinds
                         ? k
                         : static_cast<std::size_t>(rng.uniformInt(
                               0, static_cast<std::int64_t>(num_kinds) - 1));
        }
        std::shuffle(out.begin(), out.end(), rng.engine());
        return out;
    };
    const auto row_kind = kinds(rows, row_kinds);
    const auto col_kind = kinds(cols, col_kinds);
    Matrix w(rows, std::vector<double>(cols));
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j)
            w[i][j] = table[row_kind[i]][col_kind[j]];
    }
    return w;
}

const std::vector<std::pair<std::size_t, std::size_t>> kDiffShapes = {
    {1, 1},   {1, 2},    {2, 1},    {1, 9},    {9, 1},   {3, 4},
    {4, 3},   {5, 5},    {6, 11},   {11, 6},   {13, 13}, {17, 40},
    {40, 17}, {63, 64},  {64, 63},  {100, 128}, {128, 100},
    {37, 512}, {512, 37}, {256, 512}, {512, 256}};

TEST(HungarianDifferentialTest, RandomDenseMatchesOracle)
{
    sim::Rng rng(20240418);
    for (const auto &[rows, cols] : kDiffShapes) {
        Matrix w(rows, std::vector<double>(cols));
        for (auto &row : w) {
            for (auto &x : row)
                x = rng.uniform(-1e3, 1e3);
        }
        expectMatchesOracle(w, shapeName("dense", rows, cols));
    }
}

TEST(HungarianDifferentialTest, TieHeavyMatchesOracle)
{
    sim::Rng rng(77);
    int levels = 2;
    for (const auto &[rows, cols] : kDiffShapes) {
        const std::size_t row_kinds = std::max<std::size_t>(1, rows / 2);
        const std::size_t col_kinds = std::max<std::size_t>(1, cols * 3 / 5);
        const auto w = tieHeavy(rng, rows, cols, levels, row_kinds, col_kinds);
        expectMatchesOracle(w, shapeName("ties", rows, cols) + " levels " +
                                   std::to_string(levels));
        levels = levels == 9 ? 2 : levels + 1;
    }
}

/**
 * The structure of the device mapper's matrix at the 512-instance
 * reshape: 512 instances x 396 slots in groups of four; instance triples
 * reuse the front pair, the back pair, or all four slots of each group
 * at two weights, the first 99 triples with a bonus on their own group,
 * and two instances reuse nothing.  9 distinct weights, 301 distinct
 * rows, 198 distinct columns.
 */
Matrix
mapperShaped()
{
    Matrix w(512, std::vector<double>(396, 0.0));
    for (int k = 0; k < 170; ++k) {
        for (int s = 0; s < 396; ++s) {
            const bool front = s % 4 < 2;
            const double x = k < 99 && s / 4 == k ? 1.0221 : 1.0;
            w[3 * k][s] = front ? 6.8182e9 * x : 0.0;
            w[3 * k + 1][s] = (front ? 3.1818e9 : 3.6364e9) * x;
            w[3 * k + 2][s] = front ? 0.0 : 6.3636e9 * x;
        }
    }
    return w;
}

Matrix
transposed(const Matrix &w)
{
    Matrix t(w[0].size(), std::vector<double>(w.size()));
    for (std::size_t i = 0; i < w.size(); ++i) {
        for (std::size_t j = 0; j < w[i].size(); ++j)
            t[j][i] = w[i][j];
    }
    return t;
}

TEST(HungarianDifferentialTest, MapperShapedMatchesOracle)
{
    // The solver sees the 396 x 512 transpose of the mapper's matrix; the
    // transposed input hands it that shape directly.  A random matrix
    // with the same counts of weights, rows and columns rides along.
    const auto w = mapperShaped();
    expectMatchesOracle(w, "mapper-shaped 512x396");
    expectMatchesOracle(transposed(w), "mapper-shaped 396x512");
    sim::Rng rng(512);
    expectMatchesOracle(tieHeavy(rng, 512, 396, 9, 301, 198),
                        "random ties 512x396");
}

TEST(HungarianDifferentialTest, SignedZerosMatchOracle)
{
    // -0.0 and +0.0 compare equal but differ in sign; the argmin and
    // every minv update must keep the oracle's choice of zero.
    sim::Rng rng(3);
    const double pool[] = {0.0, -0.0, 1.0, -1.0, 0.5};
    for (const auto &[rows, cols] : kDiffShapes) {
        if (rows * cols > 64 * 64)
            continue;
        Matrix w(rows, std::vector<double>(cols));
        for (auto &row : w) {
            for (auto &x : row)
                x = pool[rng.uniformInt(0, 4)];
        }
        expectMatchesOracle(w, shapeName("signed zeros", rows, cols));
        Matrix zeros(rows, std::vector<double>(cols));
        for (auto &row : zeros) {
            for (auto &x : row)
                x = rng.uniform() < 0.5 ? 0.0 : -0.0;
        }
        expectMatchesOracle(zeros, shapeName("all zeros", rows, cols));
    }
}

} // namespace
} // namespace spotserve::match
