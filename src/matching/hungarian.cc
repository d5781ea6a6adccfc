#include "matching/hungarian.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace spotserve {
namespace match {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Validate a rectangular, finite matrix; return {rows, cols}. */
std::pair<std::size_t, std::size_t>
shapeOf(const Matrix &m)
{
    const std::size_t rows = m.size();
    if (rows == 0)
        return {0, 0};
    const std::size_t cols = m[0].size();
    for (const auto &row : m) {
        if (row.size() != cols)
            throw std::invalid_argument("hungarian: ragged matrix");
        for (double v : row) {
            if (!std::isfinite(v))
                throw std::invalid_argument("hungarian: non-finite weight");
        }
    }
    return {rows, cols};
}

/**
 * Core O(n^3) Hungarian solver, minimisation, requires rows <= cols.
 * Classic potentials formulation (1-indexed internally) over a dense
 * row-major n x m cost array.  Returns rowToCol (0-indexed).
 */
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
        // Augment along the alternating path.
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

/**
 * Solve min sum of sign * m[i][j] over a rows x cols matrix: the smaller
 * side is matched completely (the solver runs on the transpose when
 * there are more rows than columns).  Negation is exact, so sign = -1
 * solves the maximisation on exactly the costs -m.
 */
std::vector<int>
solveSigned(const Matrix &mat, std::size_t rows, std::size_t cols,
            double sign)
{
    const bool transpose = rows > cols;
    const std::size_t n = transpose ? cols : rows;
    const std::size_t m = transpose ? rows : cols;
    std::vector<double> a(n * m);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            a[transpose ? j * m + i : i * m + j] = sign * mat[i][j];
        }
    }
    const auto matched = solveMinRect(a, n, m);
    if (!transpose)
        return matched;
    // Columns are the smaller side: every column is matched and some
    // rows stay at -1.
    std::vector<int> row_to_col(rows, -1);
    for (std::size_t j = 0; j < cols; ++j) {
        if (matched[j] >= 0)
            row_to_col[matched[j]] = static_cast<int>(j);
    }
    return row_to_col;
}

double
matchedSum(const Matrix &w, const std::vector<int> &row_to_col)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < row_to_col.size(); ++i) {
        if (row_to_col[i] >= 0)
            sum += w[i][row_to_col[i]];
    }
    return sum;
}

} // namespace

std::vector<int>
Assignment::colToRow(std::size_t num_cols) const
{
    std::vector<int> out(num_cols, -1);
    for (std::size_t i = 0; i < rowToCol.size(); ++i) {
        const int c = rowToCol[i];
        if (c >= 0) {
            if (static_cast<std::size_t>(c) >= num_cols)
                throw std::out_of_range("Assignment::colToRow: bad num_cols");
            out[c] = static_cast<int>(i);
        }
    }
    return out;
}

Assignment
minCostAssignment(const Matrix &costs)
{
    auto [rows, cols] = shapeOf(costs);
    Assignment result;
    if (rows == 0 || cols == 0) {
        result.rowToCol.assign(rows, -1);
        return result;
    }
    result.rowToCol = solveSigned(costs, rows, cols, 1.0);
    result.totalWeight = matchedSum(costs, result.rowToCol);
    return result;
}

Assignment
maxWeightAssignment(const Matrix &weights)
{
    auto [rows, cols] = shapeOf(weights);
    Assignment result;
    if (rows == 0 || cols == 0) {
        result.rowToCol.assign(rows, -1);
        return result;
    }
    result.rowToCol = solveSigned(weights, rows, cols, -1.0);
    result.totalWeight = matchedSum(weights, result.rowToCol);
    return result;
}

Assignment
bruteForceMaxWeight(const Matrix &weights)
{
    auto [rows, cols] = shapeOf(weights);
    Assignment best;
    best.rowToCol.assign(rows, -1);
    if (rows == 0 || cols == 0)
        return best;
    // Permute the smaller side over subsets of the larger side.
    const bool rows_small = rows <= cols;
    const std::size_t small = rows_small ? rows : cols;
    const std::size_t large = rows_small ? cols : rows;
    if (large > 9)
        throw std::invalid_argument("bruteForceMaxWeight: instance too large");

    std::vector<int> perm(large);
    std::iota(perm.begin(), perm.end(), 0);
    double best_sum = -kInf;
    std::vector<int> best_sel;

    // Iterate over all ordered selections of `small` items from `large`
    // via permutations of the full range (dedup overhead acceptable at
    // test sizes).
    do {
        double sum = 0.0;
        for (std::size_t k = 0; k < small; ++k) {
            sum += rows_small ? weights[k][perm[k]] : weights[perm[k]][k];
        }
        if (sum > best_sum) {
            best_sum = sum;
            best_sel.assign(perm.begin(), perm.begin() + small);
        }
    } while (std::next_permutation(perm.begin(), perm.end()));

    if (rows_small) {
        for (std::size_t k = 0; k < small; ++k)
            best.rowToCol[k] = best_sel[k];
    } else {
        for (std::size_t k = 0; k < small; ++k)
            best.rowToCol[best_sel[k]] = static_cast<int>(k);
    }
    best.totalWeight = matchedSum(weights, best.rowToCol);
    return best;
}

} // namespace match
} // namespace spotserve
