#include "matching/hungarian.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
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
 * Two columns per register: their doubles, and their 64-bit
 * back-pointers and indices.  Two registers hold the four argmin lanes.
 */
typedef double Vec __attribute__((vector_size(16)));
typedef std::int64_t Ints __attribute__((vector_size(16)));

/** Columns per iteration of the relaxation pass, one per argmin lane. */
constexpr std::size_t kLanes = 4;

/** Row stride of the solver's cost array: cols rounded up to kLanes. */
std::size_t
paddedWidth(std::size_t cols)
{
    return (cols + kLanes - 1) / kLanes * kLanes;
}

template <typename T>
T
load(const void *p)
{
    T x;
    std::memcpy(&x, p, sizeof x);
    return x;
}

template <typename T>
void
store(void *p, T x)
{
    std::memcpy(p, &x, sizeof x);
}

/**
 * Core O(n^3) Hungarian solver, minimisation, requires rows <= cols.
 * Classic potentials formulation (1-indexed internally) over a dense
 * row-major n x paddedWidth(m) cost array whose first m columns are
 * real.  Returns rowToCol (0-indexed).
 */
std::vector<int>
solveMinRect(const std::vector<double> &a, std::size_t n, std::size_t m)
{
    const std::size_t stride = paddedWidth(m);
    std::vector<double> u(n + 1, 0.0), v(stride + 1, 0.0);
    std::vector<double> minv(stride + 1);
    std::vector<int> p(stride + 1, 0);
    std::vector<std::int64_t> way(stride + 1, 0);
    // +inf while column j is used in this row's search (padding columns
    // always), -inf otherwise.  The select `lift > cur ? lift : cur`
    // turns a used column's candidate into +inf and passes every other
    // value through unchanged; a used column's minv is +inf as well, so
    // it neither relaxes nor wins.
    std::vector<double> lift(stride + 1, -kInf);
    std::fill(lift.begin() + static_cast<std::ptrdiff_t>(m) + 1, lift.end(),
              kInf);
    // This row's used columns, the virtual column 0 first: only they
    // take the u/v updates.
    std::vector<std::size_t> used;
    used.reserve(n + 1);

    const Vec inf = {kInf, kInf};
    const Ints step = {kLanes, kLanes};
    for (std::size_t i = 1; i <= n; ++i) {
        p[0] = static_cast<int>(i);
        std::size_t j0 = 0;
        std::fill(minv.begin(), minv.end(), kInf);
        for (std::size_t j : used)
            lift[j] = -kInf;
        used.assign(1, 0);
        // The previous step's delta, which this pass subtracts from
        // minv; +0.0 leaves every value (-0.0 included) unchanged.
        double prev = 0.0;
        for (;;) {
            const std::size_t i0 = p[j0];
            const double *row = a.data() + (i0 - 1) * stride;
            const Vec ui = {u[i0], u[i0]};
            const Vec pv = {prev, prev};
            const auto from = static_cast<std::int64_t>(j0);
            const Ints way0 = {from, from};
            // Lanes 0-1 see columns 1,2 (mod 4), lanes 2-3 columns 3,4.
            Vec best[2] = {inf, inf};
            Ints arg[2] = {{0, 0}, {0, 0}};
            Ints col[2] = {{1, 2}, {3, 4}};
            for (std::size_t j = 1; j <= stride; j += kLanes) {
                for (std::size_t h = 0; h < 2; ++h) {
                    const std::size_t c = j + 2 * h;
                    Vec cur = load<Vec>(row + c - 1) - ui - load<Vec>(&v[c]);
                    const Vec up = load<Vec>(&lift[c]);
                    cur = up > cur ? up : cur;
                    const Vec old = load<Vec>(&minv[c]) - pv;
                    const Vec mv = cur < old ? cur : old;
                    // mv != old exactly when cur < old.  (A NaN old,
                    // possible only once the potentials overflow, never
                    // wins, so its back-pointer is never followed.)
                    store(&way[c], mv != old ? way0 : load<Ints>(&way[c]));
                    store(&minv[c], mv);
                    // First minimum per lane: only a strictly lower
                    // value moves it.
                    const Vec was = best[h];
                    best[h] = mv < was ? mv : was;
                    arg[h] = best[h] != was ? col[h] : arg[h];
                    col[h] += step;
                }
            }
            // The lanes' lowest (value, column) is the first minimum.
            double delta = best[0][0];
            auto j1 = static_cast<std::size_t>(arg[0][0]);
            for (std::size_t k = 1; k < kLanes; ++k) {
                const double b = best[k / 2][k % 2];
                const auto c = static_cast<std::size_t>(arg[k / 2][k % 2]);
                if (b < delta || (!(delta < b) && c < j1)) {
                    delta = b;
                    j1 = c;
                }
            }
            for (std::size_t j : used) {
                u[p[j]] += delta;
                v[j] -= delta;
            }
            prev = delta;
            j0 = j1;
            if (p[j0] == 0)
                break;
            lift[j0] = kInf;
            minv[j0] = kInf;
            used.push_back(j0);
        }
        // Augment along the alternating path.
        do {
            const auto j1 = static_cast<std::size_t>(way[j0]);
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
    const std::size_t stride = paddedWidth(m);
    std::vector<double> a(n * stride, 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            a[transpose ? j * stride + i : i * stride + j] = sign * mat[i][j];
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
