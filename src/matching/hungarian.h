/**
 * @file
 * Kuhn-Munkres (Hungarian) weighted bipartite matching.
 *
 * SpotServe formalises device mapping as maximum-weight bipartite matching
 * between available GPU devices and the pipeline-stage-shard positions of
 * the target configuration (§3.3), with edge weights equal to the reusable
 * context bytes.  This module provides the O(n^3) potentials-based solver
 * plus an exponential brute-force reference used by the property tests.
 *
 * The solver is the e-maxx potentials method: rows in order, one
 * Dijkstra search per row.  Each Dijkstra step is a single branch-free
 * relaxation pass over all columns, two columns per SIMD register:
 *  - a used column is masked by a select (its candidate becomes +inf)
 *    and its minv is +inf, so it neither relaxes nor wins;
 *  - the previous step's `minv[j] -= delta` is folded into the pass as
 *    `minv[j] - prev`;
 *  - the argmin runs in four independent lanes, each keeping its first
 *    minimum, merged by lexicographic (value, column), which is the first
 *    minimum of the plain left-to-right scan.
 * The u/v updates then run over the list of used columns only.  Every
 * minv, u and v sees the same IEEE operations, in the same order, as the
 * textbook two-pass loop, so rowToCol and totalWeight are bit-identical
 * to it on every input; the differential test in matching_test keeps
 * that loop as its oracle.
 */

#ifndef SPOTSERVE_MATCHING_HUNGARIAN_H
#define SPOTSERVE_MATCHING_HUNGARIAN_H

#include <vector>

namespace spotserve {
namespace match {

/** Dense weight/cost matrix indexed [row][col]. */
using Matrix = std::vector<std::vector<double>>;

/** Result of an assignment problem. */
struct Assignment
{
    /**
     * rowToCol[i] = column matched to row i, or -1 when unmatched (only
     * possible when rows > cols).
     */
    std::vector<int> rowToCol;

    /** Sum of matched entries under the *original* objective. */
    double totalWeight = 0.0;

    /** colToRow view of the same matching (-1 for unmatched columns). */
    std::vector<int> colToRow(std::size_t num_cols) const;
};

/**
 * Maximum-weight perfect-on-the-smaller-side assignment.  Handles
 * rectangular matrices; every row (or column, whichever side is smaller)
 * is matched.  Weights may be any finite doubles.
 */
Assignment maxWeightAssignment(const Matrix &weights);

/** Minimum-cost counterpart. */
Assignment minCostAssignment(const Matrix &costs);

/**
 * Exponential-time exact reference (max weight).  Only usable for tiny
 * instances (<= ~9 rows); the tests compare it against the KM solver.
 */
Assignment bruteForceMaxWeight(const Matrix &weights);

} // namespace match
} // namespace spotserve

#endif // SPOTSERVE_MATCHING_HUNGARIAN_H
