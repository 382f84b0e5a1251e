package repro.lemp

import repro.core.{Matrix, MipsSolver, PreparedMips, TopKHeap, TopKResult}

/** LEMP-LI — the SIGMOD 2015 / TODS 2016 baseline (Teflioudi et al.).
  *
  * Reimplementation of the retrieval variant the paper benchmarks
  * ("LEMP-LI": length-based + incremental pruning):
  *
  *  1. Items are sorted by L2 norm descending.
  *  2. A query walks the sorted items once. It stops at the first item whose
  *     length bound `||u|| * ||i||` cannot beat the current k-th best score
  *     (length pruning — Cauchy–Schwarz); every later item has a norm no
  *     higher, so none of them can either.
  *  3. Every other item is scored incrementally: exact partial inner product
  *     over a prefix of coordinates plus a Cauchy–Schwarz bound from
  *     precomputed suffix norms, checked every `prefixStep` coordinates; when
  *     the bound falls below the heap threshold the item is abandoned
  *     (incremental pruning).
  *
  * The original buckets items by norm so that it can pick a pruning method
  * per bucket; here every item runs the same two checks, so buckets would
  * only split the loop.
  *
  * The index is exact: pruning only discards items whose upper bound, widened
  * by a rounding slack, is strictly below the admission threshold.
  */
final class LempIndex(val prefixStep: Int = 8) extends MipsSolver {
  require(prefixStep >= 1, s"prefixStep must be >= 1, got $prefixStep")

  override def name: String = "LEMP"

  override def prepare(items: Matrix): PreparedMips = {
    val n = items.rows
    val f = items.cols
    val norms = items.rowNorms
    // sort item ids by norm descending (stable tie-break on id for determinism)
    val order = Array.tabulate(n)(identity).sortBy(i => (-norms(i), i))
    val sorted = items.selectRows(order)
    val sortedNorms = order.map(norms)

    // suffix norms at prefixStep boundaries
    val checkpoints = (prefixStep until f by prefixStep).toArray
    val suffixNorms = Array.tabulate(n)(i => LempIndex.suffixNorms(sorted.data, i * f, f, checkpoints))

    new LempPrepared(sorted, sortedNorms, suffixNorms, checkpoints, order)
  }
}

object LempIndex {
  /** ‖v[c..f)‖ for every checkpoint c, of the f values `data[off..off+f)`. */
  private[lemp] def suffixNorms(data: Array[Double], off: Int, f: Int,
                                checkpoints: Array[Int]): Array[Double] = {
    val sn = new Array[Double](checkpoints.length)
    var cIdx = checkpoints.length - 1
    var s = 0.0
    var p = f - 1
    while (p >= 0) {
      val v = data(off + p); s += v * v
      if (cIdx >= 0 && p == checkpoints(cIdx)) { sn(cIdx) = math.sqrt(s); cIdx -= 1 }
      p -= 1
    }
    sn
  }
}

final class LempPrepared(
    sorted: Matrix,
    sortedNorms: Array[Double],
    suffixNorms: Array[Array[Double]],
    checkpoints: Array[Int],
    originalIds: Array[Int],
) extends PreparedMips {

  /** Rounding slack of the prune checks per unit of user norm,
    * (4f + 8)·ε·max‖i‖ with ε = 2^-53, so no item whose computed score ties
    * min(heap) is pruned. To first order in ε: fl(‖u‖·‖i‖) is below ‖u‖‖i‖
    * by at most (f + 3)ε·‖u‖‖i‖ (each norm (f/2 + 1)ε, the product ε), a
    * score summed in `rowDot` order exceeds u·i by at most fε·‖u‖‖i‖, and
    * the suffix bound's add rounds by at most 2ε·‖u‖‖i‖: (2f + 5)ε in all,
    * covered twice. No angle is taken, unlike in RECDEX's CBound. */
  private val slackPerUserNorm: Double =
    (4.0 * sorted.cols + 8) * math.ulp(1.0) / 2 * sortedNorms.headOption.getOrElse(0.0)

  override def query(user: Array[Double], userId: Int, k: Int): TopKResult = {
    val f = sorted.cols
    val n = sorted.rows
    val uNorm = {
      var s = 0.0; var p = 0
      while (p < f) { s += user(p) * user(p); p += 1 }
      math.sqrt(s)
    }
    val uSuffix = LempIndex.suffixNorms(user, 0, f, checkpoints)

    val h = new TopKHeap(k)
    val slack = uNorm * slackPerUserNorm
    // every check prunes strictly below min(heap) less the slack, and
    // nothing while the heap is not full, so ties stay exact
    def threshold = if (h.isFull) h.minScore - slack else Double.NegativeInfinity
    // length pruning: items are norm-descending, so the first item whose
    // bound ||u|| * ||i|| falls below the threshold prunes all later ones
    var i = 0
    while (i < n && !(uNorm * sortedNorms(i) < threshold)) {
      val score = incrementalDot(user, uSuffix, i, threshold)
      if (!score.isNaN) h.offer(score, originalIds(i))
      i += 1
    }
    h.result()
  }

  /** Incremental inner product with Cauchy–Schwarz suffix pruning.
    * Returns NaN when the item is proven to fall strictly below `threshold`.
    */
  private def incrementalDot(user: Array[Double], uSuffix: Array[Double],
                             item: Int, threshold: Double): Double = {
    val f = sorted.cols
    val off = item * f
    val sn = suffixNorms(item)
    var s = 0.0
    var p = 0
    var c = 0
    while (c < checkpoints.length) {
      val stop = checkpoints(c)
      while (p < stop) { s += user(p) * sorted.data(off + p); p += 1 }
      if (s + uSuffix(c) * sn(c) < threshold) return Double.NaN
      c += 1
    }
    while (p < f) { s += user(p) * sorted.data(off + p); p += 1 }
    s
  }
}
