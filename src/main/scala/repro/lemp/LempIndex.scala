package repro.lemp

import repro.core.{Matrix, MipsSolver, PreparedMips, TopKHeap, TopKResult}

/** LEMP-LI — the SIGMOD 2015 / TODS 2016 baseline (Teflioudi et al.).
  *
  * Reimplementation of the retrieval variant the paper benchmarks
  * ("LEMP-LI": length-based + incremental pruning):
  *
  *  1. Items are sorted by L2 norm descending and partitioned into buckets
  *     of similar norm; each bucket is sized to stay cache-resident (the
  *     original sizes buckets to L3 — we use a fixed row count that keeps a
  *     bucket's vectors + norms within a few hundred KB).
  *  2. A query walks buckets in norm order. Once `||u|| * bucketMaxNorm`
  *     cannot beat the current k-th best score, the remaining buckets are
  *     pruned wholesale (length pruning — Cauchy–Schwarz).
  *  3. Inside a bucket, each item is first length-pruned with its own norm,
  *     then scored incrementally: exact partial inner product over a prefix
  *     of coordinates plus a Cauchy–Schwarz bound from precomputed suffix
  *     norms; when the bound falls below the heap threshold the item is
  *     abandoned (incremental pruning).
  *
  * The index is exact: pruning only discards items whose upper bound, widened
  * by a rounding slack, is strictly below the admission threshold.
  */
final class LempIndex(val bucketSize: Int = 256, val prefixStep: Int = 8) extends MipsSolver {
  require(bucketSize >= 1, s"bucketSize must be >= 1, got $bucketSize")
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

    val nBuckets = (n + bucketSize - 1) / bucketSize
    val bucketStart = Array.tabulate(nBuckets)(_ * bucketSize)
    val bucketMaxNorm = Array.tabulate(nBuckets)(b => sortedNorms(bucketStart(b)))

    new LempPrepared(sorted, sortedNorms, suffixNorms, checkpoints, order,
      bucketStart, bucketMaxNorm, bucketSize, prefixStep)
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
    bucketStart: Array[Int],
    bucketMaxNorm: Array[Double],
    bucketSize: Int,
    prefixStep: Int,
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
    var b = 0
    var done = false
    while (b < bucketStart.length && !done) {
      // length pruning across buckets: best possible score in this (and all
      // later) buckets is ||u|| * maxNorm(bucket)
      if (uNorm * bucketMaxNorm(b) < threshold) {
        done = true
      } else {
        val start = bucketStart(b)
        val end = math.min(start + bucketSize, n)
        var i = start
        var bucketDone = false
        while (i < end && !bucketDone) {
          // per-item length pruning; items in a bucket are norm-descending,
          // so the first prunable item prunes the bucket remainder.
          if (uNorm * sortedNorms(i) < threshold) {
            bucketDone = true
          } else {
            val score = incrementalDot(user, uSuffix, i, threshold)
            if (!score.isNaN) h.offer(score, originalIds(i))
            i += 1
          }
        }
        b += 1
      }
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
    var cIdx = 0
    while (p < f) {
      val stop = math.min(p + prefixStep, f)
      while (p < stop) { s += user(p) * sorted.data(off + p); p += 1 }
      if (p < f && cIdx < checkpoints.length && p == checkpoints(cIdx)) {
        val bound = s + uSuffix(cIdx) * sn(cIdx)
        if (bound < threshold) return Double.NaN
        cIdx += 1
      }
    }
    s
  }
}
