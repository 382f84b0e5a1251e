package repro.recdex

import repro.cluster.KMeans
import repro.core._

/** RECDEX — the paper's hardware-friendly exact MIPS index (§5).
  *
  * Construction (Algorithm 1, ConstructIndex — [[RecdexPrepared.buildUserIndexImpl]]):
  *  1. k-means the user vectors into C clusters (C=8 in the paper).
  *  2. Per cluster j, compute θ_bj = max_{u ∈ C_j} arccos(u·c_j / ‖u‖‖c_j‖),
  *     the worst user-centroid angular distortion.
  *  3. Per cluster, compute for every item the Eq. 3 upper bound
  *     r*_ci = ‖i‖·cos(θ_ic − θ_b) if θ_b < θ_ic else ‖i‖, sort items by it
  *     descending, and store the sorted list L_c as consecutive
  *     dimension-major chunks (one array per coordinate, indexed from 0): the
  *     first chunk is the §5.4 head of B items, every later one holds
  *     [[RecdexPrepared.ChunkItems]] items (the last one fewer). A walk reads
  *     each chunk sequentially.
  *
  * Querying (Algorithm 1, QueryIndex + §5.4 blocked head), one loop over the
  * chunks of the user's cluster with a bounded heap:
  *  - Blocked (the serving path): the head chunk is scored with no bound
  *    check (the "hardware-efficient execution" lesioned in Fig. 8); every
  *    later chunk is checked once, at its first item, and if it survives it
  *    is scored whole with the vectorized [[Gemm.dotsInto]] and offered to
  *    the heap in list order.
  *  - Unblocked (the paper's plain RECDEX, the Fig. 8 lesion): the same loop
  *    checks CBound before every item and scores one item per step, from
  *    its row of the row-major item matrix.
  *  - The walk stops at the first check where CBound(c, i, θ_b) < min(heap).
  *    Exactness is Theorem 1: bounds do not increase along L_c, the bound
  *    dominates u·i/‖u‖ for every user in the cluster, and min(heap) does
  *    not decrease, so a check at a chunk start stops no earlier than a
  *    check at every item would. Items scored past that point are only
  *    offered to the heap, whose result under (score desc, id asc) does not
  *    depend on what else was offered or in which order. Both modes add
  *    each score in `Matrix.rowDot` order, so their scores are the same
  *    bits as brute force's.
  *
  * Note the bound is on the NORMALIZED rating r* = u·i/‖u‖ (user norm is
  * rank-irrelevant); the walk therefore compares CBound·‖u‖, widened by a
  * rounding slack ([[RecdexPrepared.boundSlack]]), against min(heap).
  *
  * RECDEX's index is built over the query users, so timing it on the sample
  * alone would mis-measure it (§4.1). [[RecdexPrepared.bind]], RECDEX's one
  * batch entrypoint, builds it once over a whole block, so RECOPT
  * (`RecOpt.onBlock`, locally and on each Spark partition) times that build
  * as construction cost C_I, times the walk in chunks of the block's sample
  * with the same t-test stop as every other index, and serves the rest of
  * the block from the same index.
  */
final class Recdex(val numClusters: Int = 8, val blockSize: Int = 4096) extends MipsSolver {
  require(numClusters >= 1, s"numClusters must be >= 1, got $numClusters")
  require(blockSize >= 0, s"blockSize must be >= 0, got $blockSize")

  /** The k-means seed and iteration cap of every user index build. */
  val kmeansSeed: Long = RecdexPrepared.KMeansSeed
  val kmeansMaxIter: Int = RecdexPrepared.KMeansMaxIter

  override def name: String = "RECDEX"

  override def prepare(items: Matrix): PreparedMips = new RecdexPrepared(items, numClusters, blockSize)
}

final class RecdexPrepared(items: Matrix, numClusters: Int, blockSize: Int) extends PreparedMips {

  private val itemNorms: Array[Double] = items.rowNorms
  /** Rounding slack of the CBound check per unit of user norm. */
  private val slackPerUserNorm: Double =
    RecdexPrepared.boundSlack(items.cols) * itemNorms.foldLeft(0.0)(math.max)
  /** Where each chunk of a cluster list starts, and `items.rows` last: the
    * same for every cluster. */
  private val chunkStarts: Array[Int] = RecdexPrepared.chunkStarts(items.rows, blockSize)

  /** Point queries degrade to a one-user cluster (θ_b = 0): an exact walk of
    * the per-user sorted list, i.e. Koenigstein's bound without relaxation.
    * Provided for interface completeness; RECOPT uses the user index. */
  override def query(user: Array[Double], userId: Int, k: Int): TopKResult =
    queryBatch(Matrix.fromRows(Seq(user)), k)(0)

  /** Builds the user index over the whole block once and walks it for the
    * requested rows. An empty block has nothing to cluster; it serves no
    * rows, as the other solvers do. */
  override def bind(block: Matrix, k: Int): Array[Int] => Array[TopKResult] =
    if (block.rows == 0) super.bind(block, k)
    else {
      val index = buildUserIndexImpl(block)
      index.queryImpl(_, k, shareBlocked = true, null)
    }

  def buildUserIndexImpl(users: Matrix): RecdexUserIndex = {
    val n = items.rows

    // --- ConstructIndex: cluster users ---
    val km = KMeans.fit(users, math.min(numClusters, users.rows), RecdexPrepared.KMeansSeed,
      RecdexPrepared.KMeansMaxIter)
    val centroids = km.centroids
    val nC = centroids.rows

    // θ_b per cluster = max user-centroid angle
    val cluster = km.assignments
    val userNorms = users.rowNorms
    val centroidNorms = centroids.rowNorms
    val thetaB = new Array[Double](nC)
    val populated = new Array[Boolean](nC)
    var r = 0
    while (r < users.rows) {
      val c = cluster(r)
      val d = users.rowDot(r, centroids.row(c))
      val denom = userNorms(r) * centroidNorms(c)
      val cosv = if (denom > 0) math.max(-1.0, math.min(1.0, d / denom)) else 1.0
      thetaB(c) = math.max(thetaB(c), math.acos(cosv))
      populated(c) = true
      r += 1
    }

    // θ_ic for every (cluster, item) via one GEMM: centroids x items^T
    val ci = Gemm.abt(centroids, items) // nC x n

    // per-cluster Eq. 3 bounds, sort order, and the chunked list L_c
    val clusterOrder = new Array[Array[Int]](nC)
    val clusterBounds = new Array[Array[Double]](nC) // aligned with the sorted order
    val clusterChunks = new Array[Array[Array[Array[Double]]]](nC) // chunk, coordinate, item
    var j = 0
    while (j < nC) {
      if (populated(j)) {
        val thB = thetaB(j)
        val cNorm = centroidNorms(j)
        val bounds = new Array[Double](n)
        var i = 0
        while (i < n) {
          val denom = cNorm * itemNorms(i)
          val cosv = if (denom > 0) math.max(-1.0, math.min(1.0, ci(j, i) / denom)) else 1.0
          val thIc = math.acos(cosv)
          bounds(i) =
            if (thB < thIc) itemNorms(i) * math.cos(thIc - thB) else itemNorms(i)
          i += 1
        }
        val order = RecdexPrepared.boundOrder(bounds)
        clusterOrder(j) = order
        clusterBounds(j) = order.map(bounds)
        val sorted = items.selectRows(order)
        clusterChunks(j) = Array.tabulate(chunkStarts.length - 1)(ch =>
          sorted.columns(chunkStarts(ch), chunkStarts(ch + 1)))
      }
      j += 1
    }

    new RecdexUserIndex(users, userNorms, cluster, clusterOrder, clusterBounds, clusterChunks)
  }

  /** The built per-user-batch index (Algorithm 1's L plus user grouping):
    * `cluster(u)` is user row u's cluster. */
  final class RecdexUserIndex(
      users: Matrix,
      userNorms: Array[Double],
      cluster: Array[Int],
      clusterOrder: Array[Array[Int]],
      clusterBounds: Array[Array[Double]],
      clusterChunks: Array[Array[Array[Array[Double]]]],
  ) {

    /** Exact top-K for every indexed user, row-aligned with the build matrix. */
    def queryAll(k: Int): Array[TopKResult] =
      queryImpl(Array.range(0, users.rows), k, shareBlocked = true, null)

    /** Lesion hook (Fig. 8): query blocked (the serving path) or unblocked
      * (a bound check and one scored item per step), reusing this built
      * index so only walk time is measured. */
    def queryAllLesion(k: Int, shareBlocked: Boolean): Array[TopKResult] =
      queryImpl(Array.range(0, users.rows), k, shareBlocked, null)

    /** Lesion hook that also returns the mean items scored per user (w-bar
      * in Eq. 4). */
    def queryAllCounting(k: Int, shareBlocked: Boolean): (Array[TopKResult], Double) = {
      val visited = new Array[Long](users.rows)
      val res = queryImpl(Array.range(0, users.rows), k, shareBlocked, visited)
      (res, visited.sum.toDouble / math.max(1, users.rows))
    }

    /** Core walk over the user rows `rows`, grouped by cluster in
      * O(|rows|): result i, and the number of items scored for it in
      * `visited(i)` if `visited` is non-null, belong to `rows(i)`. */
    private[recdex] def queryImpl(rows: Array[Int], k: Int, shareBlocked: Boolean,
                                  visited: Array[Long]): Array[TopKResult] = {
      val f = users.cols
      val nC = clusterOrder.length
      val nChunks = chunkStarts.length - 1
      // counting sort: positions into `rows`, cluster by cluster, each
      // cluster's from(j) until from(j + 1)
      val from = new Array[Int](nC + 1)
      rows.foreach(r => from(cluster(r) + 1) += 1)
      for (c <- 0 until nC) from(c + 1) += from(c)
      val next = from.clone()
      val byCluster = new Array[Int](rows.length)
      for (i <- rows.indices) { byCluster(next(cluster(rows(i)))) = i; next(cluster(rows(i))) += 1 }

      // one score row per chunk; the blocked walk checks no bound before
      // the head chunk (B items, or none when B = 0)
      val scores = Array.tabulate(nChunks)(ch => new Array[Double](chunkStarts(ch + 1) - chunkStarts(ch)))
      val firstChecked = if (shareBlocked && blockSize > 0) 1 else 0
      val out = new Array[TopKResult](rows.length)
      var j = 0
      while (j < nC) {
        if (from(j) < from(j + 1)) {
          val order = clusterOrder(j)
          val bounds = clusterBounds(j)
          val chunks = clusterChunks(j)

          var q = from(j)
          while (q < from(j + 1)) {
            val pos = byCluster(q)
            val u = rows(pos)
            val uOff = u * f
            val h = new TopKHeap(k)
            // CBound is on the normalized rating; compare against min(h)/‖u‖.
            val uNorm = userNorms(u)
            val slack = uNorm * slackPerUserNorm
            def pruned(p: Int): Boolean = h.isFull && bounds(p) * uNorm + slack < h.minScore

            var ch = 0
            var p = 0 // items scored so far: L_c's first p
            var stop = false
            while (ch < nChunks && !stop) {
              val end = chunkStarts(ch + 1)
              if (shareBlocked) {
                if (ch >= firstChecked && pruned(p)) stop = true
                else {
                  val s = scores(ch)
                  Gemm.dotsInto(users.data, uOff, chunks(ch), s)
                  var i = 0
                  while (i < s.length) { h.offer(s(i), order(p + i)); i += 1 }
                  p = end
                }
              } else {
                while (p < end && !stop) {
                  if (pruned(p)) stop = true
                  else {
                    // the item's row of `items`, added in rowDot order
                    val iOff = order(p) * f
                    var s = 0.0
                    var d = 0
                    while (d < f) { s += items.data(iOff + d) * users.data(uOff + d); d += 1 }
                    h.offer(s, order(p))
                    p += 1
                  }
                }
              }
              ch += 1
            }
            if (visited != null) visited(pos) = p.toLong
            out(pos) = h.result()
            q += 1
          }
        }
        j += 1
      }
      out
    }
  }
}

object RecdexPrepared {

  /** Seed and iteration cap of the user index's k-means. */
  private[recdex] val KMeansSeed = 42L
  private[recdex] val KMeansMaxIter = 20

  /** Items per chunk of a cluster list after the head, chosen from 64 and
    * 128 by measuring both benchmark workloads (EXPERIMENTS.md "Chunked
    * walk"). Chunks of 8–32 items were slower than a per-item walk. */
  private[recdex] val ChunkItems = 128

  /** Start of every chunk of an `n`-item list whose head holds `head`
    * items, then `n`: 0, min(head, n) when head > 0, then every
    * [[ChunkItems]] items. */
  private[recdex] def chunkStarts(n: Int, head: Int): Array[Int] = {
    val first = math.min(math.max(head, 0), n)
    (0 +: (first until n by ChunkItems) :+ n).distinct.toArray
  }

  /** Rounding slack of the CBound check, per unit of ‖u‖·max‖i‖, for f
    * coordinates: 4·√((2f + 4)·ε) with ε = 2^-53. The walk prunes only when
    * fl(CBound·‖u‖) + slack < min(heap), so no item whose computed score
    * ties or beats min(heap) is dropped. Derivation (first order in ε; every
    * dot product adds in `rowDot` order, error ≤ γ_f·‖x‖‖y‖, γ_f ≈ fε):
    *  - A computed cosine u·c/(‖u‖‖c‖) is off by δ ≤ (2f + 4)ε: fε from the
    *    dot product, (f/2 + 1)ε from each norm, ε from the product and the
    *    division. Clamping to [-1, 1] does not add to it.
    *  - |acos x − acos y| ≤ acos(1 − |x − y|) ≈ √(2|x − y|), which is
    *    reached near cos = ±1: an angle is off by up to √(2δ), not by a few
    *    ε. θ_b is a maximum of such angles, so a user's true angle may pass
    *    it by √(2δ), and θ_ic is off by as much.
    *  - θ ↦ cos(max(0, θ)) is 1-Lipschitz, so the true Eq. 3 bound is at
    *    most the computed one plus ‖i‖·(2√(2δ) + O(fε)) (the subtraction,
    *    cos, ‖i‖ and the product add O(fε)).
    *  - A computed score is off by γ_f·‖u‖‖i‖, and the check's own product
    *    and add, and ‖u‖, by O(fε)·‖u‖·max‖i‖.
    *
    * Bounds of later items are no higher, but their norms may be, hence
    * max‖i‖. 2√2 < 4, and the remaining 1.17·√δ covers the O(fε) terms for
    * every f below about 10^14. A slack of fε alone would be too small by a
    * factor of about 10^8 at f = 50. */
  private[recdex] def boundSlack(f: Int): Double =
    4.0 * math.sqrt((2.0 * f + 4.0) * math.ulp(1.0) / 2)

  /** Item ids by bound descending, then id ascending — the order of
    * `sortBy(i => (-bounds(i), i))` with doubles compared as
    * `java.lang.Double.compare` does — without boxing a key per comparison:
    * a bottom-up merge sort of the ids, stable, so equal bounds keep their
    * ids ascending. */
  private[recdex] def boundOrder(bounds: Array[Double]): Array[Int] = {
    val n = bounds.length
    var src = Array.range(0, n)
    var dst = new Array[Int](n)
    var width = 1
    while (width < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + width, n)
        val hi = math.min(lo + 2 * width, n)
        var l = lo; var r = mid; var o = lo
        while (o < hi) {
          // the right run goes first only on a strictly higher bound
          if (l == mid || (r < hi &&
              java.lang.Double.compare(-bounds(src(r)), -bounds(src(l))) < 0)) {
            dst(o) = src(r); r += 1
          } else { dst(o) = src(l); l += 1 }
          o += 1
        }
        lo = hi
      }
      val t = src; src = dst; dst = t
      width *= 2
    }
    src
  }
}
