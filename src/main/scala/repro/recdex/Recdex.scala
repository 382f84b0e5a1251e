package repro.recdex

import repro.cluster.KMeans
import repro.core._

/** RECDEX — the paper's hardware-friendly exact MIPS index (§5).
  *
  * Construction (Algorithm 1, ConstructIndex — [[RecdexPrepared.buildUserIndex]]):
  *  1. k-means the user vectors into C clusters (C=8 in the paper).
  *  2. Per cluster j, compute θ_bj = max_{u ∈ C_j} arccos(u·c_j / ‖u‖‖c_j‖),
  *     the worst user-centroid angular distortion.
  *  3. Per cluster, compute for every item the Eq. 3 upper bound
  *     r*_ci = ‖i‖·cos(θ_ic − θ_b) if θ_b < θ_ic else ‖i‖, sort items by it
  *     descending, and materialize the sorted item vectors contiguously —
  *     the cluster's index list L_c (sequential walks are cache-friendly,
  *     mirroring LEMP's bucket layout).
  *
  * Querying (Algorithm 1, QueryIndex + §5.4 blocked head):
  *  - For each cluster, the first B items of L_c are kept dimension-major
  *    and scored for each of the cluster's users with the vectorized
  *    [[Gemm.dotsInto]], without bound checks (the "hardware-efficient
  *    execution" lesioned in Fig. 8); the scores go to the heap in list
  *    order.
  *  - Each user then walks the remainder of L_c with a bounded heap,
  *    terminating as soon as CBound(c, i, θ_b) < min(heap) — exactness is
  *    Theorem 1: the walk visits items in monotonically decreasing upper
  *    bound, and the bound dominates u·i/‖u‖ for every user in the cluster.
  *
  * Note the bound is on the NORMALIZED rating r* = u·i/‖u‖ (user norm is
  * rank-irrelevant); the walk therefore compares CBound·‖u‖ against
  * min(heap).
  *
  * RECDEX's index is built over the query users, so timing it on the sample
  * alone would mis-measure it (§4.1). RECOPT (`RecOpt.timeBlock`, locally
  * and on each Spark partition) builds the user index once over the whole
  * block (construction cost C_I, via [[UserIndexedMips]]), times the walk
  * in chunks of the block's sample with the same t-test stop as every other
  * index, and serves the rest of the block from the same index.
  */
final class Recdex(val numClusters: Int = 8, val blockSize: Int = 4096,
                   val kmeansSeed: Long = 42, val kmeansMaxIter: Int = 20)
    extends MipsSolver {
  override def name: String = "RECDEX"

  override def prepare(items: Matrix): PreparedMips =
    new RecdexPrepared(items, numClusters, blockSize, kmeansSeed, kmeansMaxIter)
}

final class RecdexPrepared(items: Matrix, numClusters: Int, blockSize: Int,
                           kmeansSeed: Long, kmeansMaxIter: Int)
    extends UserIndexedMips {

  private val itemNorms: Array[Double] = items.rowNorms

  /** Point queries degrade to a one-user cluster (θ_b = 0): an exact walk of
    * the per-user sorted list, i.e. Koenigstein's bound without relaxation.
    * Provided for interface completeness; RECOPT uses the user index. */
  override def query(user: Array[Double], userId: Int, k: Int): TopKResult =
    queryBatch(Matrix.fromRows(Seq(user)), k)(0)

  override def queryBatch(users: Matrix, k: Int): Array[TopKResult] =
    buildUserIndexImpl(users).queryAll(k)

  override def buildUserIndex(users: Matrix): UserIndex = buildUserIndexImpl(users)

  def buildUserIndexImpl(users: Matrix): RecdexUserIndex = {
    val n = items.rows

    // --- ConstructIndex: cluster users ---
    val km = KMeans.fit(users, math.min(numClusters, users.rows), kmeansSeed, kmeansMaxIter)
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

    // per-cluster Eq. 3 bounds, sort order, and materialized sorted items
    val clusterOrder = new Array[Array[Int]](nC)
    val clusterBounds = new Array[Array[Double]](nC) // aligned with the sorted order
    val clusterItems = new Array[Matrix](nC)
    val clusterHeads = new Array[Array[Array[Double]]](nC) // first B of L_c, dimension-major
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
        clusterItems(j) = items.selectRows(order) // contiguous L_c
        clusterHeads(j) = clusterItems(j).columns(math.min(blockSize, n))
      }
      j += 1
    }

    new RecdexUserIndex(users, userNorms, cluster, clusterOrder,
      clusterBounds, clusterItems, clusterHeads, blockSize)
  }

  /** The built per-user-batch index (Algorithm 1's L plus user grouping):
    * `cluster(u)` is user row u's cluster. */
  final class RecdexUserIndex(
      users: Matrix,
      userNorms: Array[Double],
      cluster: Array[Int],
      clusterOrder: Array[Array[Int]],
      clusterBounds: Array[Array[Double]],
      clusterItems: Array[Matrix],
      clusterHeads: Array[Array[Array[Double]]],
      blockSize: Int,
  ) extends UserIndex {

    /** Exact top-K for every indexed user, row-aligned with the build matrix. */
    def queryAll(k: Int): Array[TopKResult] =
      queryImpl(Array.range(0, users.rows), k, shareBlocked = blockSize > 0, null)

    override def querySubset(rows: Array[Int], k: Int): Array[TopKResult] =
      queryImpl(rows, k, shareBlocked = blockSize > 0, null)

    /** Lesion hook (Fig. 8): query with/without the §5.4 blocked head,
      * reusing this built index so only walk time is measured. */
    def queryAllLesion(k: Int, shareBlocked: Boolean): Array[TopKResult] =
      queryImpl(Array.range(0, users.rows), k, shareBlocked, null)

    /** Lesion hook that also returns the mean items visited per user (w-bar
      * in Eq. 4), counting both the blocked head and the walked tail. */
    def queryAllCounting(k: Int, shareBlocked: Boolean): (Array[TopKResult], Double) = {
      val visited = new Array[Long](users.rows)
      val res = queryImpl(Array.range(0, users.rows), k, shareBlocked, visited)
      (res, visited.sum.toDouble / math.max(1, users.rows))
    }

    /** Core walk over the user rows `rows`, grouped by cluster in
      * O(|rows|): result i, and `visited(i)` if `visited` is non-null,
      * belong to `rows(i)`. */
    private[recdex] def queryImpl(rows: Array[Int], k: Int, shareBlocked: Boolean,
                                  visited: Array[Long]): Array[TopKResult] = {
      val n = items.rows
      val nC = clusterOrder.length
      // counting sort: positions into `rows`, cluster by cluster, each
      // cluster's from(j) until from(j + 1)
      val from = new Array[Int](nC + 1)
      rows.foreach(r => from(cluster(r) + 1) += 1)
      for (c <- 0 until nC) from(c + 1) += from(c)
      val next = from.clone()
      val byCluster = new Array[Int](rows.length)
      for (i <- rows.indices) { byCluster(next(cluster(rows(i)))) = i; next(cluster(rows(i))) += 1 }

      val out = new Array[TopKResult](rows.length)
      var j = 0
      while (j < nC) {
        if (from(j) < from(j + 1)) {
          val order = clusterOrder(j)
          val bounds = clusterBounds(j)
          val sortedItems = clusterItems(j)
          // Starting the walk at B < k offers the same items as a k-item
          // head: the heap is not full before its k-th offer.
          val b = if (shareBlocked) math.min(blockSize, n) else 0
          val headScores = new Array[Double](b)

          var q = from(j)
          while (q < from(j + 1)) {
            val pos = byCluster(q)
            val u = rows(pos)
            val h = new TopKHeap(k)

            // --- §5.4 blocked head: score the first B items, no bound checks ---
            if (b > 0) {
              Gemm.dotsInto(users.data, u * users.cols, clusterHeads(j), headScores)
              var p = 0
              while (p < b) { h.offer(headScores(p), order(p)); p += 1 }
            }

            // --- walk of the list remainder with CBound termination ---
            val uNorm = userNorms(u)
            val uRow = users.row(u)
            var p = b
            var stop = false
            while (p < n && !stop) {
              // CBound is on the normalized rating; compare against min(h)/‖u‖.
              if (h.isFull && bounds(p) * uNorm < h.minScore) {
                stop = true
              } else {
                h.offer(sortedItems.rowDot(p, uRow), order(p))
                p += 1
              }
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
