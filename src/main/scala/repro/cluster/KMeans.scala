package repro.cluster

import repro.core.Matrix

/** Lloyd's k-means with k-means++ seeding — RECDEX's clustering substrate.
  *
  * The paper uses standard (Euclidean) k-means from Armadillo and notes that
  * minimizing L2 distance between user vectors approximates minimizing the
  * angular distance RECDEX actually cares about (§5.1). This implementation
  * is seeded and fully deterministic so index construction is reproducible.
  */
object KMeans {

  /** `centroids`: k x f; `assignments(i)`: cluster of row i. */
  final case class KMeansResult(centroids: Matrix, assignments: Array[Int]) extends Serializable

  /** `out(i)` = squared Euclidean distance from point i to `c`, with the
    * points stored dimension-major (`Matrix.columns`). The adds run in
    * dimension order from 0.0, as a row-major scalar loop's, and the loop over
    * points vectorizes. */
  private def sqDistsInto(pointCols: Array[Array[Double]], c: Array[Double],
                          out: Array[Double]): Unit = {
    val n = out.length
    java.util.Arrays.fill(out, 0.0)
    var p = 0
    while (p < c.length) {
      val col = pointCols(p)
      val cp = c(p)
      var i = 0
      while (i < n) { val d = col(i) - cp; out(i) += d * d; i += 1 }
      p += 1
    }
  }

  /** Assign every point to its nearest centroid (ties: lowest index). */
  private def assignAll(pointCols: Array[Array[Double]], centroids: Array[Array[Double]],
                        assign: Array[Int]): Unit = {
    val n = assign.length
    val bestD = new Array[Double](n)
    val d = new Array[Double](n)
    sqDistsInto(pointCols, centroids(0), bestD)
    java.util.Arrays.fill(assign, 0)
    var j = 1
    while (j < centroids.length) {
      sqDistsInto(pointCols, centroids(j), d)
      var i = 0
      while (i < n) {
        if (d(i) < bestD(i)) { bestD(i) = d(i); assign(i) = j }
        i += 1
      }
      j += 1
    }
  }

  /** Cluster the rows of `points` into `k` clusters. */
  def fit(points: Matrix, k: Int, seed: Long = 42, maxIter: Int = 25): KMeansResult = {
    require(k >= 1, s"cluster count must be >= 1, got $k")
    val n = points.rows
    val f = points.cols
    val kk = math.min(k, n)
    val rng = new scala.util.Random(seed)
    val pointCols = points.columns()

    // --- k-means++ seeding ---
    val centroids = new Array[Array[Double]](kk)
    centroids(0) = points.row(rng.nextInt(n))
    val minDist = Array.fill(n)(Double.MaxValue)
    val dist = new Array[Double](n)
    var c = 1
    while (c < kk) {
      sqDistsInto(pointCols, centroids(c - 1), dist)
      var i = 0
      var total = 0.0
      while (i < n) {
        val d = dist(i)
        if (d < minDist(i)) minDist(i) = d
        total += minDist(i)
        i += 1
      }
      // sample proportional to squared distance (deterministic given seed)
      var target = rng.nextDouble() * total
      var pick = 0
      i = 0
      var acc = 0.0
      while (i < n && acc <= target) { acc += minDist(i); pick = i; i += 1 }
      centroids(c) = points.row(pick)
      c += 1
    }

    // --- Lloyd iterations, until no centroid moves more than 1e-6 (squared) ---
    val assign = new Array[Int](n)
    var iter = 0
    var moved = Double.MaxValue
    while (iter < maxIter && moved > 1e-6) {
      assignAll(pointCols, centroids, assign)
      // update step
      val sums = Array.fill(kk)(new Array[Double](f))
      val counts = new Array[Int](kk)
      var i = 0
      while (i < n) {
        val a = assign(i); counts(a) += 1
        val s = sums(a); val off = i * f
        var j = 0
        while (j < f) { s(j) += points.data(off + j); j += 1 }
        i += 1
      }
      moved = 0.0
      var j = 0
      while (j < kk) {
        if (counts(j) > 0) {
          val newC = sums(j)
          var d = 0
          var delta = 0.0
          while (d < f) {
            newC(d) /= counts(j)
            val diff = newC(d) - centroids(j)(d)
            delta += diff * diff
            d += 1
          }
          moved = math.max(moved, delta)
          centroids(j) = newC
        } else {
          // empty cluster: re-seed to a random point so every cluster is live
          centroids(j) = points.row(rng.nextInt(n))
          moved = Double.MaxValue
        }
        j += 1
      }
      iter += 1
    }

    // final assignment against the last centroids
    assignAll(pointCols, centroids, assign)
    KMeansResult(Matrix.fromRows(centroids.toIndexedSeq), assign)
  }
}
