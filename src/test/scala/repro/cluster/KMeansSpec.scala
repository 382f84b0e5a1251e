package repro.cluster

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.core.Matrix

class KMeansSpec extends AnyFunSuite with PropSupport {

  private def sqDist(a: Array[Double], b: Array[Double]): Double =
    a.zip(b).map { case (x, y) => (x - y) * (x - y) }.sum

  test("rejects k < 1") {
    val e = intercept[IllegalArgumentException](KMeans.fit(Matrix.zeros(3, 2), 0))
    assert(e.getMessage.contains("cluster count must be >= 1, got 0"), e.getMessage)
  }

  test("k > n collapses to n clusters without error") {
    val pts = Matrix.randn(3, 2, seed = 1)
    val r = KMeans.fit(pts, 10)
    assert(r.centroids.rows <= 3)
    assert(r.assignments.forall(a => a >= 0 && a < r.centroids.rows))
  }

  test("single cluster centroid is the mean") {
    val pts = Matrix.fromRows(Seq(Array(0.0, 0.0), Array(2.0, 0.0), Array(1.0, 3.0)))
    val r = KMeans.fit(pts, 1)
    assert(math.abs(r.centroids(0, 0) - 1.0) < 1e-9)
    assert(math.abs(r.centroids(0, 1) - 1.0) < 1e-9)
  }

  test("well-separated blobs are recovered") {
    val rng = new scala.util.Random(5)
    val centers = Seq(Array(10.0, 0.0), Array(-10.0, 0.0), Array(0.0, 10.0))
    val pts = Matrix.fromRows((0 until 90).map { i =>
      val c = centers(i % 3)
      Array(c(0) + rng.nextGaussian() * 0.1, c(1) + rng.nextGaussian() * 0.1)
    })
    val r = KMeans.fit(pts, 3, seed = 2)
    // each found centroid must be within 1.0 of some true center
    (0 until 3).foreach { j =>
      val c = r.centroids.row(j)
      assert(centers.exists(t => math.sqrt(sqDist(c, t)) < 1.0),
        s"centroid ${c.toSeq} far from all true centers")
    }
    // points sharing a blob share a cluster
    (0 until 87).foreach(i => assert(r.assignments(i) == r.assignments(i + 3)))
  }

  test("deterministic in the seed") {
    val pts = Matrix.randn(100, 4, seed = 9)
    val a = KMeans.fit(pts, 5, seed = 3)
    val b = KMeans.fit(pts, 5, seed = 3)
    assert(a.assignments.toSeq == b.assignments.toSeq)
    assert(a.centroids.data.toSeq == b.centroids.data.toSeq)
  }

  test("assignments are nearest-centroid") {
    val pts = Matrix.randn(80, 3, seed = 11)
    val r = KMeans.fit(pts, 4, seed = 1)
    (0 until 80).foreach { i =>
      val p = pts.row(i)
      val dists = (0 until r.centroids.rows).map(j => sqDist(p, r.centroids.row(j)))
      assert(dists(r.assignments(i)) <= dists.min + 1e-12)
    }
  }

  test("objective no worse than a single-cluster solution") {
    val pts = Matrix.randn(60, 3, seed = 13)
    def objective(k: Int): Double = {
      val r = KMeans.fit(pts, k, seed = 1)
      (0 until 60).map(i => sqDist(pts.row(i), r.centroids.row(r.assignments(i)))).sum
    }
    assert(objective(8) <= objective(1) + 1e-9)
  }

  checkProp("property: every cluster id in range; every cluster non-degenerate input ok",
      minTests = 25) {
    Prop.forAll(Gen.choose(2, 50), Gen.choose(1, 6), Gen.choose(1, 8),
      Gen.choose(0L, 400L)) { (n, k, f, seed) =>
      val r = KMeans.fit(Matrix.randn(n, f, seed), k, seed = seed + 1)
      r.assignments.length == n && r.assignments.forall(a => a >= 0 && a < r.centroids.rows)
    }
  }

  /** Squared distance of row `r` of `m` to row `j` of `c`, the scalar
    * row-major loop: adds in dimension order from 0.0. */
  private def rowMajorSqDist(m: Matrix, r: Int, c: Matrix, j: Int): Double = {
    var s = 0.0
    var p = 0
    while (p < m.cols) { val d = m(r, p) - c(j, p); s += d * d; p += 1 }
    s
  }

  checkProp("property: every assignment is the lowest-index nearest centroid", minTests = 40) {
    // integer points in [-2, 2] give exact distance ties between centroids
    Prop.forAll(Gen.choose(1, 60), Gen.choose(1, 8), Gen.choose(1, 8),
      Gen.oneOf(true, false), Gen.choose(0L, 400L)) { (n, k, f, integer, seed) =>
      val pts =
        if (integer) { val rng = new scala.util.Random(seed); Matrix.tabulate(n, f)((_, _) => rng.nextInt(5) - 2.0) }
        else Matrix.randn(n, f, seed)
      val r = KMeans.fit(pts, k, seed = seed + 1)
      (0 until n).forall { i =>
        val d = (0 until r.centroids.rows).map(j => rowMajorSqDist(pts, i, r.centroids, j))
        r.assignments(i) == d.indexOf(d.min)
      }
    }
  }
}
